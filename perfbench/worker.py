"""The process that does the work of an in-process workload.

Run as ``python worker.py CONFIG.json`` by ``run.py`` with ``src`` on
``PYTHONPATH``.  It imports ctrlscore first, so the moment the import ends
marks the end of set-up, then runs whole passes of the workload's requests
through ``ctrlscore.cli.main`` and writes what it saw to ``CONFIG.json``'s
``result`` path.  ``--probe`` only imports ctrlscore and prints that moment
and the BLAS set-up as JSON.
"""

import time

import ctrlscore  # noqa: F401  -- set-up ends here

IMPORTED = time.monotonic()

import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def run_request(argv: list[str]) -> tuple[float, float, int, str]:
    """Run one CLI request in this process: (wall seconds, CPU seconds of
    all threads, exit code, stdout)."""
    from ctrlscore.cli import main

    out = io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a request this way
            code = exc.code if isinstance(exc.code, int) else 1
    return time.perf_counter() - start, time.process_time() - cpu, code, out.getvalue()


def run_passes(requests: list[dict], seconds: float, tracer=None) -> list[dict]:
    """Whole passes until the next one would end after ``seconds``; at least
    one.  With a tracer, each request runs under a root span."""
    passes: list[dict] = []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began + passes[-1]["wall"] <= seconds:
        cpu = time.process_time()
        start = time.perf_counter()
        first_span = len(tracer.spans) if tracer else 0
        results = []
        for req in requests:
            if tracer:
                with tracer.span("request", request=req["rid"]):
                    results.append(run_request(req["argv"]))
            else:
                results.append(run_request(req["argv"]))
        passes.append({"wall": time.perf_counter() - start,
                       "pass_cpu": time.process_time() - cpu,
                       "first_span": first_span,
                       "end_span": len(tracer.spans) if tracer else 0,
                       "latency": [r[0] for r in results],
                       "cpu": [r[1] for r in results],
                       "exit": [r[2] for r in results],
                       "stdout": [r[3] for r in results]})
    return passes


def blas_info() -> dict:
    """BLAS library name and the thread count it runs with."""
    import ctypes

    import numpy

    info = {"name": "unknown", "threads": None}
    try:
        info["name"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                info["threads"] = int(func())
                return info
    return info


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    result: dict = {"imported": IMPORTED}
    if config["trace"]:
        import spans

        calibration = spans.per_call_cost()
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes = run_passes(config["requests"], config["seconds"], tracer)
        finally:
            tracer.uninstall()
        main_thread = threading.get_ident()
        for p in passes:
            window = tracer.spans[p["first_span"]:p["end_span"]]
            p["metrics"] = spans.layer_metrics(window, p["wall"], main_thread, calibration)
            p["self_s"] = spans.self_times(window, main_thread)
            p["counts"] = dict(collections.Counter(s.name for s in window))
        result["call_cost_s"] = calibration
    else:
        passes = run_passes(config["requests"], config["seconds"])
    result["passes"] = passes
    with open(config["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "--probe":
        json.dump({"imported": IMPORTED, "blas": blas_info()}, sys.stdout)
        sys.exit(0)
    sys.exit(main(sys.argv[1]))
