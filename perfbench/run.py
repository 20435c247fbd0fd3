"""ctrlscore benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is ``src/ctrlscore``.
The inputs are generated from the seed (``gen.py``).  Every workload is a
single closed-loop client: the next request goes out when the previous one
has returned.  ``cli-small`` runs each request as a cold ``python -m
ctrlscore`` process; the others run ``ctrlscore.cli.main`` in one fresh
worker process (``worker.py``).  Passes repeat until the next one would end
after ``--seconds``; there is always at least one.

``--trace 0`` prints the end-to-end metrics.  A pass is timed in CPU seconds
(user and system, all threads) of the working processes.  Its wall time and
the median and tail of the request times, in wall and CPU seconds, go to
the detail line.  On a small shared VM the hypervisor took up to 25% of the
CPU for minutes at a time.  That moved the wall time of a run by up to 50%
and its CPU time by a few percent.  The median request of a mixed pass
swung by 0.24 of its value across seeds even in CPU seconds.  ``--trace 1``
replays the passes in-process with spans around each module's public
functions (``spans.py``) and prints the per-layer metrics.  Either way every
output is checked by ``checker.py``, a line of run metadata is printed
first, and the last line is the JSON result.  ``CTRLSCORE_THREADS`` and the
BLAS thread variables are removed from the environment of every child, so
the default behaviour is what gets measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

#: Removed from every child's environment (and recorded as removed): the
#: thread settings, so the defaults are measured, and the switch that would
#: keep children from caching byte code, as an installed package does.
UNSET = ("CTRLSCORE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
         "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
         "NUMEXPR_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
#: Fresh interpreters timed for set-up, after one warm-up that fills the
#: byte-code cache.
SETUP_SAMPLES = 5
#: Fresh interpreters timed for each ``cli.*`` layer metric.
CLI_SAMPLES = 3
#: No child may run longer than this.
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"setup_s": "s", "pass_cpu_s": "s",
              "ok_frac": "fraction", "converged_frac": "fraction",
              "peak_rss_mb": "MB"}
CLI_LAYER = {"cli.interpreter_s": "s", "cli.import_s": "s", "cli.import_scipy_s": "s"}
TRACED_LAYER = {
    "trace.pass_s": "s", "cli.emit_s": "s", "modelfile.parse_s": "s",
    "modelfile.parse_bytes": "bytes", "linsys.build_s": "s",
    "linsys.lyapunov_calls": "count", "linsys.lyapunov_frac": "fraction",
    "spectral.checks_s": "s", "spectral.commuting_s": "s",
    "scores.eval_calls": "count", "scores.eval_s": "s", "scores.eval_busy_s": "s",
    "simplex.project_calls": "count", "simplex.project_s": "s",
    "simplex.project_busy_s": "s", "optimizer.iterations": "count",
    "optimizer.starts": "count", "optimizer.accept_ratio": "fraction",
    "optimizer.solve_s": "s", "optimizer.pool_wait_frac": "fraction",
    "optimizer.thread_busy_ratio": "fraction", "optimizer.oracle_frac": "fraction",
    "energy.min_energy_frac": "fraction", "energy.ellipsoid_frac": "fraction",
    "trace.unattributed_frac": "fraction", "trace.overhead_frac": "fraction",
}
PER_LAYER = {**CLI_LAYER, **TRACED_LAYER}

#: Spans that must occur in a traced pass of each workload.  A layer the
#: workload is meant to move that records nothing means a traced name was
#: bypassed, and the run fails instead of reporting zero.
EXPECTED_SPANS = {
    "cli-small": ("modelfile.parse", "optimizer.solve", "scores.eval", "simplex.project",
                  "optimizer.descend", "cli.emit"),
    "spectral-large": ("modelfile.parse", "optimizer.solve", "scores.eval",
                       "simplex.project", "optimizer.descend", "spectral.check_feasibility"),
    "dense-lti": ("linsys.node_gramian", "optimizer.solve", "scores.eval",
                  "simplex.project", "optimizer.descend", "optimizer.pool_wait"),
    "diagnostics": ("linsys.node_gramian", "spectral.check_commuting",
                    "optimizer.grid_oracle", "energy.min_energy",
                    "energy.reachable_ellipsoid", "scores.batch_values"),
}


class Child:
    """A child process with its wall time, and its CPU time and peak RSS
    from ``wait4``."""

    def __init__(self, argv: list[str], env: dict, workdir: str, tag: str):
        self.out_path = os.path.join(workdir, tag + ".out")
        self.err_path = os.path.join(workdir, tag + ".err")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.started = time.monotonic()
            self.proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        self.wall = time.monotonic() - self.started
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

    def stdout(self) -> str:
        with open(self.out_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()

    def stderr(self) -> str:
        with open(self.err_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()


def scipy_import_s(importtime: str) -> float:
    """Cumulative import time of the outermost scipy modules in a
    ``-X importtime`` log, which lists each module after its imports."""
    total = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy)
    for line in reversed(importtime.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        if name.split(".")[0] == "scipy" and not inside:
            total += cumulative
        stack.append((depth, inside or name.split(".")[0] == "scipy"))
    return total / 1e6


def cpu_ticks() -> list[int]:
    """The machine's CPU time counters (user ... steal) from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


class Bench:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        work = os.path.join(self.root, ".perfbench-work")
        self.workdir = os.path.join(work, f"run-{os.getpid()}")
        self.inputs = os.path.join(self.workdir, "inputs")
        self.env = dict(os.environ)
        self.was_set = {k: self.env.pop(k) for k in UNSET if k in self.env}
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(work, "pycache")
        self.children = 0
        self.blas: dict = {}
        self.detail: dict = {}
        self.cpu_ticks = cpu_ticks()

    def spawn(self, argv: list[str]) -> Child:
        self.children += 1
        child = Child([sys.executable, *argv], self.env, self.workdir, f"c{self.children}")
        if child.code < 0:
            raise RuntimeError(f"child {argv[:3]} died with signal {-child.code}")
        return child

    # -- set-up ------------------------------------------------------------

    def probe(self) -> float:
        """Seconds from spawning a fresh interpreter to ``import ctrlscore``
        having finished in it."""
        child = self.spawn([os.path.join(HERE, "worker.py"), "--probe"])
        if child.code != 0:
            raise RuntimeError("set-up probe failed:\n" + child.stderr())
        report = json.loads(child.stdout())
        self.blas = report["blas"]
        return report["imported"] - child.started

    def setup_samples(self) -> list[float]:
        self.probe()  # warm-up: fills the byte-code cache
        return [self.probe() for _ in range(SETUP_SAMPLES)]

    def cli_layers(self) -> dict[str, float]:
        """Interpreter start, ``import ctrlscore`` beyond it, and the part of
        the import that is scipy (from ``-X importtime``)."""
        bare = statistics.median(self.spawn(["-c", "pass"]).wall for _ in range(CLI_SAMPLES))
        full = statistics.median(self.spawn(["-c", "import ctrlscore"]).wall
                                 for _ in range(CLI_SAMPLES))
        scipy = []
        for _ in range(CLI_SAMPLES):
            child = self.spawn(["-X", "importtime", "-c", "import ctrlscore"])
            scipy.append(scipy_import_s(child.stderr()))
        return {"cli.interpreter_s": bare, "cli.import_s": full - bare,
                "cli.import_scipy_s": statistics.median(scipy)}

    # -- passes ------------------------------------------------------------

    def subprocess_passes(self, requests: list[dict]) -> tuple[list[dict], float]:
        """``cli-small``: every request a cold ``python -m ctrlscore``."""
        passes: list[dict] = []
        peak = 0.0
        began = time.perf_counter()
        while not passes or (time.perf_counter() - began + passes[-1]["wall"]
                             <= self.args.seconds):
            start = time.perf_counter()
            children = [self.spawn(["-m", "ctrlscore", *r["argv"]]) for r in requests]
            passes.append({"wall": time.perf_counter() - start,
                           "pass_cpu": sum(c.cpu for c in children),
                           "latency": [c.wall for c in children],
                           "cpu": [c.cpu for c in children],
                           "exit": [c.code for c in children],
                           "stdout": [c.stdout() for c in children]})
            peak = max([peak] + [c.maxrss_mb for c in children])
        return passes, peak

    def worker_passes(self, requests: list[dict], trace: bool) -> tuple[dict, Child]:
        config = os.path.join(self.workdir, "config.json")
        result_path = os.path.join(self.workdir, "result.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump({"requests": requests, "seconds": self.args.seconds,
                       "trace": trace, "result": result_path}, handle)
        child = self.spawn([os.path.join(HERE, "worker.py"), config])
        if child.code != 0:
            raise RuntimeError("worker failed:\n" + child.stderr())
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle), child

    # -- the run -----------------------------------------------------------

    def run(self) -> dict:
        """One run; returns the result and fills ``self.detail``."""
        models, reqs = gen.build(self.args.workload, self.args.seed)
        self.detail["input_bytes"] = gen.write(models, self.inputs)
        requests = [{"rid": r.rid, "argv": r.argv(self.inputs)} for r in reqs]
        if self.args.trace:
            passes, values = self.traced(requests)
        else:
            passes, values = self.untraced(requests)
        attempted, failed, converged, scores = self.check(models, reqs, passes)
        if not self.args.trace:
            values["ok_frac"] = (attempted - failed) / attempted
            values["converged_frac"] = converged / scores if scores else 1.0
        units = PER_LAYER if self.args.trace else END_TO_END
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}

    def untraced(self, requests: list[dict]) -> tuple[list[dict], dict]:
        setups = self.setup_samples()
        if self.args.workload == "cli-small":
            passes, peak = self.subprocess_passes(requests)
        else:
            result, child = self.worker_passes(requests, trace=False)
            passes, peak = result["passes"], child.maxrss_mb
            setups.append(result["imported"] - child.started)
        self.detail["setup_samples_s"] = setups
        self.detail["passes_s"] = [p["wall"] for p in passes]
        self.detail["passes_cpu_s"] = [p["pass_cpu"] for p in passes]
        self.detail["request_p50_s"] = {
            r["rid"]: statistics.median(p["latency"][i] for p in passes)
            for i, r in enumerate(requests)}
        for name in ("latency", "cpu"):
            values = sorted(x for p in passes for x in p[name])
            self.detail[f"{name}_p50_s"] = statistics.median(values)
            if len(values) > 10:  # the highest percentile with ten samples above it
                k = len(values) - 11
                self.detail[f"{name}_tail"] = {"percentile": 100.0 * (k + 1) / len(values),
                                               "value_s": values[k], "samples": len(values)}
        return passes, {"setup_s": statistics.median(setups),
                        "pass_cpu_s": statistics.median(self.detail["passes_cpu_s"]),
                        "peak_rss_mb": peak}

    def traced(self, requests: list[dict]) -> tuple[list[dict], dict]:
        values = self.cli_layers()
        result, _ = self.worker_passes(requests, trace=True)
        passes = result["passes"]
        for name in EXPECTED_SPANS[self.args.workload]:
            if not all(p["counts"].get(name) for p in passes):
                raise RuntimeError(f"a traced pass recorded no {name!r} span")
        for name in TRACED_LAYER:
            values[name] = statistics.median(p["metrics"][name] for p in passes)
        self.detail["call_cost_s"] = result["call_cost_s"]
        self.detail["traced_passes"] = [{"wall_s": p["wall"], "self_s": p["self_s"]}
                                        for p in passes]
        return passes, values

    def check(self, models, reqs, passes) -> tuple[int, int, int, int]:
        """(attempted, failed, converged, score requests) over all passes;
        failures and the distance of unconverged answers go to the detail."""
        from checker import Checker

        checker = Checker(models)
        verdicts = {}
        attempted = failed = converged = scores = 0
        failures = self.detail["failures"] = {}
        unconverged = self.detail["unconverged_distance"] = {}
        for p in passes:
            for i, req in enumerate(reqs):
                key = (i, p["exit"][i], p["stdout"][i])
                if key not in verdicts:
                    verdicts[key] = checker.check(req, p["exit"][i], p["stdout"][i])
                verdict = verdicts[key]
                attempted += 1
                if not verdict.ok:
                    failed += 1
                    failures[req.rid] = verdict.reason
                if req.command == "score":
                    scores += 1
                    converged += bool(verdict.converged)
                    if verdict.converged is False and verdict.distance is not None:
                        unconverged[req.rid] = verdict.distance
        return attempted, failed, converged, scores

    def metadata(self) -> dict:
        import numpy
        import scipy

        revision = "unknown: not a git checkout"
        if os.path.isdir(os.path.join(self.root, ".git")):
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                      capture_output=True, text=True).stdout.strip()
        ticks = [b - a for a, b in zip(self.cpu_ticks, cpu_ticks())]
        return {
            # Share of the machine's CPU time a hypervisor took during the run.
            "steal_frac": ticks[7] / sum(ticks) if len(ticks) == 8 and sum(ticks) else None,
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": self.blas, "git_revision": revision,
            "platform": platform.platform(),
            "environment": {"unset": list(UNSET), "was_set": self.was_set,
                            "PYTHONPATH": self.env["PYTHONPATH"],
                            "PYTHONPYCACHEPREFIX": self.env["PYTHONPYCACHEPREFIX"]},
        }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ctrlscore", "__init__.py")):
        print("error: run from the root of a ctrlscore checkout "
              "(src/ctrlscore is missing)", file=sys.stderr)
        return 2
    bench = Bench(args)
    os.makedirs(bench.workdir, exist_ok=True)
    try:
        result = bench.run()
        meta = bench.metadata()
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    print(json.dumps({"metadata": meta, "detail": bench.detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
