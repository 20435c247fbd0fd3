"""Thread-aware spans around ctrlscore's public functions.

:meth:`Tracer.install` replaces each traced function at the module or class
attribute its callers look up and :meth:`Tracer.uninstall` puts the original
back.  Every call then records a span: name, start, end, parent span, thread
and request id.  Parents are kept on a per-thread stack, and the start pool
in :func:`ctrlscore.optimizer.solve` is swapped for an executor that hands
the submitting span to the worker thread, so spans of the starts hang under
the ``solve`` that caused them instead of corrupting another thread's stack.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import NamedTuple

#: The root span around one request; it is not a layer.
REQUEST = "request"


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    request: str
    value: float  # a count recorded at the boundary (bytes, iterations)


def _targets():
    """(owner, attribute, span name, value-of(args, result)) to trace."""
    import ctrlscore.cli as cli
    import ctrlscore.linsys as linsys
    import ctrlscore.modelfile as modelfile
    import ctrlscore.optimizer as optimizer
    import ctrlscore.scores as scores
    import ctrlscore.simplex as simplex
    import ctrlscore.spectral as spectral

    def text_bytes(args, _):
        return len(args[0].encode("utf-8"))

    def iterations(_, result):
        return result.iterations

    return [
        (cli, "parse_model_text", "modelfile.parse", text_bytes),
        (modelfile.ModelFile, "build", "modelfile.build", None),
        (modelfile, "check_stability", "linsys.check_stability", None),
        (modelfile, "gramian_family", "linsys.gramian_family", None),
        (linsys, "node_gramian", "linsys.node_gramian", None),
        (cli, "check_feasibility", "spectral.check_feasibility", None),
        (optimizer, "check_feasibility", "spectral.check_feasibility", None),
        (spectral, "check_commuting", "spectral.check_commuting", None),
        (spectral, "check_n_spectrum", "spectral.check_n_spectrum", None),
        (cli, "solve", "optimizer.solve", None),
        (optimizer, "_descend", "optimizer.descend", iterations),
        (cli, "grid_oracle", "optimizer.grid_oracle", None),
        (scores._Objective, "__call__", "scores.eval", None),
        (scores._Objective, "batch_values", "scores.batch_values", None),
        (optimizer, "project_capped_simplex", "simplex.project", None),
        (simplex, "project_capped_simplex", "simplex.project", None),
        (cli, "min_energy", "energy.min_energy", None),
        (cli, "reachable_ellipsoid", "energy.reachable_ellipsoid", None),
        (cli, "_build_report", "cli.emit", None),
        (cli.RunReport, "to_json_line", "cli.emit", None),
        (cli, "_emit", "cli.emit", None),
    ]


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [(0, "")]
        return stack

    def _enter(self, request: str | None) -> tuple[list, int, int, float]:
        stack = self._stack()
        parent, current = stack[-1]
        sid = next(self._ids)
        stack.append((sid, current if request is None else request))
        return stack, sid, parent, time.perf_counter()

    def _exit(self, entered, name: str, value: float = 0.0) -> None:
        end = time.perf_counter()
        stack, sid, parent, start = entered
        request = stack.pop()[1]
        self.spans.append(Span(sid, parent, name, start, end, threading.get_ident(),
                               request, value))

    @contextmanager
    def span(self, name: str, request: str | None = None):
        entered = self._enter(request)
        try:
            yield
        finally:
            self._exit(entered, name)

    def _wrap(self, name: str, func, value_of):
        tracer = self

        def traced(*args, **kwargs):
            entered = tracer._enter(None)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._exit(entered, name, float(value_of(args, result))
                             if value_of is not None and result is not None else 0.0)

        traced.__wrapped__ = func
        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Start pool that carries the caller's span into its threads
            and records the caller's waits as ``optimizer.pool_wait``."""

            def submit(self, fn, /, *args, **kwargs):
                context = tracer._stack()[-1]

                def task():
                    tracer._local.stack = [context]
                    return fn(*args, **kwargs)

                return super().submit(task)

            def map(self, fn, *iterables, **kwargs):
                results = super().map(fn, *iterables, **kwargs)

                def waited():
                    while True:
                        with tracer.span("optimizer.pool_wait"):
                            try:
                                item = next(results)
                            except StopIteration:
                                return
                        yield item

                return waited()

            def __exit__(self, *exc):
                with tracer.span("optimizer.pool_wait"):
                    return super().__exit__(*exc)

        return TracedPool

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raise if one no longer exists."""
        import ctrlscore.optimizer as optimizer

        patches = [(owner, attr, self._wrap(name, self._lookup(owner, attr), value_of))
                   for owner, attr, name, value_of in _targets()]
        self._lookup(optimizer, "ThreadPoolExecutor")
        patches.append((optimizer, "ThreadPoolExecutor", self._pool_class()))
        for owner, attr, replacement in patches:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    @staticmethod
    def _lookup(owner, attr: str):
        if attr not in vars(owner):
            raise AttributeError(
                f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: the "
                "attribute no longer exists, so its layer would read zero")
        return getattr(owner, attr)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: list[Span], main: int) -> dict[str, dict[str, float]]:
    """Per-layer self time: a span's duration minus what its children cover.

    Children on other threads (starts in the pool) overlap one another, so
    the part they cover is the union of their intervals.  Times on the
    main thread, which runs the requests, add up to the part of the
    pass the spans cover; those on pool threads are reported apart.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    layers: dict[str, dict[str, float]] = {"main": {}, "pool": {}}
    for s in spans:
        if s.name == REQUEST:
            continue
        inner = [(max(a, s.start), min(b, s.end))
                 for a, b in children.get(s.sid, ()) if b > s.start and a < s.end]
        side = layers["main" if s.thread == main else "pool"]
        layer = s.name.split(".", 1)[0]
        side[layer] = side.get(layer, 0.0) + (s.end - s.start) - _union(inner)
    return layers


def per_call_cost(calls: int = 20000) -> float:
    """Seconds a traced call adds to an untraced one, measured here."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer._wrap("calibrate", noop, None)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        samples.append((time.perf_counter() - start - bare) / calls)
        tracer.spans.clear()
    return max(0.0, statistics.median(samples))


def layer_metrics(spans: list[Span], wall: float, main: int,
                  call_cost: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds on
    thread ``main``.

    A time a workload can leave at exactly zero (a layer it never calls) is
    given as ``*_frac``, a share of the pass, so that every time reported
    is measured; ``trace.pass_s`` is the base of those shares.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durations(name):
        return [s.end - s.start for s in by_name.get(name, ())]

    def total(name):
        return sum(durations(name))

    def median(name):
        values = durations(name)
        return statistics.median(values) if values else 0.0

    def count(name):
        return len(by_name.get(name, ()))

    sid_thread = {s.sid: s.thread for s in spans}
    solve_s = total("optimizer.solve")
    pool_wait_s = total("optimizer.pool_wait")
    # Work the pool threads did: top spans whose parent ran on another thread.
    pool_busy = sum(s.end - s.start for s in spans
                    if s.parent in sid_thread and sid_thread[s.parent] != s.thread)
    iterations = sum(s.value for s in by_name.get("optimizer.descend", ()))
    evals = count("scores.eval")
    covered = _union([(s.start, s.end) for s in spans
                      if s.thread == main and s.name != REQUEST])
    layered = sum(1 for s in spans if s.name != REQUEST)
    return {
        "trace.pass_s": wall,
        "cli.emit_s": total("cli.emit"),
        "modelfile.parse_s": total("modelfile.parse"),
        "modelfile.parse_bytes": sum(s.value for s in by_name.get("modelfile.parse", ())),
        "linsys.build_s": total("modelfile.build"),
        "linsys.lyapunov_calls": count("linsys.node_gramian"),
        "linsys.lyapunov_frac": total("linsys.node_gramian") / wall,
        "spectral.checks_s": total("spectral.check_feasibility"),
        "spectral.commuting_s": total("spectral.check_commuting"),
        "scores.eval_calls": evals,
        "scores.eval_s": median("scores.eval"),
        "scores.eval_busy_s": total("scores.eval"),
        "simplex.project_calls": count("simplex.project"),
        "simplex.project_s": median("simplex.project"),
        "simplex.project_busy_s": total("simplex.project"),
        "optimizer.iterations": iterations,
        "optimizer.starts": count("optimizer.descend"),
        "optimizer.accept_ratio": iterations / evals if evals else 0.0,
        "optimizer.solve_s": solve_s,
        "optimizer.pool_wait_frac": pool_wait_s / wall,
        "optimizer.thread_busy_ratio": ((solve_s - pool_wait_s + pool_busy) / solve_s
                                        if solve_s else 0.0),
        "optimizer.oracle_frac": total("optimizer.grid_oracle") / wall,
        "energy.min_energy_frac": total("energy.min_energy") / wall,
        "energy.ellipsoid_frac": total("energy.reachable_ellipsoid") / wall,
        "trace.unattributed_frac": max(0.0, wall - covered) / wall,
        "trace.overhead_frac": layered * call_cost / wall,
    }
