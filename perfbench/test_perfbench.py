"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import math
import os
import threading

import numpy as np
import pytest

import checker
import gen
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _texts(workload, seed):
    models, requests = gen.build(workload, seed)
    return [m.text() for m in models.values()], requests


@pytest.mark.parametrize("workload", ["cli-small", "dense-lti", "diagnostics"])
def test_generator_is_deterministic_per_seed(workload):
    texts, requests = _texts(workload, 7)
    again, requests_again = _texts(workload, 7)
    assert texts == again and requests == requests_again
    assert _texts(workload, 8)[0] != texts


def test_generated_text_follows_the_grammar(tmp_path):
    models, _ = gen.build("cli-small", 3)
    total = gen.write(models, str(tmp_path))
    assert total == sum(len(m.text()) for m in models.values())
    lines = (tmp_path / "diag20.csm").read_text().splitlines()
    assert lines[:2] == ["ctrlscore-model v1", "kind spectral_table"]
    word, *labels = lines[2].split()
    assert word == "nodes" and len(set(labels)) == 20 and min(map(int, labels)) >= 1
    assert lines[3] == "table 20 20" and len(lines) == 24


def _report(model, kind, weights, check):
    value = check.derivatives(kind, model, weights)[0]
    return json.dumps({"node_indices": list(model.nodes), "weights": list(weights),
                       "objective": value, "warnings": []})


@pytest.mark.parametrize("kind", ["vcs", "aecs"])
def test_checker_accepts_closed_form_and_rejects_a_perturbation(kind):
    models, requests = gen.build("cli-small", 1)
    request = next(r for r in requests if r.rid == f"diag20-{kind}")
    model = models[request.model]
    check = checker.Checker(models)
    best = checker._closed_form(kind, check._diagonal(model))
    assert check.check(request, 0, _report(model, kind, best, check)).ok
    moved = best.copy()
    moved[0] += 1e-3
    moved[1] -= 1e-3
    verdict = check.check(request, 0, _report(model, kind, moved, check))
    assert not verdict.ok and verdict.distance == pytest.approx(1e-3)
    assert not check.check(request, 1, _report(model, kind, best, check)).ok


@pytest.mark.parametrize("kind", ["vcs", "aecs"])
def test_kkt_distance_is_zero_at_the_optimum_and_sees_a_perturbation(kind):
    models, _ = gen.build("cli-small", 2)
    model = models["diag50"]
    check = checker.Checker(models)
    best = checker._closed_form(kind, check._diagonal(model))
    for scale in (1e-4, 1.0, 1e4):  # the test ignores the objective's units
        _, grad, hess = check.derivatives(kind, model, best)
        assert checker.kkt_distance(best, scale * grad, scale * hess) < 1e-12
    moved = best.copy()
    moved[0] += 1e-3
    moved[1] -= 1e-3
    _, grad, hess = check.derivatives(kind, model, moved)
    assert checker.kkt_distance(moved, grad, hess) > 1e-4


def test_unconverged_report_is_counted_not_failed():
    models, requests = gen.build("cli-small", 1)
    request = next(r for r in requests if r.rid == "heat4-aecs")
    model = models[request.model]
    check = checker.Checker(models)
    moved = checker._closed_form("aecs", check._diagonal(model))
    moved[0] += 1e-3
    moved[1] -= 1e-3
    report = json.loads(_report(model, "aecs", moved, check))
    report["warnings"] = ["solver did not reach grad_tol (residual 1e-3)"]
    verdict = check.check(request, 0, json.dumps(report))
    assert verdict.ok and verdict.converged is False
    report["objective"] *= 1.01
    assert not check.check(request, 0, json.dumps(report)).ok


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_and_units_match_benchmark_json():
    bench = _benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert bench["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def test_every_workload_has_its_reason_recorded():
    workloads = _benchmark()["workloads"]
    assert [w["name"] for w in workloads] == list(gen.WORKLOADS)
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert set(run.EXPECTED_SPANS) == set(gen.WORKLOADS)


def test_threaded_spans_keep_their_parents_and_nonnegative_self_time():
    tracer = spans.Tracer()
    leaf = tracer._wrap("scores.eval", lambda x: sum(range(20000)) + x, None)
    pool_class = tracer._pool_class()

    def solve():
        with pool_class(max_workers=4) as pool:
            return list(pool.map(leaf, range(32)))

    traced_solve = tracer._wrap("optimizer.solve", solve, None)
    with tracer.span(spans.REQUEST, request="r1"):
        traced_solve()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name[spans.REQUEST]
    (outer,) = by_name["optimizer.solve"]
    assert outer.parent == root.sid
    assert all(s.parent == outer.sid and s.request == "r1" for s in by_name["scores.eval"])
    assert len({s.thread for s in by_name["scores.eval"]}) >= 1
    layers = spans.self_times(tracer.spans, threading.get_ident())
    assert all(t >= 0.0 for side in layers.values() for t in side.values())
    assert layers["pool"]["scores"] > 0.0
    metrics = spans.layer_metrics(tracer.spans, root.end - root.start,
                                  threading.get_ident(), 0.0)
    assert metrics["scores.eval_calls"] == 32
    assert metrics["optimizer.pool_wait_frac"] > 0.0
    assert metrics["trace.unattributed_frac"] < 0.5


def test_missing_traced_attribute_fails_loudly():
    class Owner:
        pass

    with pytest.raises(AttributeError, match="no longer exists"):
        spans.Tracer._lookup(Owner, "__call__")


def test_install_wraps_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import ctrlscore.optimizer as optimizer
    import ctrlscore.scores as scores

    original = scores._Objective.__call__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert scores._Objective.__call__ is not original
        assert optimizer.ThreadPoolExecutor is not spans.ThreadPoolExecutor
    finally:
        tracer.uninstall()
    assert scores._Objective.__call__ is original
    assert optimizer.ThreadPoolExecutor is spans.ThreadPoolExecutor


def test_scipy_import_time_counts_outermost_scipy_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        20 |         70 |     scipy",
        "import time:        30 |        300 |   scipy.linalg",
        "import time:        10 |        400 | ctrlscore",
    ])
    assert math.isclose(run.scipy_import_s(log), 300e-6)
    assert run.scipy_import_s("") == 0.0


def test_closed_form_matches_its_definition():
    d = np.array([1.0, 4.0, 9.0])
    assert np.allclose(checker._closed_form("vcs", d), 1.0 / 3.0)
    assert np.allclose(checker._closed_form("aecs", d), np.array([6, 3, 2]) / 11.0)
