"""``scripts/request_outputs.py``: how ``--compare`` classes two runs of one
request, and the top-n checks and ``heat-demo`` requests it runs beside the
workloads' requests."""

import importlib.util
import json
import pathlib

import pytest

from conftest import perfbench_gen

import ctrlscore as cs
from ctrlscore import cli
from ctrlscore.spectral import Nonzeros

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "request_outputs.py"
_spec = importlib.util.spec_from_file_location("request_outputs", SCRIPT)
request_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(request_outputs)

REPORT = {"input_digest": "8b6a86", "iterations": 7, "kkt_residual": 1.1e-15,
          "objective": 107.41876907502856, "uniqueness_certified": False,
          "warnings": ["uniqueness not certified"], "weights": [0.25, 0.75]}
GRID = "grid-check: step=0.05 oracle_objective=107.5 objective_gap=-8.1e-02 agreement=pass\n"


def run(exit_code=0, grid=GRID, stderr="", **changes):
    report = dict(REPORT, **changes)
    return [exit_code, json.dumps(report, sort_keys=True) + "\n" + grid, stderr]


def table(iterations=7, objective="107.418769", kkt="1.110e-15", weight="0.250000"):
    return [0, "kind: aecs   n: 2   nodes: 1 2\nnode  weight\n"
               f"   1  {weight}\n   2  0.750000\nobjective: {objective}\n"
               f"kkt residual: {kkt}\niterations: {iterations}\n", ""]


@pytest.mark.parametrize("new, label", [
    (run(), "identical"),
    (run(weights=[0.25 + 1e-16, 0.75 - 1e-16], iterations=9,
         objective=107.41876907502865, kkt_residual=1.9e-15), "equal"),
    (run(grid=GRID.replace("-8.1e-02", "-8.1000000000001e-02")), "equal"),
    (run(weights=[0.25 + 1e-9, 0.75 - 1e-9]), "different"),
    (run(exit_code=3), "different"),
    (run(stderr="warning: starts disagree\n"), "different"),
    (run(uniqueness_certified=True), "different"),
    (run(warnings=[]), "different"),
    (run(grid=GRID.replace("pass", "FAIL")), "different"),
    (run(input_digest="8b6a87"), "different"),
])
def test_compare_classes_a_request(new, label):
    assert request_outputs._classify(run(), new)[0] == label


@pytest.mark.parametrize("new, label", [
    (table(), "identical"),
    (table(iterations=9, kkt="1.860e-15"), "equal"),
    (table(objective="107.418770"), "different"),
    (table(weight="0.250001"), "different"),
])
def test_compare_classes_a_table_request(new, label):
    assert request_outputs._classify(table(), new)[0] == label


@pytest.mark.parametrize("new, moved", [
    (run(exit_code=3, stderr="warning: starts disagree\n"), ("exit 0 -> 3", "stderr")),
    (run(iterations=9, uniqueness_certified=True), ("uniqueness_certified",)),
    (run(objective=107.5, weights=[0.3, 0.7]), ("objective", "weights")),
    (run(grid=GRID.replace("-8.1e-02", "-9.1e-02")), ("grid-check: step=",)),
    (run(grid=""), ("stdout lines",)),
])
def test_compare_names_what_moved(new, moved):
    assert request_outputs._classify(run(), new) == ("different", moved)


@pytest.mark.parametrize("new, moved", [
    (table(objective="107.418770", iterations=9), ("objective:",)),
    (table(weight="0.250001"), ("1  0.250000 -> 1  0.250001",)),
])
def test_compare_names_the_text_line_that_moved(new, moved):
    assert request_outputs._classify(table(), new) == ("different", moved)


def test_compare_reports_the_largest_changes_and_fails_on_a_difference(tmp_path, capsys):
    old = {"a/0/x": run(), "a/0/y": run(), "a/0/z": run()}
    new = {"a/0/x": run(), "a/0/y": run(weights=[0.25 + 2e-16, 0.75 - 2e-16]),
           "a/0/z": run()}
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, outputs in zip(paths, (old, new)):
        path.write_text(json.dumps(outputs))
    assert request_outputs.main(["--compare", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["equal", "a/0/y", "weights", "2.22e-16", "objective",
                                "0.00e+00", "relative"]
    assert lines[-1] == "2 identical, 1 equal, 0 different, 0 missing (tolerance 1e-12)"
    new["a/0/z"] = run(exit_code=2)
    del new["a/0/x"]
    paths[1].write_text(json.dumps(new))
    assert request_outputs.main(["--compare", *map(str, paths)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "different  a/0/z  moved: exit 0 -> 2"
    assert lines[-1].startswith("0 identical, 1 equal, 1 different, 1 missing")


def test_every_table_and_heat_model_gets_one_top_n_check():
    # Every benchmark request scores the whole spectrum, where the top-n
    # spectrum check returns before it reads a table.
    gen = perfbench_gen()
    models, _ = gen.build("spectral-large", 0)
    checks = dict(request_outputs._top_n_checks(models, "<dir>"))
    assert checks == {
        "heat40-check-n39": ["check", "<dir>/heat40.csm", "--n", "39"],
        "heat200-check-n199": ["check", "<dir>/heat200.csm", "--n", "199"],
        "diag1000-check-n999": ["check", "<dir>/diag1000.csm", "--n", "999"],
        "banded300-check-n299": ["check", "<dir>/banded300.csm", "--n", "299"],
    }
    models, _ = gen.build("diagnostics", 0)
    assert [rid for rid, _ in request_outputs._top_n_checks(models, "<dir>")] == [
        "heat5-check-n4"]


def test_the_heat_demos_reach_both_table_forms():
    # No benchmark request runs the closed form, so these are the only
    # requests whose outputs go through its table reader.
    forms = set()
    for argv in request_outputs.HEAT_DEMOS.values():
        args = cli.build_parser().parse_args(argv)
        for nodes in cli._parse_demo_rows(args.rows):
            model = cs.heat_dirichlet_model(nodes)
            forms.add(isinstance(model.eigen_table, Nonzeros))
    assert request_outputs.HEAT_DEMOS["default"] == ["heat-demo"]
    assert forms == {False, True}
