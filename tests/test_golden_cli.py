"""Golden CLI outputs: fixed models and flags must give byte-identical output.

``tests/golden_cli.json`` maps each case id to the exit code, stdout and
stderr of ``ctrlscore.cli.main`` on that case.  The cases cover ``score`` in
every output format on a heat model, a diagonal table, a banded
(non-diagonal) table and a random dense system (eight threaded starts), the
lattice grid check, and ``check`` and ``energy`` on spectral and dense
models.  The banded table has a fifth, empty mode, so its score selects
four of five eigenvalues.

The output formats only differ in how one solver result is printed, and a
solve is deterministic (``test_cli.py`` checks that), so each model and
score kind is solved once and the result reused for its other cases; that
keeps the file fast.  To record the file from a given source tree, run

    PYTHONPATH=src python tests/test_golden_cli.py --capture
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from ctrlscore import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

MODELS = {
    "heat4": """\
ctrlscore-model v1
kind heat_dirichlet
nodes 1 2 3 4
n 4
""",
    "diag3": """\
ctrlscore-model v1
kind spectral_table
nodes 1 2 3
n 3
table 3 3
0.5 0 0
0 1.5 0
0 0 2.5
""",
    "banded": """\
ctrlscore-model v1
kind spectral_table
nodes 1 2 3 4
n 4
table 5 4
1.5 0.4 0 0
0.2 1.2 0.4 0
0 0.2 1.0 0.4
0 0 0.2 0.9
0 0 0 0
""",
    "dense5": """\
ctrlscore-model v1
kind dense_lti
nodes 1 2 3 4 5
matrix 5
-2.461 -1.324 -0.248 0.42 1.136
0.11 -2.212 -0.785 0.749 1.635
0.273 -1.233 -2.617 1.6 0.203
-1.732 -0.084 -1.163 -2.288 -0.488
-0.713 0.553 -0.063 -0.589 -1.249
""",
    "dense3": """\
ctrlscore-model v1
kind dense_lti
nodes 1 2 3
matrix 3
-1.376 -1.643 -0.257
-0.981 -2.379 -1.289
0.021 -0.038 -2.51
""",
}


def _cases() -> dict[str, tuple[str, list[str]]]:
    """Case id -> (model name, CLI arguments after the model path)."""
    cases = {}
    for model in ("heat4", "diag3", "banded", "dense5"):
        for kind in ("vcs", "aecs"):
            for fmt in ("table", "csv", "json-lines"):
                cases[f"score-{model}-{kind}-{fmt}"] = (
                    model, ["score", "--kind", kind, "--format", fmt])
    cases["grid-diag3-aecs"] = ("diag3", ["score", "--kind", "aecs",
                                          "--format", "csv", "--grid-check", "0.05"])
    cases["grid-dense3-vcs"] = ("dense3", ["score", "--kind", "vcs",
                                           "--format", "csv", "--grid-check", "0.05"])
    cases["check-banded"] = ("banded", ["check"])
    cases["check-dense5"] = ("dense5", ["check"])
    cases["energy-banded"] = ("banded", ["energy", "--p", "0.4,0.3,0.2,0.1",
                                         "--target", "0.5,-0.25,0.75,0.1,0"])
    cases["energy-dense5"] = ("dense5", ["energy", "--p", "0.1,0.2,0.3,0.25,0.15",
                                         "--target", "1,-0.5,0.25,0,2"])
    return cases


@contextlib.contextmanager
def _solve_once(solved: dict, key):
    """Answer repeated ``cli.solve`` calls for ``key`` with the first result."""
    real = cli.solve

    def solve(*args, **kwargs):
        if key not in solved:
            solved[key] = real(*args, **kwargs)
        return solved[key]

    cli.solve = solve
    try:
        yield
    finally:
        cli.solve = real


def run_case(directory: pathlib.Path, model: str, args: list[str],
             solved: dict) -> dict:
    path = directory / f"{model}.csm"
    path.write_text(MODELS[model])
    argv = [args[0], str(path), *args[1:]]
    out, err = io.StringIO(), io.StringIO()
    kind = args[args.index("--kind") + 1] if "--kind" in args else None
    with (_solve_once(solved, (model, kind)), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def solved() -> dict:
    """Solver results shared by the cases of one model and score kind."""
    return {}


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_output_matches_golden(case, golden, solved, tmp_path):
    model, args = _cases()[case]
    assert run_case(tmp_path, model, args, solved) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_golden_cli.py --capture")
    solved: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        captured = {case: run_case(pathlib.Path(tmp), model, args, solved)
                    for case, (model, args) in sorted(_cases().items())}
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
