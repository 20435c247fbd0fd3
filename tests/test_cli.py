import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import dominant_matrix

import ctrlscore
from ctrlscore import cli, errors, linsys, optimizer
from ctrlscore.cli import (
    DEFAULT_DEMO_ROWS,
    RunReport,
    main,
    truncate_toward_zero,
)
from ctrlscore.errors import IndexMismatch, InvalidWeights
from ctrlscore.modelfile import parse_model_text
from ctrlscore.scores import _Objective

HEAT4 = """\
ctrlscore-model v1
kind heat_dirichlet
nodes 1 2 3 4
n 4
"""

UNSTABLE = """\
ctrlscore-model v1
kind dense_lti
nodes 1 2
matrix 2
0 1
-1 0
"""

RANK_DEFICIENT = """\
ctrlscore-model v1
kind spectral_table
nodes 1 2
n 2
table 2 2
1 0
0 0
"""

NON_COMMUTING = """\
ctrlscore-model v1
kind dense_lti
nodes 1 2
matrix 2
-1 1
0 -2
"""

AMBIGUOUS = """\
ctrlscore-model v1
kind spectral_table
nodes 1 2
n 1
table 2 2
1.0 0
0 1.2
"""

SCALAR = """\
ctrlscore-model v1
kind dense_lti
nodes 1
matrix 1
-1
"""

HEAT8 = """\
ctrlscore-model v1
kind heat_dirichlet
nodes 1 2 3 4 5 6 7 8
"""

DENSE5 = """\
ctrlscore-model v1
kind dense_lti
nodes 1 2 3 4 5
matrix 5
-2 1 0 0 0
0 -2 1 0 0
0 0 -2 1 0
0 0 0 -2 1
0 0 0 0 -2
"""

HEAT2 = """\
ctrlscore-model v1
kind heat_dirichlet
nodes 1 2
n 2
"""


#: Nodes 1 and 3 are identical: every (a, 0.5, 0.5 - a) is optimal.  On the
#: 0.05 lattice rounding picks (0.35, 0.5, 0.15), 0.1 from the answer.
TIED = """\
ctrlscore-model v1
kind spectral_table
nodes 1 2 3
n 2
table 2 3
1 2 1
2 1 2
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_truncate_toward_zero():
    assert truncate_toward_zero(0.285714) == 0.28
    assert truncate_toward_zero(0.16666) == 0.16
    assert truncate_toward_zero(0.3) == 0.30
    assert truncate_toward_zero(1.0) == 1.00


def test_score_csv_heat(tmp_path, capsys):
    path = write(tmp_path, "heat4.csm", HEAT4)
    code = main(["score", path, "--kind", "aecs", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "node,weight",
        "1,0.100000",
        "2,0.200000",
        "3,0.300000",
        "4,0.400000",
    ]


def test_score_vcs_uniform(tmp_path, capsys):
    path = write(tmp_path, "heat4.csm", HEAT4)
    code = main(["score", path, "--kind", "vcs", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    weights = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert weights == [0.25, 0.25, 0.25, 0.25]


def test_score_unstable_exits_2(tmp_path, capsys):
    path = write(tmp_path, "unstable.csm", UNSTABLE)
    code = main(["score", path, "--kind", "vcs"])
    err = capsys.readouterr().err
    assert code == 2
    assert "UnstableSystem" in err


def test_score_infeasible_exits_2(tmp_path, capsys):
    path = write(tmp_path, "rankdef.csm", RANK_DEFICIENT)
    code = main(["score", path, "--kind", "aecs"])
    assert code == 2
    assert capsys.readouterr() == ("", (
        "error: infeasible model: no feasible weights: 1 of n = 2 needed table "
        "rows have a positive entry on a node with a positive cap\n"))


def test_score_ambiguous_exits_3_with_report(tmp_path, capsys):
    path = write(tmp_path, "ambiguous.csm", AMBIGUOUS)
    code = main(["score", path, "--kind", "aecs", "--format", "json-lines"])
    captured = capsys.readouterr()
    assert code == 3
    report = RunReport.from_json_line(captured.out.strip())
    assert not report.uniqueness_certified
    assert report.weights  # a result is still emitted


def test_score_parse_error_exits_1(tmp_path, capsys):
    path = write(tmp_path, "bad.csm", "ctrlscore-model v1\nkind nope\n")
    code = main(["score", path, "--kind", "vcs"])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2" in err and "column 6" in err


@pytest.mark.parametrize("text,where", [
    ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2\ntable 2 2\n1 0\n0 nan\n",
     "line 6, column 3"),
    ("ctrlscore-model v1\nkind dense_lti\nnodes 1\nmatrix 1\nnan\n",
     "line 5, column 1"),
])
def test_score_non_finite_entry_exits_1(tmp_path, capsys, text, where):
    path = write(tmp_path, "nonfinite.csm", text)
    code = main(["score", path, "--kind", "vcs"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"parse error: {where}: expected a finite number, got 'nan'\n"


@pytest.mark.parametrize("command", [
    ["score", "--kind", "vcs"],
    ["check"],
    ["energy", "--p", "0.5,0.5", "--target", "1,0"],
])
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.csm"
    path.write_bytes(b"ctrlscore-model v1\nkind heat_dirichlet\nnodes 1 2\xff\n")
    code = main([command[0], str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("parse error: line 3, column 10: "
                            "invalid UTF-8 byte 0xff\n")


def test_score_missing_file_exits_1(capsys):
    code = main(["score", "/no/such/file.csm", "--kind", "vcs"])
    assert code == 1


def test_score_json_lines_round_trip(tmp_path, capsys):
    path = write(tmp_path, "heat4.csm", HEAT4)
    code = main(["score", path, "--kind", "aecs", "--format", "json-lines"])
    line = capsys.readouterr().out.strip()
    assert code == 0
    report = RunReport.from_json_line(line)
    assert report.to_json_line() == line
    import hashlib
    assert report.input_digest == hashlib.sha256(HEAT4.encode()).hexdigest()
    assert abs(sum(report.weights) - 1.0) <= 1e-9
    data = json.loads(line)
    assert data["score_kind"] == "aecs"
    assert data["uniqueness_certified"] is True


def test_score_deterministic_output(tmp_path):
    path = write(tmp_path, "heat4.csm", HEAT4)
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["score", path, "--kind", "aecs", "--format", "csv",
                 "--seed", "9", "--out", out1]) == 0
    assert main(["score", path, "--kind", "aecs", "--format", "csv",
                 "--seed", "9", "--out", out2]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_score_grid_check_line(tmp_path, capsys):
    path = write(tmp_path, "heat2.csm", HEAT2)
    code = main(["score", path, "--kind", "aecs", "--format", "csv",
                 "--grid-check", "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    assert "grid-check:" in out
    assert "agreement=pass" in out


@pytest.mark.parametrize("kind", ["vcs", "aecs"])
def test_score_grid_check_fail_exits_3_after_the_report(tmp_path, capsys, kind):
    path = write(tmp_path, "tied.csm", TIED)
    code = main(["score", path, "--kind", kind, "--grid-check", "0.05"])
    captured = capsys.readouterr()
    assert code == 3
    assert "\n   2  0.500000\n" in captured.out
    assert captured.out.endswith(" weight_distance=1.000e-01 agreement=FAIL\n")
    assert captured.err == ""


@pytest.mark.parametrize("step", ["0", "nan", "inf", "0.03", "-0.5", "1e-300"])
def test_score_bad_grid_step_exits_1_before_the_report(tmp_path, capsys, step):
    path = write(tmp_path, "heat2.csm", HEAT2)
    code = main(["score", path, "--kind", "aecs", "--format", "csv",
                 "--grid-check=" + step])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: grid step")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name, text, step, message", [
    ("heat8.csm", HEAT8, "0.01", "lattice has at least"),
    ("heat4.csm", HEAT4, "0.5", "objective is infinite on the whole lattice"),
], ids=["heat8-lattice-too-large", "heat4-infinite-on-lattice"])
def test_score_grid_check_failure_exits_1_without_a_report(tmp_path, capsys, name,
                                                           text, step, message):
    path = write(tmp_path, name, text)
    code = main(["score", path, "--kind", "aecs", "--format", "csv",
                 "--grid-check", step])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)
    assert captured.err.count("\n") == 1


def test_score_grid_check_over_budget_evaluates_no_point(tmp_path, capsys, monkeypatch):
    def no_evaluation(self, batch):
        raise AssertionError("a lattice point was evaluated")

    monkeypatch.setattr(_Objective, "batch_values", no_evaluation)
    path = write(tmp_path, "heat8.csm", HEAT8)
    code = main(["score", path, "--kind", "aecs", "--grid-check", "0.01"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: lattice has at least ")
    assert captured.err.endswith(" points, budget is 2000000\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name, text", [("heat4.csm", HEAT4), ("dense5.csm", DENSE5)],
                         ids=["heat4", "dense5"])
def test_score_negative_seed_is_a_usage_error(tmp_path, capsys, name, text):
    path = write(tmp_path, name, text)
    with pytest.raises(SystemExit) as info:
        main(["score", path, "--kind", "vcs", "--seed", "-1"])
    assert info.value.code == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["ctrlscore score: error: argument --seed: must be >= 0, got -1"]
    assert main(["score", path, "--kind", "vcs", "--seed", "0"]) == 0


@pytest.mark.parametrize("argv", [["score", "m.csm", "--kind", "bogus"],
                                  ["score", "m.csm"],
                                  ["energy", "m.csm", "--p", "1"]])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["score", "--help"])
    assert info.value.code == 0
    assert "--grid-check" in capsys.readouterr().out


def test_score_dense_noncommuting_succeeds_uncertified(tmp_path, capsys):
    path = write(tmp_path, "noncomm.csm", NON_COMMUTING)
    code = main(["score", path, "--kind", "aecs", "--format", "json-lines"])
    line = capsys.readouterr().out.strip()
    assert code == 0
    report = RunReport.from_json_line(line)
    assert not report.uniqueness_certified
    assert not report.commuting
    assert any("uniqueness not certified" in w for w in report.warnings)
    assert abs(sum(report.weights) - 1.0) <= 1e-9


def test_check_heat_passes(tmp_path, capsys):
    path = write(tmp_path, "heat4.csm", HEAT4)
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "feasible: yes" in out
    assert "commuting: yes" in out
    assert "n-spectrum: yes" in out


def test_check_noncommuting_fails(tmp_path, capsys):
    path = write(tmp_path, "noncomm.csm", NON_COMMUTING)
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 2
    assert "commuting: no" in out
    residual = float(out.split("commuting: no (residual ")[1].split(")")[0])
    assert residual > 0.0


def _in_time_unit(text: str, unit: str) -> str:
    """The non-commuting system with time measured in ``unit``: its Gramians
    scale by ``1 / unit``."""
    scaled = text.replace("-1 1\n0 -2", f"-{unit} {unit}\n0 -2{unit[1:]}")
    assert f"0 -2{unit[1:]}" in scaled
    return scaled


@pytest.mark.parametrize("unit", ["1e-100", "1e-200"])
def test_check_in_slow_time_units_keeps_its_verdict_with_a_finite_residual(tmp_path,
                                                                           capsys, unit):
    # Gramian norms near 1e100 or 1e200 once overflowed the residual to inf
    # or NaN; as a ratio on binary units it is the unit-time residual.
    main(["check", write(tmp_path, "unit.csm", NON_COMMUTING)])
    want = capsys.readouterr().out.splitlines()
    code = main(["check", write(tmp_path, "slow.csm", _in_time_unit(NON_COMMUTING, unit))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    got = captured.out.splitlines()
    assert got[1:3] == want[1:3] and got[5] == want[5]  # nodes, witness, n-spectrum
    assert got[4].startswith("commuting: no (residual ")
    residual = float(got[4].split("residual ")[1].rstrip(")"))
    assert residual == pytest.approx(float(want[4].split("residual ")[1].rstrip(")")),
                                     rel=1e-6)


@pytest.mark.parametrize("kind", ["vcs", "aecs"])
@pytest.mark.parametrize("unit", ["1e-200", "1e-100", "1e-50", "1e50", "1e100", "1e200"])
def test_score_in_any_time_unit_is_right(tmp_path, capsys, unit, kind):
    # Gramian norms near 1/unit.  Past about 1e77 (AECS) or 1e154 (VCS) the
    # score's arithmetic once overflowed (exit 6), and below 1 the absolute
    # positive floor made the model infeasible (exit 2).
    def run(text):
        path = write(tmp_path, "slow.csm", text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["score", path, "--kind", kind, "--format", "json-lines"])
        captured = capsys.readouterr()
        assert not caught
        assert code == 0 and captured.err == ""
        return json.loads(captured.out)

    want = run(NON_COMMUTING)
    got = run(_in_time_unit(NON_COMMUTING, unit))
    np.testing.assert_allclose(got["weights"], want["weights"], rtol=0, atol=1e-9)
    assert got["uniqueness_certified"] == want["uniqueness_certified"]


def _dense_text(dynamics) -> str:
    """A ``dense_lti`` model file with every state of ``dynamics`` a node."""
    d = len(dynamics)
    rows = "".join(" ".join(map(repr, row)) + "\n" for row in dynamics.tolist())
    return (f"ctrlscore-model v1\nkind dense_lti\n"
            f"nodes {' '.join(map(str, range(1, d + 1)))}\nmatrix {d}\n{rows}")


def test_a_dense_system_at_time_unit_1e200_scores_to_its_unit_time_weights(tmp_path,
                                                                          capsys):
    # Its Gramian norms underflowed to 0 in their PSD tolerance: exit 6.
    dynamics = dominant_matrix(np.random.default_rng(0), 30)
    weights = []
    for unit in (1.0, 1e200):
        path = write(tmp_path, "dense.csm", _dense_text(unit * dynamics))
        code = main(["score", path, "--kind", "vcs", "--format", "json-lines"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        weights.append(json.loads(captured.out)["weights"])
    np.testing.assert_allclose(weights[1], weights[0], rtol=0, atol=1e-9)


def test_check_rank_deficient_feasibility_fails(tmp_path, capsys):
    path = write(tmp_path, "rankdef.csm", RANK_DEFICIENT)
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 2
    assert "feasible: no (1 of n = 2 needed table rows" in out
    assert "\nmu_n at the central point: 0.000000e+00\n" in out
    assert "n-spectrum: yes" in out


#: States 1, 3 and 5 form one dense block of the dynamics, and 2, 4 and 6
#: the other, so nodes 1, 3 and 5 reach only three of the six states: W(p)
#: has rank 3, and its three smallest eigenvalues round to within 1e-17 of
#: zero, under the rank test's 6 eps mu_1 = 1.4e-16.
BLOCKS = """\
ctrlscore-model v1
kind dense_lti
nodes 1 3 5
n {n}
matrix 6
-2 0 0.5 0 0.3 0
0 -1.5 0 0.3 0 0.1
0.4 0 -3 0 0.6 0
0 0.2 0 -2 0 0.4
0.2 0 0.7 0 -2.5 0
0 0.5 0 0.1 0 -3
"""


@pytest.mark.parametrize("kind", ["vcs", "aecs"])
def test_nodes_that_reach_r_of_d_states_are_feasible_at_n_r_only(tmp_path, capsys,
                                                                 kind):
    energy = ["--p", "0.4,0.3,0.3", "--target", "1,0,0,0,0,0"]
    path = write(tmp_path, "blocks.csm", BLOCKS.format(n=6))
    assert main(["score", path, "--kind", kind]) == 2
    assert re.fullmatch(
        r"error: infeasible model: no feasible weights: mu_6 = \S+ at the central "
        r"point is not above d eps mu_1 = 6 \* 2\.220e-16 \* 1\.075e-01 "
        r"= 1\.432e-16\n", capsys.readouterr().err)
    assert main(["energy", path, *energy]) == 2
    assert re.fullmatch(
        r"error: mu_6 = \S+ at these weights is not above d eps mu_1 = "
        r"6 \* 2\.220e-16 \* 1\.172e-01 = 1\.561e-16\n", capsys.readouterr().err)
    family = parse_model_text(BLOCKS.format(n=6)).build()
    with pytest.raises(errors.RankDeficient):
        ctrlscore.min_energy(family, [0.4, 0.3, 0.3], [1, 0, 0, 0, 0, 0])
    path = write(tmp_path, "blocks.csm", BLOCKS.format(n=3))
    assert main(["score", path, "--kind", kind]) == 0
    assert main(["energy", path, *energy]) == 0


def test_heat_demo_default_rows(capsys):
    code = main(["heat-demo"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "I={1,2,3,4}  AECS=(0.10, 0.20, 0.30, 0.40)  VCS=(0.25, 0.25, 0.25, 0.25)",
        "I={1,2,3,5}  AECS=(0.09, 0.18, 0.27, 0.45)  VCS=(0.25, 0.25, 0.25, 0.25)",
        "I={1,2,3,6}  AECS=(0.08, 0.16, 0.25, 0.50)  VCS=(0.25, 0.25, 0.25, 0.25)",
        "I={2,3,4,5}  AECS=(0.14, 0.21, 0.28, 0.35)  VCS=(0.25, 0.25, 0.25, 0.25)",
        "I={2,3,4,6}  AECS=(0.13, 0.20, 0.26, 0.40)  VCS=(0.25, 0.25, 0.25, 0.25)",
        "I={3,4,5,6}  AECS=(0.16, 0.22, 0.27, 0.33)  VCS=(0.25, 0.25, 0.25, 0.25)",
    ]
    assert len(DEFAULT_DEMO_ROWS.split(";")) == 6


def test_heat_demo_custom_rows(capsys):
    assert main(["heat-demo", "--rows", "1,2,3,6"]) == 0
    out = capsys.readouterr().out
    assert "AECS=(0.08, 0.16, 0.25, 0.50)" in out

    assert main(["heat-demo", "--rows", "7"]) == 0
    out = capsys.readouterr().out
    assert "I={7}  AECS=(1.00)  VCS=(1.00)" in out


def test_heat_demo_bad_rows(capsys):
    assert main(["heat-demo", "--rows", "1,0,3"]) == 1
    assert main(["heat-demo", "--rows", "a,b"]) == 1
    assert main(["heat-demo", "--rows", ";"]) == 1


def test_energy_scalar(tmp_path, capsys):
    path = write(tmp_path, "scalar.csm", SCALAR)
    code = main(["energy", path, "--p", "1", "--target", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "energy 2.000000"


def test_energy_heat_mode(tmp_path, capsys):
    path = write(tmp_path, "heat2.csm", HEAT2)
    code = main(["energy", path, "--p", "0.5,0.5", "--target", "1,0"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.splitlines()[0].split()[1])
    assert value == pytest.approx(4.0 * math.pi**2, abs=1e-6)
    assert value == pytest.approx(39.478418, abs=1e-6)


def test_energy_target_outside_span_exits_4(tmp_path, capsys):
    # weights concentrated on node 1 leave rank 1; aim orthogonally with n=1
    dense = """\
ctrlscore-model v1
kind dense_lti
nodes 1 2
n 1
matrix 2
-1 0
0 -2
"""
    path = write(tmp_path, "rank1.csm", dense)
    code = main(["energy", path, "--p", "1,0", "--target", "0,1", "--n", "1"])
    assert code == 4


def test_energy_bad_weight_sum(tmp_path, capsys):
    path = write(tmp_path, "heat2.csm", HEAT2)
    code = main(["energy", path, "--p", "0.4,0.4", "--target", "1,0"])
    assert code == 1


@pytest.mark.parametrize("text", [NON_COMMUTING, HEAT2], ids=["dense_lti", "heat"])
def test_energy_wrong_weight_count_same_error(tmp_path, capsys, text):
    path = write(tmp_path, "m.csm", text)
    code = main(["energy", path, "--p", "0.5,0.3,0.2", "--target", "1,1"])
    assert code == 1
    assert capsys.readouterr().err == "error: expected 2 weights, got 3\n"


TABLE2 = """\
ctrlscore-model v1
kind spectral_table
nodes 1 2
n 2
table 2 2
1 0
0 2
"""

NON_NORMAL3 = """\
ctrlscore-model v1
kind dense_lti
nodes 1 2 3
matrix 3
-1 5 0
0 -2 7
0 0 -3
"""

# Runs in a fresh interpreter: this test process has scipy loaded already.
COLD_START = """\
import contextlib, io, json, sys

def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)

heat, table, dense = sys.argv[1:]
seen = {}
import ctrlscore
seen["import ctrlscore"] = scipy_loaded()
seen["numpy after import ctrlscore"] = "numpy" in sys.modules
from ctrlscore import cli
seen["import ctrlscore.cli"] = scipy_loaded()
# A certified solve runs one start and draws no random numbers.
for label, argv in (("score heat", ["score", heat, "--kind", "vcs"]),
                    ("check table", ["check", table])):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[label] = (cli.main(argv), scipy_loaded(), "numpy.random" in sys.modules)
# A family of closed-form Gramians has no dynamics to factor.
import numpy as np
modes = np.arange(1, 6)
grams = np.einsum("ki,kj->kij", np.eye(5), np.eye(5)) / (2 * np.pi**2 * modes**2)[:, None, None]
result = ctrlscore.solve(ctrlscore.ObjectiveKind.AECS,
                         ctrlscore.NodeGramianFamily(tuple(modes), grams))
seen["solve Gramian family"] = (result.converged and result.uniqueness_certified,
                                scipy_loaded())
with contextlib.redirect_stdout(io.StringIO()):
    seen["score dense"] = (cli.main(["score", dense, "--kind", "vcs"]), scipy_loaded())
print(json.dumps(seen))
"""


def test_heat_and_table_requests_never_load_scipy(tmp_path):
    paths = [write(tmp_path, name, text) for name, text in
             (("heat4.csm", HEAT4), ("table2.csm", TABLE2), ("dense5.csm", DENSE5))]
    src = os.path.dirname(os.path.dirname(ctrlscore.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", COLD_START, *paths], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(run.stdout) == {
        "import ctrlscore": False,
        "numpy after import ctrlscore": False,
        "import ctrlscore.cli": False,
        "score heat": [0, False, False],
        "check table": [0, False, False],
        "solve Gramian family": [True, False],
        # The positive control: a dense system needs the Schur factor.
        "score dense": [0, True],
    }


TABLE3 = """\
ctrlscore-model v1
kind spectral_table
nodes 1 2 3
table 3 3
1 0.2 0
0.1 1 0.3
0 0.2 2
"""

#: Files without ``n``: (text, mode count, ``--p``, ``--target``).
ORDER_FILES = {
    "heat": (HEAT4.replace("n 4\n", ""), 4, "0.25,0.25,0.25,0.25", "1,0,0,0"),
    "table": (TABLE3, 3, "0.3,0.3,0.4", "0,0,1"),
    "dense": (DENSE5, 5, "0.2,0.2,0.2,0.2,0.2", "0,0,0,0,0"),
}


def _order_commands(path, weights, target):
    return {"score": ["score", path, "--kind", "vcs", "--format", "json-lines"],
            "check": ["check", path],
            "energy": ["energy", path, "--p", weights, "--target", target]}


@pytest.mark.parametrize("kind", ORDER_FILES)
def test_n_flag_and_file_n_give_the_same_output(tmp_path, capsys, kind):
    # The flag and the file both set the order through ModelFile.build, on
    # every model kind; only the digest of the file differs.
    text, modes, weights, target = ORDER_FILES[kind]
    flagged = write(tmp_path, "flagged.csm", text)
    in_file = write(tmp_path, "in_file.csm", text.replace("\nnodes", "\nn 2\nnodes"))
    for command, argv in _order_commands(flagged, weights, target).items():
        runs = []
        for extra, path in ((["--n", "2"], flagged), ([], in_file)):
            code = main([argv[0], path, *argv[2:], *extra])
            captured = capsys.readouterr()
            out = re.sub(r'"input_digest":"[0-9a-f]+",|digest [0-9a-f]+', "", captured.out)
            runs.append((code, out, captured.err))
        assert runs[0] == runs[1]
        assert command != "score" or json.loads(runs[0][1])["score_order"] == 2
        assert command != "check" or "n=2)" in runs[0][1]
    for argv in _order_commands(flagged, weights, target).values():
        assert main([*argv, "--n", "99"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: score order 99 out of range 1..{modes}\n")


def test_out_of_range_n_on_a_dense_file_fails_before_any_lyapunov_solve(
        tmp_path, capsys, monkeypatch):
    calls = []
    solve = linsys.node_gramian

    def counted(system, node):
        calls.append(node)
        return solve(system, node)

    monkeypatch.setattr(linsys, "node_gramian", counted)
    path = write(tmp_path, "dense5.csm", DENSE5)
    assert main(["check", path, "--n", "99"]) == 1
    assert capsys.readouterr() == ("", "error: score order 99 out of range 1..5\n")
    assert calls == []
    main(["check", path, "--n", "5"])  # the positive control: one solve per node
    assert calls == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("argv, subject", [
    (["score", "--kind", "vcs"], "node 2"),
    (["check"], "node 2"),
    (["energy", "--p", "0.2,0.3,0.5", "--target", "1,0,0"], "W(p)"),
], ids=["score", "check", "energy"])
def test_lyapunov_failure_is_a_numerical_failure(tmp_path, capsys, monkeypatch,
                                                 argv, subject):
    # With no tolerance any rounding in the residual fails the check.
    monkeypatch.setattr(linsys, "DEFAULT_TOL", 0.0)
    path = write(tmp_path, "nonnormal.csm", NON_NORMAL3)
    code = main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERICAL == 6
    assert captured.out == ""
    assert captured.err.startswith("error: Lyapunov residual ")
    assert captured.err.endswith(f" exceeds tolerance for {subject}\n")


def test_a_gramian_that_fails_its_check_is_a_numerical_failure(tmp_path, capsys,
                                                               monkeypatch):
    solve = linsys.node_gramian

    def not_finite(system, node):
        gram = solve(system, node)
        gram[0, 0] = math.nan if node == 2 else gram[0, 0]
        return gram

    monkeypatch.setattr(linsys, "node_gramian", not_finite)
    path = write(tmp_path, "dense5.csm", DENSE5)
    assert main(["score", path, "--kind", "aecs"]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr() == ("", "error: Gramian for node 2 is not finite\n")


def _two_mode_table(first: str, second: str) -> str:
    return ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2\ntable 2 2\n"
            f"{first} 0\n0 {second}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("first, second, kind", [
    ("1", "1e-160", "aecs"),
    ("1", "1e-310", "vcs"),
    ("1", "1e-310", "aecs"),
    ("1e30", "1e-290", "vcs"),
    ("1e30", "1e-290", "aecs"),
    ("1e300", "1e-300", "vcs"),
    ("1e300", "1e-300", "aecs"),
])
def test_a_table_beyond_the_double_range_is_a_numerical_failure(tmp_path, capsys,
                                                                first, second, kind):
    # Each is feasible, but in the unit of its largest entry 1 / s(mu_2)
    # overflows or mu_2 flushes to zero.  These once exited 1 with "point
    # must be finite" or 2 with "no start produced a finite objective value",
    # after RuntimeWarnings.
    path = write(tmp_path, "range.csm", _two_mode_table(first, second))
    assert main(["score", path, "--kind", kind]) == cli.EXIT_NUMERICAL
    mu_2, mu_1 = float(second) / 2, float(first) / 2
    assert capsys.readouterr() == ("", (
        f"error: the {kind} score is not finite in double precision at the "
        f"central point, where mu_2 = {mu_2:.3e} and mu_1 = {mu_1:.3e}\n"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_table_inside_the_double_range_still_scores(tmp_path, capsys):
    path = write(tmp_path, "range.csm", _two_mode_table("1", "1e-160"))
    assert main(["score", path, "--kind", "vcs", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "node,weight\n1,0.500000\n2,0.500000\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_aecs_table_whose_hessian_underflows_still_scores(tmp_path, capsys):
    # mu_2^4 underflows at the central point; the Hessian once warned there.
    path = write(tmp_path, "range.csm", _two_mode_table("1", "1e-80"))
    assert main(["score", path, "--kind", "aecs", "--format", "csv"]) == 0
    assert capsys.readouterr() == ("node,weight\n1,0.000000\n2,1.000000\n", "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_score_that_overflows_in_the_files_units_is_a_numerical_failure(tmp_path,
                                                                          capsys):
    path = write(tmp_path, "range.csm", (
        "ctrlscore-model v1\nkind spectral_table\nnodes 1 2 3\ntable 3 3\n"
        "1e-309 0 0\n0 2e-309 0\n0 0 3e-309\n"))
    assert main(["score", path, "--kind", "aecs"]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr() == ("", (
        "error: the aecs score is not finite in double precision at the optimum, "
        "where mu_3 = 4.377e-310 and mu_1 = 7.582e-310\n"))


def test_an_unconverged_score_exits_5_with_its_report(tmp_path, capsys, monkeypatch):
    # Caps below 1 take the descent without multiplicative steps, one of
    # which would reach this optimum.
    path = write(tmp_path, "heat4.csm", HEAT4 + "caps 0.9 0.9 0.9 0.9\n")
    monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
    code = main(["score", path, "--kind", "aecs", "--format", "json-lines"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_UNCONVERGED == 5
    report = RunReport.from_json_line(captured.out.strip())
    assert report.uniqueness_certified and report.iterations == 1
    assert any(w.startswith("solver did not reach grad_tol") for w in report.warnings)
    assert captured.err == ""
    # The positive control: the same request converges and exits 0.
    monkeypatch.undo()
    assert main(["score", path, "--kind", "aecs", "--format", "json-lines"]) == 0


def test_unconverged_wins_over_ambiguous(tmp_path, capsys, monkeypatch):
    # A dense family that does not commute runs eight starts; after one
    # step none has converged, and their values still disagree.
    path = write(tmp_path, "noncomm.csm", NON_COMMUTING)
    monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
    code = main(["score", path, "--kind", "aecs", "--format", "json-lines"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_UNCONVERGED
    assert captured.err.startswith("warning: starts disagree on the optimal value")
    report = RunReport.from_json_line(captured.out.strip())
    assert any(w.startswith("solver did not reach grad_tol") for w in report.warnings)


def test_a_dense_energy_request_makes_one_lyapunov_solve(tmp_path, capsys, monkeypatch):
    calls = []
    solve = linsys._solve_lyapunov

    def counted(system, weighting, subject):
        calls.append((weighting.copy(), subject))
        return solve(system, weighting, subject)

    monkeypatch.setattr(linsys, "_solve_lyapunov", counted)
    # Node 5 reaches every state of the chain, so W(p) has full rank.
    path = write(tmp_path, "dense5.csm", DENSE5.replace("nodes 1 2 3 4 5",
                                                        "nodes 2 5"))
    code = main(["energy", path, "--p", "0.25,0.75", "--target", "1,-1,2,0.5,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(calls) == 1
    weighting, subject = calls[0]
    assert subject == "W(p)"
    assert weighting.tolist() == [0.0, 0.25, 0.0, 0.0, 0.75]
    # The same request on the node Gramians prints the same figures.
    system = linsys.check_stability(np.diag([-2.0] * 5) + np.eye(5, k=1))
    family = linsys.gramian_family(system, (2, 5))
    energy = ctrlscore.min_energy(family, [0.25, 0.75], [1, -1, 2, 0.5, 1])
    assert out.splitlines()[0] == f"energy {energy:.6f}"


@pytest.mark.parametrize("text, argv, code", [
    (DENSE5, ["--p", "0.1,0.2,0.3,0.25,0.15", "--target", "1,-0.5,0.25,0,2"], 0),
    (NON_COMMUTING, ["--p", "1,0", "--target", "0,1", "--n", "1"], 4),
    (NON_COMMUTING, ["--p", "1,0", "--target", "0,1"], 2),
], ids=["ok", "outside-span", "rank-deficient"])
def test_a_dense_energy_request_decomposes_w_of_p_once(tmp_path, capsys, monkeypatch,
                                                        text, argv, code):
    calls = []
    eigenpairs = linsys.NodeGramianFamily.eigenpairs
    monkeypatch.setattr(linsys.NodeGramianFamily, "eigenpairs",
                        lambda family, weights: calls.append(weights) or
                        eigenpairs(family, weights))
    path = write(tmp_path, "m.csm", text)
    assert main(["energy", path, *argv]) == code
    capsys.readouterr()
    assert len(calls) == 1


DENSE2_CAPS = NON_COMMUTING.replace("matrix 2", "caps 0.6 0.6\nmatrix 2")


@pytest.mark.parametrize("text, argv, code, solves, message", [
    (DENSE5, ["--p", "0.2,0.2,0.2,0.2,0.2", "--target", "1,0,0,0,0", "--n", "99"], 1, 0,
     r"error: score order 99 out of range 1\.\.5"),
    (UNSTABLE, ["--p", "0.4,0.4", "--target", "1,0", "--n", "99"], 2, 0,
     r"error: UnstableSystem: spectral abscissa 0 >= 0"),
    (DENSE5, ["--p", "0.4,0.4", "--target", "1,0,0,0,0"], 1, 0,
     r"error: weights sum to 0\.8, expected 1"),
    (DENSE5, ["--p=", "--target=1,0,0,0,0"], 1, 0, r"error: --p is empty"),
    (DENSE5, ["--p=0.5,half", "--target=1"], 1, 0,
     r"error: --p must be a comma-separated list of numbers"),
    (DENSE5, ["--p=0.2,0.2,0.2,0.2,0.2", "--target= , "], 1, 0,
     r"error: --target is empty"),
    (DENSE5, ["--p=0.2,0.2,0.2,0.2,0.2", "--target=1,x"], 1, 0,
     r"error: --target must be a comma-separated list of numbers"),
    (NON_COMMUTING, ["--p", "0.5,0.3,0.2", "--target", "1,1"], 1, 0,
     r"error: expected 2 weights, got 3"),
    (DENSE2_CAPS, ["--p", "0.5,0.3,0.2", "--target", "1,1"], 1, 0,
     r"error: caps length 2 != node count 3"),
    (DENSE2_CAPS, ["--p", "0.9,0.1", "--target", "1,1"], 1, 0,
     r"error: weights violate 0 <= p_i <= a_i"),
    (NON_COMMUTING, ["--p", "1,0", "--target", "0,1", "--n", "1"], 4, 1,
     r"error: target leaves the top-1 span \(residual \S+ > 1e-08 \* \|\|x_f\|\|\)"),
    (NON_COMMUTING, ["--p", "1,0", "--target", "0,1"], 2, 1,
     r"error: mu_2 = \S+ at these weights is not above d eps mu_1 = "
     r"2 \* 2\.220e-16 \* \S+ = \S+"),
], ids=["bad-n", "unstable", "weight-sum", "p-empty", "p-word", "target-empty",
        "target-word", "weight-count", "caps-count", "caps-bound", "outside-span",
        "rank-deficient"])
def test_dense_energy_errors_keep_their_messages_and_exit_codes(
        tmp_path, capsys, monkeypatch, text, argv, code, solves, message):
    # Input errors are found before the one Lyapunov solve, in the order
    # they were found when energy solved one equation per node.
    calls = []
    solve = linsys._solve_lyapunov
    monkeypatch.setattr(linsys, "_solve_lyapunov",
                        lambda *args: calls.append(args) or solve(*args))
    path = write(tmp_path, "m.csm", text)
    assert main(["energy", path, *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(message + "\n", captured.err)
    assert len(calls) == solves


#: Starts the CLI the way ``LAUNCH`` says, on this script's arguments, in a
#: fresh interpreter; then prints the thread count of each loaded OpenBLAS
#: copy by the directory that holds it (``numpy.libs``, ``scipy.libs``),
#: whether scipy loaded, the process's thread count and
#: ``OPENBLAS_NUM_THREADS``.  The counts are read through each library's
#: ``*_get_num_threads*`` call, found from ``/proc/self/maps``.
BLAS_COLD_START = """\
import contextlib, ctypes, io, json, os, re, runpy, sys
sys.argv = ["ctrlscore", *sys.argv[1:]]
try:
    with contextlib.redirect_stdout(io.StringIO()):
        LAUNCH
except SystemExit as exc:
    code = exc.code

def blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return {}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get_threads = getattr(lib, name, None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                counts[os.path.basename(os.path.dirname(path))] = get_threads()
                break
    return counts

try:
    with open("/proc/self/status", encoding="ascii") as status:
        threads = int(re.search(r"^Threads:\\s*(\\d+)", status.read(), re.M).group(1))
except OSError:
    threads = None
print(json.dumps({"exit": code, "blas": blas_threads(), "scipy": "scipy" in sys.modules,
                  "threads": threads, "env": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""

#: Commuting node Gramians: the solve is certified and runs its one start on
#: the main thread, so no pool thread is alive to count.
DIAGONAL_DENSE = """\
ctrlscore-model v1
kind dense_lti
nodes 1 2
matrix 2
-1 0
0 -2
"""


def _script_launch():
    """The line the installed ``ctrlscore`` script runs, from pyproject."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    module, func = tomllib.loads(pyproject.read_text())["project"]["scripts"][
        "ctrlscore"].split(":")
    return f"from {module} import {func}; sys.exit({func}())"


def _cold_start(line, argv, blas_env):
    """Run ``BLAS_COLD_START`` with ``line`` as its launch, the BLAS thread
    variables removed and ``blas_env`` added; return what it printed."""
    src = os.path.dirname(os.path.dirname(ctrlscore.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(blas_env, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", BLAS_COLD_START.replace("LAUNCH", line), *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(run.stdout)
    if not seen["blas"]:
        pytest.skip("no OpenBLAS found in /proc/self/maps here")
    return seen


def _scipy_bundles_openblas():
    """Whether scipy ships its own OpenBLAS copy (as its wheels do)."""
    site = Path(importlib.util.find_spec("scipy").origin).parents[1]
    return any((site / "scipy.libs").glob("*openblas*"))


def _assert_one_blas_thread(seen, command):
    assert (seen["exit"], seen["scipy"]) == (0, command == "score dense")
    assert set(seen["blas"].values()) == {1}
    if command == "score dense" and _scipy_bundles_openblas():
        assert seen["blas"]["scipy.libs"] == 1
    if sys.platform.startswith("linux"):
        assert seen["threads"] == 1


def _argv(tmp_path, command):
    return (["heat-demo"] if command == "heat-demo" else
            ["score", write(tmp_path, "diag2.csm", DIAGONAL_DENSE), "--kind", "vcs"])


PYTHON_M = 'runpy.run_module("ctrlscore", run_name="__main__")'


@pytest.mark.parametrize("launch", ["python -m", "script"])
@pytest.mark.parametrize("command", ["heat-demo", "score dense"])
def test_a_cold_cli_process_starts_no_blas_thread(tmp_path, launch, command):
    # OpenBLAS sizes its thread pool when it loads, so a count set after
    # that leaves its spinning worker behind.  A dense model also loads
    # scipy's own OpenBLAS copy, which must start on one thread too.
    line = PYTHON_M if launch == "python -m" else _script_launch()
    _assert_one_blas_thread(_cold_start(line, _argv(tmp_path, command), {}), command)


@pytest.mark.parametrize("command", ["heat-demo", "score dense"])
def test_an_in_process_caller_that_imports_the_cli_first_runs_one_blas_thread(
        tmp_path, command):
    # The benchmark worker's shape: the package first, which loads no numpy,
    # then the CLI, whose import sets the default before numpy loads.
    line = "import ctrlscore; from ctrlscore.cli import main; sys.exit(main(sys.argv[1:]))"
    _assert_one_blas_thread(_cold_start(line, _argv(tmp_path, command), {}), command)


def test_a_cold_cli_process_keeps_a_blas_thread_count_the_user_set(tmp_path):
    # The variable is a default: a count in the environment reaches both
    # OpenBLAS copies as it would without the CLI (which caps it at the CPU
    # count).
    user = {"OPENBLAS_NUM_THREADS": "2"}
    plain = _cold_start("import scipy.linalg; sys.exit(0)", [], user)
    seen = _cold_start(PYTHON_M, _argv(tmp_path, "score dense"), user)
    assert (seen["exit"], seen["env"], seen["blas"]) == (0, "2", plain["blas"])


@pytest.mark.parametrize("command", ["heat-demo", "score dense"])
def test_a_process_that_loaded_numpy_first_keeps_its_numpy_blas(tmp_path, command):
    # The default is set when the CLI is imported, too late for a numpy that
    # is loaded already: its copy keeps the count it started with.  A copy
    # that loads after the import (scipy's, for a dense model) gets the
    # default.
    plain = _cold_start("import numpy; sys.exit(0)", [], {})
    line = "import numpy; from ctrlscore.cli import main; sys.exit(main(sys.argv[1:]))"
    seen = _cold_start(line, _argv(tmp_path, command), {})
    assert (seen["exit"], seen["env"]) == (0, "1")
    assert seen["blas"]["numpy.libs"] == plain["blas"]["numpy.libs"]
    if command == "score dense" and _scipy_bundles_openblas():
        assert seen["blas"]["scipy.libs"] == 1


#: Runs ``LAUNCH`` in a fresh interpreter and prints ``OPENBLAS_NUM_THREADS``
#: as it read when numpy was first imported, and the exit status, if any.
NUMPY_LOAD_WATCH = """\
import contextlib, io, json, os, runpy, sys
seen = {}
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and "numpy" not in seen:
            seen["numpy"] = os.environ.get("OPENBLAS_NUM_THREADS")
sys.meta_path.insert(0, Watch())
sys.argv = ["ctrlscore", "heat-demo"]
try:
    with contextlib.redirect_stdout(io.StringIO()):
        LAUNCH
except SystemExit as exc:
    seen["exit"] = exc.code
print(json.dumps(seen))
"""


@pytest.mark.parametrize("launch", ["python -m", "import cli"])
@pytest.mark.parametrize("user", [None, "3"], ids=["unset", "user-set"])
def test_the_cli_sets_its_default_before_numpy_loads(launch, user):
    # OpenBLAS reads the variable once, as numpy loads it, so the default
    # must already be in place then; a value the user set stays.
    line = ('runpy.run_module("ctrlscore", run_name="__main__")' if launch == "python -m"
            else "import ctrlscore.cli")
    src = os.path.dirname(os.path.dirname(ctrlscore.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update({"OPENBLAS_NUM_THREADS": user} if user else {}, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", NUMPY_LOAD_WATCH.replace("LAUNCH", line)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(run.stdout)
    assert seen.pop("exit", 0) == 0
    assert seen == {"numpy": user or "1"}


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["heat-demo", "score"])
def test_a_closed_stdout_ends_the_command_quietly(tmp_path, buffered, command):
    # The read end is closed before the child starts, so the child's first
    # write fails (unbuffered) or its last flush does (buffered), always.
    argv = (["heat-demo"] if command == "heat-demo" else
            ["score", write(tmp_path, "heat4.csm", HEAT4), "--kind", "vcs"])
    src = os.path.dirname(os.path.dirname(ctrlscore.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONPATH": src} if buffered else
               {"PYTHONPATH": src, "PYTHONUNBUFFERED": "1"})
    reader, writer = os.pipe()
    os.close(reader)
    try:
        run = subprocess.run([sys.executable, "-m", "ctrlscore", *argv], stdout=writer,
                             stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(writer)
    assert (run.returncode, run.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


def _diagonal_heat_table(scale: float) -> str:
    """Heat modes 1..4 as a diagonal table, every entry times ``scale``."""
    rows = ["  ".join(repr(scale / (2 * math.pi**2 * k**2)) if j == k else "0"
                      for j in range(1, 5)) for k in range(1, 5)]
    return ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2 3 4\nn 4\ntable 4 4\n"
            + "\n".join(rows) + "\n")


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
def test_grid_check_verdict_does_not_depend_on_units(tmp_path, capsys, scale):
    # The AECS optimum (0.1, 0.2, 0.3, 0.4) is a lattice point, so the whole
    # gap to the oracle is rounding, however large the objective's unit.
    path = write(tmp_path, "diag4.csm", _diagonal_heat_table(scale))
    code = main(["score", path, "--kind", "aecs", "--format", "csv",
                 "--grid-check", "0.05"])
    out = capsys.readouterr().out
    assert out.splitlines()[1:5] == ["1,0.100000", "2,0.200000", "3,0.300000",
                                     "4,0.400000"]
    assert out.splitlines()[-1].endswith("agreement=pass")
    assert code == 0


#: Model-file consistency errors, each with the line and column it names.
CONSISTENCY_ERRORS = [
    ("kind heat_dirichlet\nnodes 1 2\n  caps\n", 4, 3, "caps needs at least one value"),
    ("kind dense_lti\nnodes 1\nmatrix 1 1\n-1\n", 4, 1,
     "matrix takes one dimension argument"),
    ("kind dense_lti\nnodes 1\nmatrix  0\n", 4, 9, "matrix dimension must be >= 1"),
    ("kind spectral_table\nnodes 1\ntable 0 1\n", 4, 7, "table dimensions must be >= 1"),
    ("kind spectral_table\nnodes 1\ntable 3 0\n", 4, 9, "table dimensions must be >= 1"),
    ("kind heat_dirichlet\nn 1\n", 1, 1, "missing 'nodes' statement"),
    ("kind dense_lti\nnodes 1\nmatrix 1\n-1\n table 1 1\n1\n", 6, 2,
     "dense_lti cannot carry a 'table' block"),
    ("kind dense_lti\n  nodes 1 3\nmatrix 2\n-1 0\n0 -2\n", 3, 3,
     "node indices must be <= matrix dimension 2"),
    ("kind spectral_table\nnodes 1\ntable 1 1\n1\n  matrix 1\n-1\n", 6, 3,
     "spectral_table cannot carry a 'matrix' block"),
    ("kind spectral_table\nnodes 1 2\n\n table 1 1\n1\n", 5, 2,
     "table has 1 columns but 2 nodes"),
    ("  kind heat_dirichlet\nnodes 1\ntable 1 1\n1\n", 2, 3,
     "heat_dirichlet carries no matrix or table payload"),
]


def _message_ids(cases):
    """Each case's message as its id, with its column where an earlier case
    has the same message."""
    messages = [case[3] for case in cases]
    return [message if messages.index(message) == at else f"{message} at column {column}"
            for at, (_, _, column, message) in enumerate(cases)]


@pytest.mark.parametrize("body, line, column, message", CONSISTENCY_ERRORS,
                         ids=_message_ids(CONSISTENCY_ERRORS))
def test_model_file_consistency_errors_name_their_statement(tmp_path, capsys, body,
                                                            line, column, message):
    path = write(tmp_path, "m.csm", "ctrlscore-model v1\n" + body)
    assert main(["check", path]) == 1
    assert capsys.readouterr() == (
        "", f"parse error: line {line}, column {column}: {message}\n")


def test_bad_energy_vectors_raise_the_library_classes_for_them():
    with pytest.raises(InvalidWeights, match="^--p is empty$"):
        cli._parse_float_list(" , ", "--p")
    with pytest.raises(IndexMismatch, match="^--target must be a comma-separated"):
        cli._parse_float_list("1,x", "--target")


def test_a_non_finite_dynamics_matrix_is_an_unstable_system(monkeypatch, capsys):
    # A model file cannot carry nan (the parser rejects it where it stands),
    # so the command is replaced by one that hands it to the library.
    def check_nan(args):
        linsys.check_stability([[math.nan]])

    monkeypatch.setattr(cli, "_cmd_check", check_nan)
    assert main(["check", "unused.csm"]) == 2
    assert capsys.readouterr() == ("", "error: dynamics matrix has non-finite entries\n")


#: The documented exit code of each failure class whose code is not 1.
EXIT_CODES = {
    errors.UnstableSystem: 2,
    errors.RankDeficient: 2,
    errors.TargetOutsideSpan: 4,
    errors.LyapunovSolveFailure: 6,
    errors.EigenFailure: 6,
    errors.BeyondDoubleRange: 6,
}
FAILURES = [value for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, errors.CtrlscoreError)]


@pytest.mark.parametrize("error", [*FAILURES, OSError, BrokenPipeError],
                         ids=lambda error: error.__name__)
def test_main_maps_every_raised_failure_to_its_documented_exit_code(monkeypatch,
                                                                    capsys, error):
    exc = error("boom", 3, 5) if error is errors.ParseError else error("boom")

    def handler(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_heat_demo", handler)
    code = main(["heat-demo"])
    captured = capsys.readouterr()
    assert captured.out == ""
    if error is BrokenPipeError:
        assert (code, captured.err) == (cli.EXIT_BROKEN_PIPE, "")
    elif error is errors.ParseError:
        assert (code, captured.err) == (1, "parse error: line 3, column 5: boom\n")
    else:
        assert (code, captured.err) == (EXIT_CODES.get(error, 1), "error: boom\n")


def test_every_class_of_the_errors_module_is_a_package_failure():
    defined = [value for value in vars(errors).values()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    assert FAILURES == defined and len(defined) == 21
    assert set(EXIT_CODES) <= set(FAILURES)
