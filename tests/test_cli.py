import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import ctrlscore
from ctrlscore import cli, linsys
from ctrlscore.cli import (
    DEFAULT_DEMO_ROWS,
    RunReport,
    main,
    truncate_toward_zero,
)

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


def test_check_rank_deficient_feasibility_fails(tmp_path, capsys):
    path = write(tmp_path, "rankdef.csm", RANK_DEFICIENT)
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 2
    assert "feasible: no" in out
    assert "n-spectrum: yes" in out


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
from ctrlscore import cli
seen["import ctrlscore.cli"] = scipy_loaded()
for label, argv in (("score heat", ["score", heat, "--kind", "vcs"]),
                    ("check table", ["check", table])):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[label] = (cli.main(argv), scipy_loaded())
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
        "import ctrlscore.cli": False,
        "score heat": [0, False],
        "check table": [0, False],
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


def test_lyapunov_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linsys, "DEFAULT_TOL", 0.0)
    path = write(tmp_path, "nonnormal.csm", NON_NORMAL3)
    code = main(["score", path, "--kind", "vcs"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: Lyapunov residual ")
    assert err.endswith(" exceeds tolerance for node 2\n")


def blas_threads():
    """``(set, get)`` of numpy's OpenBLAS thread count; skips elsewhere."""
    calls = cli._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy does not link OpenBLAS here")
    return calls


@pytest.fixture
def outer_threads():
    """Set numpy's OpenBLAS to more than one thread for the test and
    restore the count after it; yields the count the library accepted."""
    set_threads, get_threads = blas_threads()
    before = get_threads()
    set_threads(3)
    try:
        count = get_threads()
        assert count > 1
        yield count
    finally:
        set_threads(before)


def test_commands_run_on_one_blas_thread_and_restore_the_count(
        outer_threads, monkeypatch, capsys):
    seen = []

    def handler(args):
        seen.append(cli._blas_thread_calls()[1]())
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "_cmd_heat_demo", handler)
    assert main(["heat-demo"]) == 0
    assert seen == [1]
    assert cli._blas_thread_calls()[1]() == outer_threads


@pytest.mark.parametrize("error", [ctrlscore.ParseError("bad token"), RuntimeError("boom")])
def test_blas_thread_count_restored_when_the_handler_raises(
        outer_threads, monkeypatch, capsys, error):
    def handler(args):
        assert cli._blas_thread_calls()[1]() == 1
        raise error

    monkeypatch.setattr(cli, "_cmd_heat_demo", handler)
    if isinstance(error, ctrlscore.CtrlscoreError):
        assert main(["heat-demo"]) == cli.EXIT_PARSE
    else:
        with pytest.raises(RuntimeError, match="boom"):
            main(["heat-demo"])
    assert cli._blas_thread_calls()[1]() == outer_threads


def _refuse_to_load(path):
    raise OSError(f"cannot open {path}")


# The first loader stands for a library without the OpenBLAS thread calls.
@pytest.mark.parametrize("loader", [lambda path: object(), _refuse_to_load])
def test_blas_lookup_without_openblas_finds_none(monkeypatch, loader):
    monkeypatch.setattr(cli.ctypes, "CDLL", loader)
    assert cli._blas_thread_calls.__wrapped__() is None


def test_commands_leave_the_blas_alone_without_the_thread_calls(
        outer_threads, monkeypatch, capsys):
    get_threads = cli._blas_thread_calls()[1]
    seen = []

    def handler(args):
        seen.append(get_threads())
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "_blas_thread_calls", lambda: None)
    monkeypatch.setattr(cli, "_cmd_heat_demo", handler)
    assert main(["heat-demo"]) == 0
    assert seen == [outer_threads]


def test_openblas_builds_find_the_thread_setter():
    # A silent no-op would hide the gain on the Linux wheels CI installs.
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no machine-readable config
        pytest.skip("numpy does not report its BLAS")
    if blas != "scipy-openblas":
        pytest.skip(f"numpy links {blas}")
    assert cli._blas_thread_calls() is not None
