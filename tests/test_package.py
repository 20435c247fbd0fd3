"""The package namespace: each public name is imported from its submodule
on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ctrlscore

#: The package's public names: those of the eager ``__init__`` it replaced,
#: and ``BeyondDoubleRange``, added since.
PUBLIC_NAMES = (
    "AssumptionReport", "BadGridStep", "BadIndexSet", "BeyondDoubleRange", "CapsBind",
    "CtrlscoreError", "EigenFailure", "EmptyFeasibleSet", "EmptyIndexSet",
    "IndexMismatch", "Infeasible", "InfeasiblePoint", "InvalidWeights",
    "LyapunovSolveFailure", "ModelFile", "NodeGramianFamily", "NonConvexAmbiguous",
    "NonSquare", "NotDiagonal", "ObjectiveEvaluation", "ObjectiveKind", "ParseError",
    "RankDeficient", "ReachabilityEllipsoid", "ScoreResult", "SimplexWeights",
    "SpectralModel", "StableLTISystem", "TargetOutsideSpan", "TooLarge",
    "UnstableSystem", "assemble_gramian", "central_point", "check_commuting",
    "check_feasibility", "check_n_spectrum", "check_stability", "closed_form_optimum",
    "evaluate", "gramian_family", "grid_oracle", "heat_dirichlet_model", "kkt_residual",
    "min_energy", "node_gramian", "parse_model_text", "project_capped_simplex",
    "reachable_ellipsoid", "solve", "unit_ball_log_volume",
)


def test_each_name_is_the_object_its_submodule_defines():
    wrong = [name for name, module in ctrlscore._MODULE_OF.items()
             if getattr(ctrlscore, name)
             is not getattr(importlib.import_module("ctrlscore." + module), name)]
    assert wrong == []


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from ctrlscore import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)


def test_dir_lists_the_public_names_and_the_version():
    assert set(PUBLIC_NAMES) | {"__version__"} <= set(dir(ctrlscore))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ctrlscore.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        from ctrlscore import no_such_name  # noqa: F401


#: The library submodules, every one but the CLI's.
LIBRARY_MODULES = ("energy", "errors", "linsys", "modelfile", "optimizer", "scores",
                   "simplex", "spectral")

# Runs in a fresh interpreter: this test process may have imported the CLI.
LIBRARY_IMPORTS = """\
import importlib, json, os, sys
import ctrlscore
ctrlscore.solve
for module in sys.argv[1:]:
    importlib.import_module("ctrlscore." + module)
print(json.dumps({"env": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "cli": "ctrlscore.cli" in sys.modules}))
"""


def test_the_library_leaves_the_blas_thread_variable_alone():
    # Only the CLI sets the one-thread default; a library caller keeps its own.
    src = os.path.dirname(os.path.dirname(ctrlscore.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    run = subprocess.run([sys.executable, "-c", LIBRARY_IMPORTS, *LIBRARY_MODULES],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(run.stdout) == {"env": None, "cli": False}
    assert sorted(LIBRARY_MODULES + ("__init__", "__main__", "cli")) == sorted(
        name[:-3] for name in os.listdir(os.path.dirname(ctrlscore.__file__))
        if name.endswith(".py"))
