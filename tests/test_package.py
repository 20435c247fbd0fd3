"""The package namespace: each public name is imported from its submodule
on first use."""

import importlib

import pytest

import ctrlscore

#: The package's public names when ``__init__`` still imported them eagerly.
PUBLIC_NAMES = (
    "AssumptionReport", "BadGridStep", "BadIndexSet", "CapsBind", "CtrlscoreError",
    "EigenFailure", "EmptyFeasibleSet", "EmptyIndexSet", "IndexMismatch", "Infeasible",
    "InfeasiblePoint", "InvalidWeights", "LyapunovSolveFailure", "ModelFile",
    "NodeGramianFamily", "NonConvexAmbiguous", "NonSquare", "NotDiagonal",
    "ObjectiveEvaluation", "ObjectiveKind", "ParseError", "RankDeficient",
    "ReachabilityEllipsoid", "ScoreResult", "SimplexWeights", "SpectralModel",
    "StableLTISystem", "TargetOutsideSpan", "TooLarge", "UnstableSystem",
    "assemble_gramian", "central_point", "check_commuting", "check_feasibility",
    "check_n_spectrum", "check_stability", "closed_form_optimum", "evaluate",
    "gramian_family", "grid_oracle", "heat_dirichlet_model", "kkt_residual",
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
