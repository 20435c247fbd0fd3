"""Controllability scores for stable linear systems.

Two centrality weightings over the state nodes of an exponentially stable
linear system, each defined as the unique minimizer of a convex objective
built from the top eigenvalues of the mixed controllability Gramian
``W(p) = sum_i p_i W_i``:

* VCS (volumetric): maximizes the volume of the reachable-ellipsoid section.
* AECS (average energy): minimizes the average minimum energy to reach
  unit-sphere targets.

Works on dense matrix systems and on spectrally truncated operator models
(commuting Gramian families given by eigenvalue tables), with executable
checkers for the assumptions behind existence and uniqueness.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.  A name is imported
#: on first use, so ``import ctrlscore`` loads neither numpy nor scipy; the
#: CLI relies on this to set the BLAS threading before numpy loads (see
#: ``cli``).
_MODULE_OF = {
    "ReachabilityEllipsoid": "energy",
    "min_energy": "energy",
    "reachable_ellipsoid": "energy",
    "unit_ball_log_volume": "energy",
    "BadGridStep": "errors",
    "BeyondDoubleRange": "errors",
    "BadIndexSet": "errors",
    "CapsBind": "errors",
    "CtrlscoreError": "errors",
    "EigenFailure": "errors",
    "EmptyFeasibleSet": "errors",
    "EmptyIndexSet": "errors",
    "IndexMismatch": "errors",
    "Infeasible": "errors",
    "InfeasiblePoint": "errors",
    "InvalidWeights": "errors",
    "LyapunovSolveFailure": "errors",
    "NonConvexAmbiguous": "errors",
    "NonSquare": "errors",
    "NotDiagonal": "errors",
    "ParseError": "errors",
    "RankDeficient": "errors",
    "TargetOutsideSpan": "errors",
    "TooLarge": "errors",
    "UnstableSystem": "errors",
    "NodeGramianFamily": "linsys",
    "StableLTISystem": "linsys",
    "assemble_gramian": "linsys",
    "check_stability": "linsys",
    "gramian_family": "linsys",
    "node_gramian": "linsys",
    "ModelFile": "modelfile",
    "parse_model_text": "modelfile",
    "ScoreResult": "optimizer",
    "grid_oracle": "optimizer",
    "kkt_residual": "optimizer",
    "solve": "optimizer",
    "ObjectiveEvaluation": "scores",
    "ObjectiveKind": "scores",
    "closed_form_optimum": "scores",
    "evaluate": "scores",
    "SimplexWeights": "simplex",
    "central_point": "simplex",
    "project_capped_simplex": "simplex",
    "AssumptionReport": "spectral",
    "SpectralModel": "spectral",
    "check_commuting": "spectral",
    "check_feasibility": "spectral",
    "check_n_spectrum": "spectral",
    "heat_dirichlet_model": "spectral",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name from its submodule on first use (PEP 562) and
    keep it in the package namespace, so later lookups skip this hook."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
