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

from .energy import (
    EnergyQuery,
    ProjectionDiagnostics,
    ReachabilityEllipsoid,
    average_min_energy_monte_carlo,
    min_energy,
    projection_operator_check,
    reachable_ellipsoid,
    unit_ball_log_volume,
)
from .errors import (
    BadGridStep,
    BadIndexSet,
    CapsBind,
    CtrlscoreError,
    DiagonalizationResidualTooLarge,
    EigenFailure,
    EmptyFeasibleSet,
    EmptyIndexSet,
    IndexMismatch,
    Infeasible,
    InfeasiblePoint,
    InvalidWeights,
    LyapunovSolveFailure,
    NonConvexAmbiguous,
    NonSquare,
    NotCommuting,
    NotDiagonal,
    ParseError,
    RankDeficient,
    SingularGramian,
    TargetOutsideSpan,
    TooLarge,
    UnstableSystem,
)
from .linsys import (
    NodeGramianFamily,
    StableLTISystem,
    assemble_gramian,
    check_stability,
    finite_horizon_gramian,
    gramian_family,
    node_gramian,
    top_eigenvalues,
)
from .modelfile import (
    ModelFile,
    dump_model_text,
    model_file_from_spectral,
    parse_model_text,
)
from .optimizer import (
    ScoreResult,
    grid_oracle,
    kkt_residual,
    solve,
)
from .scores import (
    ObjectiveEvaluation,
    ObjectiveKind,
    closed_form_optimum,
    evaluate,
)
from .simplex import SimplexWeights, central_point, project_capped_simplex
from .spectral import (
    AssumptionReport,
    SpectralModel,
    check_commuting,
    check_feasibility,
    check_n_spectrum,
    heat_dirichlet_model,
    spectral_model_from_gramians,
)

__version__ = "0.1.0"
