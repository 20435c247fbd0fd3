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
    ReachabilityEllipsoid,
    min_energy,
    reachable_ellipsoid,
    unit_ball_log_volume,
)
from .errors import (
    BadGridStep,
    BadIndexSet,
    CapsBind,
    CtrlscoreError,
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
    gramian_family,
    node_gramian,
)
from .modelfile import (
    ModelFile,
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
)

__version__ = "0.1.0"
