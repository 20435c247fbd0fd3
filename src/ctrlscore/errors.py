"""Exception types raised across the package.

Everything derives from :class:`CtrlscoreError` so callers can catch the
package's failures with a single handler.  Exceptions that double as value
errors also inherit from :class:`ValueError`.
"""

from __future__ import annotations


class CtrlscoreError(Exception):
    """Base class for all errors raised by this package."""


class NonSquare(CtrlscoreError, ValueError):
    """The dynamics matrix is not square."""


class UnstableSystem(CtrlscoreError):
    """Spectral abscissa of the dynamics matrix is >= 0; scores are undefined."""


class LyapunovSolveFailure(CtrlscoreError):
    """The Lyapunov solve produced an unacceptably large residual."""


class IndexMismatch(CtrlscoreError, ValueError):
    """Weight vector and node index set have incompatible shapes."""


class EigenFailure(CtrlscoreError):
    """Symmetric eigendecomposition failed or produced invalid eigenvalues."""


class EmptyIndexSet(CtrlscoreError, ValueError):
    """A node index set must be nonempty."""


class BadIndexSet(CtrlscoreError, ValueError):
    """A node index set contains invalid (non-positive or repeated) entries."""


class NotDiagonal(CtrlscoreError):
    """The spectral model is not diagonal (one nonzero row per node)."""


class CapsBind(CtrlscoreError):
    """A closed-form optimum violates a per-node cap; use the solver instead."""


class EmptyFeasibleSet(CtrlscoreError, ValueError):
    """The capped simplex is empty (caps sum below one)."""


class InvalidWeights(CtrlscoreError, ValueError):
    """A weight vector violates the capped-simplex invariants."""


class Infeasible(CtrlscoreError):
    """No candidate weight vector keeps the n-th Gramian eigenvalue positive."""


class InfeasiblePoint(CtrlscoreError):
    """The supplied point lies outside the feasible region."""


class NonConvexAmbiguous(CtrlscoreError):
    """Multi-start solves disagree on the optimal value.

    The merged :class:`~ctrlscore.optimizer.ScoreResult` (best start, with all
    start objectives attached) is available as ``.result``.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class BadGridStep(CtrlscoreError, ValueError):
    """A lattice step is not finite, not in (0, 1] or does not divide 1."""


class TooLarge(CtrlscoreError):
    """Requested grid enumeration exceeds the point budget."""


class TargetOutsideSpan(CtrlscoreError):
    """Target state is not in the span of the selected eigenvectors."""


class SingularGramian(CtrlscoreError):
    """A selected Gramian eigenvalue is zero; the energy is unbounded."""


class RankDeficient(CtrlscoreError):
    """The Gramian has fewer positive eigenvalues than requested."""


class ParseError(CtrlscoreError):
    """Model file could not be parsed; carries 1-based line/column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
