"""Commuting Gramian families as eigenvalue tables, and assumption checkers.

When the node Gramians commute they share an eigenbasis ``{z_k}`` and are
fully described by the nonnegative table ``table[k, i] = z_k^T W_i z_k``.
The mixed Gramian ``W(p)`` then has eigenvalues ``table @ p`` with fixed
eigenvectors, which is what makes the score objectives convex.  This module
holds that truncated representation (``SpectralModel``), the closed-form
builder for the Dirichlet heat equation on the unit interval, and executable
checkers for the structural assumptions behind the uniqueness guarantee:

* feasibility -- some weight vector keeps the n-th eigenvalue positive;
* commutation -- ``W_i W_j = W_j W_i`` for all pairs;
* n-spectrum  -- every ``W_i`` vanishes outside one fixed n-dimensional span.

The eigen logic lives on the model classes: ``SpectralModel`` and
:class:`~ctrlscore.linsys.NodeGramianFamily` have the same methods with the
same arguments (``eigenvalues``, ``eigenpairs``, ``derivatives``,
``state_basis``), so the objective, the solver and the energy code never
branch on the model type; the assumption checkers and the closed form do.
The checkers read a family only through its (m, d, d) ``gramians``, so a
family of closed-form Gramians is checked like one from Lyapunov solves.
``eigenpairs`` decomposes ``W(p)`` at one point; ``eigenvalues`` takes only a
batch of points, one per row, for the lattice oracle.  ``derivatives`` gives
the rows and the Hessian, as a callable that builds a table's product only
when it is called.  Node labels are checked by
:func:`~ctrlscore.linsys.node_labels`, the heat model's too.  The score
order is a field of the model, checked by
:func:`~ctrlscore.linsys.resolve_score_order` in the constructor and read
by ``eigenpairs`` and every checker here; a table's default is
``min(K, m)``, and the heat model, an m x m diagonal table, takes any order
in ``1..m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexMismatch
from .linsys import Eigenpairs, NodeGramianFamily, node_labels, resolve_score_order
from .simplex import SimplexWeights, central_point, validate_caps, weight_vector

#: Default relative tolerance for the assumption checkers.
CHECK_TOL = 1e-8


def _select_rows(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest values, ties broken by lowest index."""
    order = np.argsort(-values, kind="stable")
    return order[:count]


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Eigenvalue table of a commuting node-Gramian family.

    Attributes
    ----------
    node_indices : tuple of int
        The evaluated nodes (1-based labels, order fixes the columns).
    eigen_table : ndarray, shape (K, m)
        Nonnegative entries; row ``k`` holds the eigenvalue contributed by
        every node to shared eigenmode ``k``.  Stored as a read-only copy.
    score_order : int, optional
        How many of the largest eigenvalues the score objectives use
        (``1 <= n <= K``); ``min(K, m)`` when omitted.

    Two models are equal only if they are the same object.
    """

    node_indices: tuple[int, ...]
    eigen_table: np.ndarray
    score_order: int | None = None

    def __post_init__(self):
        indices = node_labels(self.node_indices)
        table = np.array(self.eigen_table, dtype=float)
        if table.ndim != 2 or table.shape[1] != len(indices):
            raise IndexMismatch(
                f"eigen table must have {len(indices)} columns, got shape {table.shape}"
            )
        if not np.all(np.isfinite(table)) or np.any(table < 0):
            raise IndexMismatch("eigen table entries must be finite and >= 0")
        table.flags.writeable = False
        object.__setattr__(self, "eigen_table", table)
        object.__setattr__(self, "node_indices", indices)
        order = min(table.shape) if self.score_order is None else self.score_order
        object.__setattr__(self, "score_order", resolve_score_order(order, len(table)))

    @property
    def mode_count(self) -> int:
        return self.eigen_table.shape[0]

    @property
    def node_count(self) -> int:
        return len(self.node_indices)

    def eigenvalues(self, batch) -> np.ndarray:
        """All ``K`` eigenvalues of ``W(p)`` for each row ``p`` of ``batch``,
        descending along the last axis."""
        values = np.asarray(batch, dtype=float) @ self.eigen_table.T
        return np.sort(values, axis=-1)[:, ::-1]

    def eigenpairs(self, weights) -> Eigenpairs:
        """Top ``score_order`` eigenvalues of ``W(p)`` and the table rows
        giving them."""
        n = self.score_order
        values = self.eigen_table @ weight_vector(weights, self.node_count)
        order = _select_rows(values, n + 1)
        following = float(values[order[n]]) if n < order.size else None
        selected = order[:n]
        return Eigenpairs(values[selected], following, selected=selected)

    def derivatives(self, pairs: Eigenpairs, divided):
        """``(rows, hessian)``: ``rows[k, i] = d mu_k / d p_i``, a fresh copy
        of the selected table rows, and ``hessian()``, which gives
        ``(matvec, diagonal)`` of the Hessian ``H`` of ``sum_k phi(mu_k(p))``
        from the divided difference ``divided(a, b)`` of ``phi'``.  The
        eigenvalues are affine in ``p``, so ``H = rows^T diag(phi''(mu)) rows``
        with ``phi''(mu) = divided(mu, mu)``; it is never formed:
        ``H v = rows^T (phi''(mu) * (rows v))``, O(n m) per product.
        ``hessian`` takes its own rows when called, so an evaluation that
        keeps it holds no rows (n x m, 8 MB at n = m = 1000)."""
        table = self.eigen_table

        def hessian():
            rows = table[pairs.selected]
            curvature = divided(pairs.values, pairs.values)
            return (lambda v: (curvature * (rows @ v)) @ rows,
                    np.einsum("ki,k,ki->i", rows, curvature, rows))

        return table[pairs.selected], hessian

    def state_basis(self, pairs: Eigenpairs) -> np.ndarray:
        """Selector columns: the eigenvectors are the mode coordinates."""
        basis = np.zeros((self.mode_count, pairs.selected.size))
        basis[pairs.selected, np.arange(pairs.selected.size)] = 1.0
        return basis


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the executable assumption checks for one model.

    ``residual <= CHECK_TOL`` is what the booleans encode; residuals are kept so a
    near-miss is visible.  ``witness`` is the first weight vector found with
    ``mu_n > 0`` (None when infeasible), and ``nth_eigenvalue`` is ``mu_n``
    there (the best value seen when infeasible).
    """

    feasible: bool
    witness: SimplexWeights | None
    nth_eigenvalue: float
    commuting: bool
    commutator_residual: float
    n_spectrum: bool
    n_spectrum_residual: float
    node_count: int
    score_order: int

    def all_pass(self) -> bool:
        return self.feasible and self.commuting and self.n_spectrum


def heat_dirichlet_model(node_indices, score_order: int | None = None) -> SpectralModel:
    """Spectral model of the heat equation on (0, 1) with Dirichlet ends.

    The dynamics operator is the second spatial derivative; its eigenmodes
    ``sqrt(2) sin(k pi x)`` are the nodes, and node ``k`` contributes the
    single Gramian eigenvalue ``1 / (2 pi^2 k^2)`` on its own mode.  The
    table is therefore diagonal with one row per requested node and all
    unlisted modes carry exactly zero, so truncation at ``K = len(I)`` rows
    is lossless.

    ``score_order`` lies in ``1..len(I)``, as for any table; it defaults to
    the node count, the regime in which the optimum is unique.
    """
    indices = node_labels(node_indices)
    table = np.diag(1.0 / (2.0 * np.pi**2 * np.array(indices, dtype=float)**2))
    return SpectralModel(indices, table, score_order)


def check_commuting(family) -> tuple[bool, float]:
    """Largest normalized pairwise commutator residual of the family.

    Returns ``(residual <= CHECK_TOL, residual)`` with
    ``residual = max_{i<j} ||W_i W_j - W_j W_i||_F / max(1, ||W_i||_F ||W_j||_F)``.
    Spectral models commute by construction and report residual 0.
    """
    if isinstance(family, SpectralModel):
        return True, 0.0
    grams = family.gramians
    norms = [np.linalg.norm(gram) for gram in grams]
    worst = 0.0
    for i in range(len(grams)):
        for j in range(i + 1, len(grams)):
            cross = grams[i] @ grams[j]
            num = np.linalg.norm(cross - cross.T)
            den = max(1.0, float(norms[i] * norms[j]))
            worst = max(worst, float(num / den))
    return worst <= CHECK_TOL, worst


def check_n_spectrum(model) -> tuple[bool, float]:
    """Whether every node Gramian vanishes outside one fixed n-mode span,
    for ``n = model.score_order``.

    For a spectral model the candidate span is the ``n`` rows with the
    largest row sums (ties to the lowest row index) and the residual is the
    largest table entry outside them.  For a matrix family the span is the
    top eigenspace of ``sum_i W_i`` and the residual is
    ``max_i ||W_i - Pi W_i Pi||_F / max(1, ||W_i||_F)`` for the orthogonal
    projection ``Pi`` onto the span.
    """
    n = model.score_order
    if n == model.mode_count:
        return True, 0.0
    if isinstance(model, SpectralModel):
        table = model.eigen_table
        selected = _select_rows(table.sum(axis=1), n)
        outside = np.ones(table.shape[0], dtype=bool)
        outside[selected] = False
        residual = float(table[outside].max(initial=0.0))
        return residual <= CHECK_TOL, residual

    family: NodeGramianFamily = model
    total = np.sum(family.gramians, axis=0)
    _, vecs = np.linalg.eigh(total)
    span = vecs[:, ::-1][:, :n]
    projector = span @ span.T
    worst = 0.0
    for gram in family.gramians:
        kept = projector @ gram @ projector
        worst = max(
            worst,
            float(np.linalg.norm(gram - kept) / max(1.0, np.linalg.norm(gram))),
        )
    return worst <= CHECK_TOL, worst


def _witness_candidates(caps: np.ndarray):
    """Interior point first, then the greedy cap-saturating extreme patterns."""
    yield central_point(caps)
    m = caps.size
    for lead in range(m):
        values = np.zeros(m)
        remaining = 1.0
        for i in [lead] + [j for j in range(m) if j != lead]:
            take = min(caps[i], remaining)
            values[i] = take
            remaining -= take
            if remaining <= 0.0:
                break
        if remaining <= 1e-12:
            yield SimplexWeights(values, caps.copy())


def check_feasibility(model, *, caps=None) -> AssumptionReport:
    """Run all assumption checks on ``model`` at its score order and search
    for a feasibility witness.

    Tries the central point of the capped simplex and then each greedy
    cap-saturating pattern, accepting the first weights with a strictly
    positive n-th eigenvalue.  The eigenvalues come from
    ``model.eigenpairs``, the decomposition the objective reads, so the
    witness and ``nth_eigenvalue`` are what the solver sees at that point.
    Infeasibility is reported, never raised.
    """
    m = model.node_count
    caps_arr = validate_caps(caps, m)

    witness = None
    best_mu = -np.inf
    for candidate in _witness_candidates(caps_arr):
        pairs = model.eigenpairs(candidate)
        mu_n = float(pairs.values[-1])
        if pairs.positive:
            witness, best_mu = candidate, mu_n
            break
        best_mu = max(best_mu, mu_n)

    commuting, comm_residual = check_commuting(model)
    n_spec, spec_residual = check_n_spectrum(model)
    return AssumptionReport(
        feasible=witness is not None,
        witness=witness,
        nth_eigenvalue=float(best_mu),
        commuting=commuting,
        commutator_residual=comm_residual,
        n_spectrum=n_spec,
        n_spectrum_residual=spec_residual,
        node_count=m,
        score_order=model.score_order,
    )
