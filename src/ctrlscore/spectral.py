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
The commutation check multiplies out only the pairs that a rigorous bound
cannot rule out.  Every residual is an exact ratio of norms taken on
binary units (:func:`~ctrlscore.linsys._binary_unit`), so the checkers run
on the caller's model and give the same bits in any binary unit of time.
``eigenpairs`` decomposes ``W(p)`` at one point; ``eigenvalues`` takes only a
batch of points, one per row, for the lattice oracle.  ``derivatives`` gives
the gradient and the Hessian, as a callable that builds a table's product
only when it is called; a table with every row selected reads its table in
place for both.  Node labels are checked by
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
from .linsys import (Eigenpairs, _binary_exponent, _binary_unit, _shared,
                     node_labels, resolve_score_order)
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
        every node to shared eigenmode ``k``.  Stored read-only, as a copy
        unless :func:`~ctrlscore.linsys._shared`.
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
        table = self.eigen_table
        table = table if _shared(table) else np.array(table, dtype=float)
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

    def derivatives(self, pairs: Eigenpairs, score):
        """``(gradient, hessian)`` of ``sum_k phi(mu_k(p))`` for the
        :data:`~ctrlscore.scores.SCORES` entry ``score``, from the rows
        ``rows[k, i] = d mu_k / d p_i``, the selected table rows:
        ``gradient = -sum_k rows[k] / s(mu_k)``, and ``hessian()``, which
        gives ``(matvec, diagonal)`` of the Hessian ``H`` from the divided
        difference ``divided(a, b)`` of ``phi'``.  The eigenvalues are affine
        in ``p``, so ``H = rows^T diag(phi''(mu)) rows`` with
        ``phi''(mu) = divided(mu, mu)``; it is never formed:
        ``H v = rows^T (phi''(mu) * (rows v))``, O(n m) per product.

        Where every row is selected, the rows are the table itself, read in
        place, with the coefficients scattered into table-row order, so an
        evaluation copies no rows (K x m, 8 MB at K = m = 1000).  A top-n
        table gathers its n rows for the gradient and again for each call of
        ``hessian``, so an evaluation that keeps the callable holds none."""
        table, selected, mu = self.eigen_table, pairs.selected, pairs.values

        def rows_with(coefficients):
            if selected.size < len(table):
                return table[selected], coefficients
            spread = np.empty_like(coefficients)
            spread[selected] = coefficients
            return table, spread

        def hessian():
            rows, curvature = rows_with(score.divided(mu, mu))
            return (lambda v: (curvature * (rows @ v)) @ rows,
                    np.einsum("ki,k,ki->i", rows, curvature, rows))

        rows, slope = rows_with(-1.0 / score.s(mu))
        return slope @ rows, hessian

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


#: Rows of the node Gramians' squares formed at once by
#: :func:`_commutator_bounds`: one (m, 8, d) buffer, not an (m, d, d) stack.
_SQUARE_BLOCK = 8

#: Norms for which :func:`_commutator_bounds` gives a finite bound, and zero:
#: inside, the squares ``W_i^2`` and their inner products are accurate, since
#: their terms neither underflow as a whole nor overflow.
_BOUND_NORMS = (2.0**-400, 2.0**250)

#: Per state, the allowance for gradual underflow in the residual's sum of
#: squares: ``d * 2^-537.5`` over binary-unit norms of at least 1/2 each.
_UNDERFLOW = 2.0**-530


def _node_units(grams: np.ndarray) -> tuple[list[int], np.ndarray]:
    """``(exponents, norms)``, one per Gramian: the binary exponent ``e_i``
    of ``W_i`` (:func:`~ctrlscore.linsys._binary_unit`), a Python int, on
    which ``np.ldexp`` of a matrix is several times faster than on a numpy
    integer, and the Frobenius norm of the binary unit ``W_i 2^-e_i``,
    taken once for every pair."""
    exponents = [_binary_exponent(gram) for gram in grams]
    norms = np.array([np.linalg.norm(np.ldexp(gram, -exponent))
                      for gram, exponent in zip(grams, exponents)])
    return exponents, norms


def _pair_residual(grams: np.ndarray, i: int, j: int, units) -> float:
    """The exact residual ``||W_i W_j - W_j W_i||_F / (||W_i||_F ||W_j||_F)``
    of one pair, taken on the binary units of ``W_i`` and ``W_j`` from
    ``units = _node_units(grams)``; 0 where either is zero."""
    exponents, norms = units
    first = np.ldexp(grams[i], -exponents[i])
    second = np.ldexp(grams[j], -exponents[j])
    den = norms[i] * norms[j]
    cross = first @ second
    return float(np.linalg.norm(cross - cross.T) / den) if den else 0.0


def _commutator_bounds(grams: np.ndarray, units) -> np.ndarray:
    """An upper bound on :func:`_pair_residual` of every pair, as computed,
    or ``inf`` where none is given; ``units`` is :func:`_node_units` of
    ``grams``.

    For symmetric ``A`` and ``B``, ``[A, B] = AB - (AB)^T``, so
    ``||[A, B]||_F <= 2 ||AB||_F = 2 sqrt(<A^2, B^2>_F)``: a residual is at
    most ``2 sqrt(P[i, j])`` for the Gram matrix of squares
    ``P[i, j] = <W_i^2, W_j^2>_F / (n_i n_j)^2``.  With ``W_i = U_i 2^e_i``
    for the binary unit ``U_i``, ``n_i = ||U_i||_F 2^e_i`` is the residual's
    norm scaled back exactly, so both sides round the norms alike.  ``P``
    costs O(m d^3 + m^2 d^2): the squares of the Gramians as given are
    formed ``_SQUARE_BLOCK`` rows at a time, as ``(W_i[block] W_i) / n_i^2``
    in one reused buffer, and their inner products summed one row of every
    square at a time.  The bound is::

        2 sqrt(max(P[i, j], 0) + tau) + sigma + 4 eps + d * 2^-530

    The allowances cover rounding in the bound and in the residual, with
    ``u = eps / 2`` and ``gamma_k = k u / (1 - k u)`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, §3.5), for any summation order
    and for ``d^2 eps`` far below 1:

    * ``tau = 2 (d + 1)^2 eps``.  Forming ``W_i^2 / n_i^2`` costs
      ``gamma_d`` and two roundings (``n_i^2`` and the division) relative to
      ``||W_i||_F^2 / n_i^2 ~ 1``, and each inner product of ``d^2`` terms
      ``gamma_{d^2}``, so ``P`` is low by at most about
      ``(d^2 + 2d + 6) u``.  The residual's sum of squares and square root
      scale it by at most ``1 + (d^2 + 4) u / 2``, which under the square
      root is ``(d^2 + 4) u`` more.  Both sum to ``(d^2 + d + 5) eps``.
    * ``sigma = 2 (d + 4) eps``.  The product ``U_i U_j`` is off by
      ``gamma_d ||U_i||_F ||U_j||_F`` per side of the commutator, and the
      bound's own roundings take at most ``6 u`` of a value below about
      2.1: together about ``(d + 6.3) eps``.
    * ``4 eps``: the product of the norms in the denominator and the
      division round a residual below about 2.1 by ``2 u`` each.
    * ``d * 2^-530``: gradual underflow (:data:`_UNDERFLOW`).
      :data:`_BOUND_NORMS` keeps underflow and overflow in ``P`` below
      these terms.

    A pair gets ``inf``, and so an exact product, where a Gramian is not
    exactly symmetric or a norm lies outside :data:`_BOUND_NORMS`.
    """
    m, d = grams.shape[:2]
    eps = np.finfo(float).eps
    tau = 2.0 * (d + 1) ** 2 * eps
    allowance = 2.0 * (d + 4) * eps + 4.0 * eps + d * _UNDERFLOW
    squares = np.zeros((m, m))
    buffer = np.empty((m, _SQUARE_BLOCK, d))
    # Overflow and NaN arise only for norms outside _BOUND_NORMS: inf below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = np.ldexp(units[1], units[0])
        scale = np.where(norms > 0.0, norms, 1.0)[:, None, None] ** 2
        for start in range(0, d, _SQUARE_BLOCK):
            block = buffer[:, :min(_SQUARE_BLOCK, d - start)]
            np.matmul(grams[:, start:start + _SQUARE_BLOCK], grams, out=block)
            block /= scale
            # m x d times d x m: a longer inner dimension made BLAS touch
            # about 0.4 MB more of its buffers, which stays in the RSS.
            for row in range(block.shape[1]):
                squares += block[:, row] @ block[:, row].T
        bounds = 2.0 * np.sqrt(np.maximum(squares, 0.0) + tau) + allowance
    low, high = _BOUND_NORMS
    bounded = (norms == 0.0) | ((norms >= low) & (norms <= high))
    bounded &= [np.array_equal(gram, gram.T) for gram in grams]
    bounds[~np.outer(bounded, bounded)] = np.inf
    return bounds


def check_commuting(family) -> tuple[bool, float]:
    """Largest normalized pairwise commutator residual of the family.

    Returns ``(residual <= CHECK_TOL, residual)`` with
    ``residual = max_{i<j} ||W_i W_j - W_j W_i||_F / (||W_i||_F ||W_j||_F)``
    on the binary units of ``W_i`` and ``W_j`` (:func:`_pair_residual`), an
    exact ratio, the same in every binary unit of time; a pair with a zero
    Gramian has residual 0.  Spectral models commute by construction and
    report residual 0.

    Only the pairs that can hold the maximum are multiplied out.  Every
    pair gets a rigorous upper bound on its residual as computed
    (:func:`_commutator_bounds`, O(m d^3 + m^2 d^2) for m Gramians of
    order d), and the pairs are visited in descending bound order, each
    computed exactly with ``i < j``, until a bound falls below the largest
    residual found.  The maximizing pair is always computed, and a maximum
    does not depend on order, so the residual is the one the m(m-1)/2
    products give, to the bit.  On a dense non-commuting family about one
    percent of the pairs are computed; a commuting family has large bounds
    and computes them all.
    """
    if isinstance(family, SpectralModel):
        return True, 0.0
    grams = family.gramians
    units = _node_units(grams)
    rows, cols = np.triu_indices(len(grams), 1)
    bounds = _commutator_bounds(grams, units)[rows, cols]
    worst = 0.0
    for pair in np.argsort(-bounds, kind="stable"):
        if bounds[pair] < worst:
            break
        i, j = int(rows[pair]), int(cols[pair])
        worst = max(worst, _pair_residual(grams, i, j, units))
    return worst <= CHECK_TOL, worst


def check_n_spectrum(model) -> tuple[bool, float]:
    """Whether every node Gramian vanishes outside one fixed n-mode span,
    for ``n = model.score_order``.

    The residual is ``max_i ||W_i - Pi W_i Pi||_F / ||W_i||_F`` on the
    binary unit of each ``W_i`` (0 for a zero ``W_i``), for the orthogonal
    projection ``Pi`` onto the top ``n``-eigenspace of ``sum_i W_i``, summed
    on a binary unit so that it cannot overflow.  A spectral model is the
    family ``W_i = diag(t_i)`` of its columns: the span is the ``n`` rows
    with the largest row sums (ties to the lowest row index), and column
    ``t_i`` has residual ``||t_i[outside]||_2 / ||t_i||_2``.  The whole
    spectrum has residual 0, with no copy of a table.
    """
    n = model.score_order
    if n == model.mode_count:
        return True, 0.0
    if isinstance(model, SpectralModel):
        table = model.eigen_table
        outside = np.ones(len(table), dtype=bool)
        outside[_select_rows(_binary_unit(table)[0].sum(axis=1), n)] = False
        parts = ((unit, unit[outside]) for unit, _ in map(_binary_unit, table.T))
    else:
        grams = model.gramians
        exponent = _binary_exponent(grams)
        _, vecs = np.linalg.eigh(sum(np.ldexp(gram, -exponent) for gram in grams))
        span = vecs[:, ::-1][:, :n]
        projector = span @ span.T
        parts = ((unit, unit - projector @ unit @ projector)
                 for unit, _ in map(_binary_unit, grams))
    worst = 0.0
    for unit, part in parts:
        size = np.linalg.norm(unit)
        if size > 0.0:
            worst = max(worst, float(np.linalg.norm(part) / size))
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
