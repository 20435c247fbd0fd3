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
same arguments (``eigenvalues``, ``eigenpairs``, ``positive``,
``derivatives``, ``state_basis``), so the objective, the solver and the
energy code never branch on the model type.  Only this module and
:mod:`~ctrlscore.linsys` read a model's storage: here the checkers, the
closed form's table reader (:func:`_diagonal_entries`) and the descent's
copy in another unit (:func:`_in_unit`) do.  The checkers read a family
only through its (m, d, d) ``gramians``, so closed-form Gramians are
checked like Lyapunov solves.
The commutation check multiplies out only the pairs that a rigorous bound
cannot rule out.  Every residual is an exact ratio of norms taken on
binary units (:func:`~ctrlscore.linsys._binary_unit`), so the checkers run
on the caller's model and give the same bits in any binary unit of time.
``eigenpairs`` decomposes ``W(p)`` at one point; ``eigenvalues`` takes only a
batch of points, one per row, for the lattice oracle.  ``derivatives`` gives
the gradient and the Hessian, as a callable that builds a table's product
only when it is called.  A table's form is a function of the table
alone: one with at most :data:`_SPARSE_SHARE` of its entries nonzero, by
the one rule :func:`_sparse`, which the model-file parser applies too, is
held as its :class:`Nonzeros`, as the parser hands it over, and every
reader but the lattice oracle's batch ``eigenvalues`` works on them alone,
with no K x m array; a denser one is held as its array, which a table with
every row selected reads in place.  The heat model is given as its
diagonal's nonzeros, so from 16 nodes on no m x m array is made.  Node
labels are checked by :func:`~ctrlscore.linsys.node_labels`, the heat
model's too.  The score
order is a field of the model, checked by
:func:`~ctrlscore.linsys.resolve_score_order` in the constructor and read
by ``eigenpairs`` and every checker here; a table's default is
``min(K, m)``, and the heat model, an m x m diagonal table, takes any order
in ``1..m``.
"""

from __future__ import annotations

import copy
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import IndexMismatch, NotDiagonal
from .linsys import (FACTOR_FLOOR, Eigenpairs, _binary_exponent, _binary_unit,
                     _shared, node_labels, resolve_score_order)
from .simplex import SimplexWeights, central_point, validate_caps, weight_vector

#: Default relative tolerance for the assumption checkers.
CHECK_TOL = 1e-8


def _select_rows(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest values, ties broken by lowest index."""
    order = np.argsort(-values, kind="stable")
    return order[:count]


#: A table whose nonzero entries are at most this share of its K x m entries
#: is evaluated on them alone (:func:`_sparse`), a denser one by BLAS on
#: the whole table.  Timed on random tables with a full diagonal, one BLAS
#: thread, an evaluation with its Hessian diagonal and ten Hessian products
#: (a descent makes about eight per evaluation) is faster on the nonzeros up
#: to a share of about 1/14 at K = m = 1000 and 1/40 at K = m = 120; the
#: evaluation alone up to about 1/9 at both.  1/16 sits below the crossover
#: of the large tables, where the time is; below m = 100 a pass takes tens
#: of microseconds either way.
_SPARSE_SHARE = 1 / 16

#: A sparse table: its nonzero ``values`` at ``(rows, cols)`` in row-major
#: order, and its ``shape``.
Nonzeros = namedtuple("Nonzeros", "rows cols values shape")


def _sparse(count: int, size: int) -> bool:
    """The sparse rule: whether a table of ``size`` entries, ``count`` of
    them nonzero, is kept and evaluated as its nonzeros alone.  The
    model-file parser and :class:`SpectralModel` both apply it."""
    return count <= _SPARSE_SHARE * size


def _coordinates(table: np.ndarray, nonzero=None) -> Nonzeros:
    """Every nonzero of ``table`` (where ``nonzero`` is true, if given),
    read-only, in row-major order."""
    rows, cols = divmod(np.flatnonzero(table if nonzero is None else nonzero),
                        table.shape[1])
    values = table[rows, cols]
    for part in (rows, cols, values):
        part.flags.writeable = False
    return Nonzeros(rows, cols, values, table.shape)


def _nonzeros(table: np.ndarray) -> Nonzeros | None:
    """The table's nonzeros, or None where :func:`_sparse` keeps it whole."""
    nonzero = table != 0.0  # several times faster to scan than the floats
    if not _sparse(np.count_nonzero(nonzero), table.size):
        return None
    return _coordinates(table, nonzero)


def _dense(nonzeros: Nonzeros) -> np.ndarray:
    """The K x m table of ``nonzeros``, zero elsewhere."""
    rows, cols, values, shape = nonzeros
    table = np.zeros(shape)
    table[rows, cols] = values
    return table


def _kept(part, dtype) -> np.ndarray:
    """``part`` as a read-only array of ``dtype``: itself where it is one
    that owns its data, else a copy."""
    if not (type(part) is np.ndarray and part.dtype == dtype
            and part.flags.owndata and not part.flags.writeable):
        part = np.array(part, dtype=dtype)
        part.flags.writeable = False
    return part


def _checked_nonzeros(nonzeros: Nonzeros, width: int) -> Nonzeros:
    """``nonzeros`` of a table with ``width`` columns, each part kept by
    :func:`_kept`; raises :class:`~ctrlscore.errors.IndexMismatch` on a
    shape with another width, parts of unequal length, an entry that is not
    finite or is negative, a position outside the shape, or positions that
    are not strictly increasing in row-major order, as a repeat is not."""
    rows, cols, values, shape = nonzeros
    shape = tuple(map(int, shape))
    if len(shape) != 2 or shape[1] != width:
        raise IndexMismatch(f"eigen table must have {width} columns, got shape {shape}")
    rows, cols = _kept(rows, np.intp), _kept(cols, np.intp)
    values = _kept(values, np.float64)
    if not (rows.ndim == cols.ndim == values.ndim == 1
            and rows.size == cols.size == values.size):
        raise IndexMismatch("eigen table nonzeros need one row and column per value")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise IndexMismatch("eigen table entries must be finite and >= 0")
    for part, bound in ((rows, shape[0]), (cols, shape[1])):
        if part.size and (part.min() < 0 or part.max() >= bound):
            raise IndexMismatch(f"eigen table nonzeros lie outside its shape {shape}")
    step = np.diff(rows)
    if np.any((step < 0) | ((step == 0) & (np.diff(cols) <= 0))):
        raise IndexMismatch("eigen table nonzeros must lie in strictly increasing "
                            "row-major order, each position once")
    return Nonzeros(rows, cols, values, shape)


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Eigenvalue table of a commuting node-Gramian family.

    Attributes
    ----------
    node_indices : tuple of int
        The evaluated nodes (1-based labels, order fixes the columns).
    eigen_table : ndarray, shape (K, m), or Nonzeros
        Nonnegative entries; row ``k`` holds the eigenvalue contributed by
        every node to shared eigenmode ``k``.  A sparse table is held as
        its :class:`Nonzeros` alone, a denser one as its array, read-only
        either way.
    score_order : int, optional
        How many of the largest eigenvalues the score objectives use
        (``1 <= n <= K``); ``min(K, m)`` when omitted.

    The table is given as an array or as its :class:`Nonzeros`, in the
    row-major order the model-file parser hands them over; the constructor
    checks either form the same way and keeps the form that
    :func:`_sparse` gives the table, whatever it was given.  A sparse array
    is reduced to its nonzeros, with no copy of the array; nonzeros of a
    denser table are filled into one.  A kept array is a copy unless
    :func:`~ctrlscore.linsys._shared`.  Every reader dispatches on that one
    field, and ``dataclasses.replace`` remakes the model from it.  Two
    models are equal only if they are the same object.
    """

    node_indices: tuple[int, ...]
    eigen_table: np.ndarray | Nonzeros
    score_order: int | None = None

    def __post_init__(self):
        indices = node_labels(self.node_indices)
        table = self.eigen_table
        if isinstance(table, Nonzeros):
            table = _checked_nonzeros(table, len(indices))
            if not _sparse(table.values.size, table.shape[0] * table.shape[1]):
                table = _dense(table)
        else:
            array = np.asarray(table, dtype=float)
            if array.ndim != 2 or array.shape[1] != len(indices):
                raise IndexMismatch(
                    f"eigen table must have {len(indices)} columns, got shape {array.shape}"
                )
            if not np.all(np.isfinite(array)) or np.any(array < 0):
                raise IndexMismatch("eigen table entries must be finite and >= 0")
            table = _nonzeros(array)
            if table is None:
                table = array if _shared(array) else np.array(array)
        if not isinstance(table, Nonzeros):
            table.flags.writeable = False
        object.__setattr__(self, "eigen_table", table)
        object.__setattr__(self, "node_indices", indices)
        order = min(table.shape) if self.score_order is None else self.score_order
        object.__setattr__(self, "score_order", resolve_score_order(order, table.shape[0]))

    @property
    def mode_count(self) -> int:
        return self.eigen_table.shape[0]

    @property
    def node_count(self) -> int:
        return len(self.node_indices)

    def eigenvalues(self, batch) -> np.ndarray:
        """All ``K`` eigenvalues of ``W(p)`` for each row ``p`` of ``batch``,
        descending along the last axis."""
        table = self.eigen_table
        if isinstance(table, Nonzeros):  # the lattice oracle's small tables
            table = _dense(table)
        values = np.asarray(batch, dtype=float) @ table.T
        return np.sort(values, axis=-1)[:, ::-1]

    def positive(self, top) -> np.ndarray:
        """Whether ``mu_n = top[..., -1]`` of one or a batch of top
        eigenvalues is positive: exactly ``mu_n > 0``, since every
        ``mu_k = t_k . p`` is a sum of nonnegative products."""
        return top[..., -1] > 0.0

    def eigenpairs(self, weights) -> Eigenpairs:
        """Top ``score_order`` eigenvalues of ``W(p)`` and the table rows
        giving them."""
        n = self.score_order
        point, table = weight_vector(weights, self.node_count), self.eigen_table
        if isinstance(table, Nonzeros):
            rows, cols, entries, (count, _) = table
            values = np.bincount(rows, entries * point[cols], count)
        else:
            values = table @ point
        order = _select_rows(values, n + 1)
        following = float(values[order[n]]) if n < order.size else None
        selected = order[:n]
        top = values[selected]
        return Eigenpairs(top, following, bool(self.positive(top)), selected=selected)

    def derivatives(self, pairs: Eigenpairs, score):
        """``(gradient, hessian)`` of ``sum_k phi(mu_k(p))`` for the
        :data:`~ctrlscore.scores.SCORES` entry ``score``, from the rows
        ``rows[k, i] = d mu_k / d p_i``, the selected table rows:
        ``gradient = -sum_k rows[k] / s(mu_k)``, and ``hessian()``, which
        gives ``(matvec, diagonal)`` of the Hessian ``H`` from the divided
        difference ``divided(a, b)`` of ``phi'``.  The eigenvalues are affine
        in ``p``, so ``H = rows^T diag(phi''(mu)) rows`` with
        ``phi''(mu) = divided(mu, mu)``; it is never formed:
        ``H v = rows^T (phi''(mu) * (rows v))``.

        A sparse table reads its nonzeros alone, O(nnz) per product: a
        top-n table gathers those of its n rows once, the coefficients are
        scattered into table-row order, and each product is one
        ``np.bincount`` over the nonzeros.  A table with at most one nonzero
        in each row and column, such as every heat table, gets the bits of
        the dense products, as each sum has one term.  A dense table
        multiplies by BLAS, O(n m) per product.  Where every row is selected
        it reads the table in place, with the coefficients in table-row
        order, so an evaluation copies no rows; a top-n table gathers its n
        rows for the gradient and again for each call of ``hessian``, so an
        evaluation that keeps the callable holds none."""
        selected, mu, table = pairs.selected, pairs.values, self.eigen_table
        if isinstance(table, Nonzeros):
            return _sparse_derivatives(table, selected, mu, score)

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


def _sparse_derivatives(nonzeros: Nonzeros, selected: np.ndarray, mu: np.ndarray,
                        score):
    """:meth:`SpectralModel.derivatives` on a table's nonzeros, those of the
    selected rows where the selection is partial.  Each product keeps the
    dense path's order of operations: ``(c * (T v)) * t`` for the Hessian
    product and ``(t * c) * t``, as ``np.einsum`` forms it, for its
    diagonal."""
    rows, cols, entries, (count, width) = nonzeros
    if selected.size < count:
        keep = np.zeros(count, dtype=bool)
        keep[selected] = True
        keep = keep[rows]
        rows, cols, entries = rows[keep], cols[keep], entries[keep]

    def by_row(coefficients):
        spread = np.zeros(count)
        spread[selected] = coefficients
        return spread

    def hessian():
        curvature = by_row(score.divided(mu, mu))

        def matvec(v):
            image = curvature * np.bincount(rows, entries * v[cols], count)
            return np.bincount(cols, image[rows] * entries, width)

        diagonal = np.bincount(cols, entries * curvature[rows] * entries, width)
        return matvec, diagonal

    slope = by_row(-1.0 / score.s(mu))
    return np.bincount(cols, slope[rows] * entries, width), hessian


def _in_unit(model):
    """``model`` with every table or Gramian entry times the power of four
    ``4**k`` that puts its largest absolute entry in [1/4, 1) (``model``
    itself where ``k`` is 0), not validated again.  A table held as its
    :class:`Nonzeros` keeps that form in the copy, the values times
    ``4**k`` with the owner's rows and columns.  A family's node factor is
    built here, also where ``k`` is 0, and its copy takes the owner's with
    the loadings times ``2**k``, so no descent builds shared state.

    Scaling by a power of the radix is exact (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 2.1), and by a power
    of four keeps a family's Hessian roots and node factor exact; the
    minimizers do not move (:data:`~ctrlscore.scores.SCORES`).  No
    eigenvalue of ``W(p)`` exceeds ``d``, so no score formula overflows, and
    the rank tests, the multi-start ``1e-6`` and the descent's constants
    read the same in either unit.  Entries below the double range of the
    unit flush to zero; :func:`~ctrlscore.optimizer.solve` reports what
    that breaks."""
    if isinstance(model, SpectralModel):
        field, table = "eigen_table", model.eigen_table
    else:
        field, table = "gramians", model.gramians
        loadings, signs = model._factor()  # before any start runs
    sparse = isinstance(table, Nonzeros)
    values = table.values if sparse else table
    exponent = -_binary_exponent(values) // 2 if values.size else 0
    if exponent == 0:
        return model
    scaled = np.ldexp(values, 2 * exponent)
    scaled.flags.writeable = False
    unit = copy.copy(model)  # no __post_init__: no validation
    object.__setattr__(unit, field, table._replace(values=scaled) if sparse else scaled)
    if field == "gramians":
        object.__setattr__(unit, "_node_factor", (np.ldexp(loadings, exponent), signs))
    return unit


def _diagonal_entries(model: SpectralModel) -> np.ndarray:
    """Each column's one nonzero table entry, where every column has exactly
    one nonzero row and no two columns share a row.

    Raises
    ------
    NotDiagonal
        At the first column, in column order, that has zero or several
        nonzero rows or whose row an earlier column holds.
    """
    table = model.eigen_table
    rows, cols, entries, (_, m) = (table if isinstance(table, Nonzeros)
                                   else _coordinates(table))
    counts = np.bincount(cols, minlength=m)
    column_rows, diagonal = np.zeros(m, dtype=np.intp), np.zeros(m)
    column_rows[cols], diagonal[cols] = rows, entries  # right where counts are 1
    held = set()
    for col, row in enumerate(column_rows.tolist()):
        if counts[col] != 1:
            raise NotDiagonal(f"column {col} has {counts[col]} nonzero rows")
        if row in held:
            raise NotDiagonal(f"row {row} is shared by several columns")
        held.add(row)
    return diagonal


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the executable assumption checks for one model.

    ``residual <= CHECK_TOL`` is what the booleans encode; residuals are kept so a
    near-miss is visible.  ``nth_eigenvalue`` is ``mu_n`` at the central
    point, which is the ``witness`` when feasible (else None, and ``reason``
    says why; it is empty when feasible).
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
    reason: str

    def all_pass(self) -> bool:
        return self.feasible and self.commuting and self.n_spectrum


def heat_dirichlet_model(node_indices, score_order: int | None = None) -> SpectralModel:
    """Spectral model of the heat equation on (0, 1) with Dirichlet ends.

    The dynamics operator is the second spatial derivative; its eigenmodes
    ``sqrt(2) sin(k pi x)`` are the nodes, and node ``k`` contributes the
    single Gramian eigenvalue ``1 / (2 pi^2 k^2)`` on its own mode.  The
    table is therefore diagonal with one row per requested node and all
    unlisted modes carry exactly zero, so truncation at ``K = len(I)`` rows
    is lossless.  It is given to the model as its diagonal's
    :class:`Nonzeros`, so a table of 16 nodes or more, sparse by
    :func:`_sparse`, is never made as an m x m array.

    ``score_order`` lies in ``1..len(I)``, as for any table; it defaults to
    the node count, the regime in which the optimum is unique.
    """
    indices = node_labels(node_indices)
    diagonal = np.arange(len(indices))
    values = 1.0 / (2.0 * np.pi**2 * np.array(indices, dtype=float)**2)
    table = Nonzeros(diagonal, diagonal, values, (len(indices), len(indices)))
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


def _outside(sums: np.ndarray, n: int) -> np.ndarray:
    """Whether each row lies outside the ``n`` rows with the largest
    ``sums``, ties to the lowest row index."""
    outside = np.ones(len(sums), dtype=bool)
    outside[_select_rows(sums, n)] = False
    return outside


def _sparse_n_spectrum(nonzeros: Nonzeros, n: int) -> tuple[bool, float]:
    """:func:`check_n_spectrum` of a table held as its nonzeros, each sum
    one ``np.bincount`` over them, O(nnz): the row sums on the binary unit
    of the table, and each column's squares, in all and outside the span,
    on the binary unit of that column.  An all-zero column has residual 0."""
    rows, cols, values, (count, width) = nonzeros
    if not values.size:
        return True, 0.0
    outside = _outside(np.bincount(rows, _binary_unit(values)[0], count), n)
    top = np.zeros(width)
    np.maximum.at(top, cols, values)
    squares = np.ldexp(values, -np.frexp(top)[1][cols]) ** 2
    total = np.bincount(cols, squares, width)
    part = np.bincount(cols, np.where(outside[rows], squares, 0.0), width)
    held = total > 0.0
    worst = float(np.max(np.sqrt(part[held]) / np.sqrt(total[held]), initial=0.0))
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
    spectrum has residual 0, with no copy of a table.  A table held as its
    nonzeros is read through them alone (:func:`_sparse_n_spectrum`).
    """
    n = model.score_order
    if n == model.mode_count:
        return True, 0.0
    if isinstance(model, SpectralModel):
        table = model.eigen_table
        if isinstance(table, Nonzeros):
            return _sparse_n_spectrum(table, n)
        outside = _outside(_binary_unit(table)[0].sum(axis=1), n)
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


def _shortfall(model, pairs: Eigenpairs, central: bool = True) -> str:
    """Why ``mu_n`` fails the model's rule (its ``positive`` method) at the
    central point, or with ``central`` False at the caller's weights: how
    many table rows reach a node with a positive cap or weight (the
    positive ``mu_k``), against ``n``; or a family's ``mu_n``, ``mu_1`` and
    bound ``d eps mu_1``.  :class:`~ctrlscore.errors.Infeasible` and
    :class:`~ctrlscore.errors.RankDeficient` give this reason."""
    n, mu, dim = model.score_order, pairs.values, model.mode_count
    if isinstance(model, SpectralModel):
        support = "cap" if central else "weight"
        return (f"{np.count_nonzero(mu)} of n = {n} needed table rows have a "
                f"positive entry on a node with a positive {support}")
    bound = dim * FACTOR_FLOOR * mu[0]
    where = "the central point" if central else "these weights"
    return (f"mu_{n} = {mu[-1]:.3e} at {where} is not above d eps mu_1 "
            f"= {dim} * {FACTOR_FLOOR:.3e} * {mu[0]:.3e} = {bound:.3e}")


def check_feasibility(model, *, caps=None) -> AssumptionReport:
    """Run all assumption checks on ``model`` at its score order, and decide
    feasibility at one point, the central point of the capped simplex.

    That point weights exactly the nodes with a positive cap
    (:func:`~ctrlscore.simplex.central_point`), where the rank of ``W(p)``,
    a sum of PSD terms, and the support of every table row are largest, so
    it is a witness whenever any point is.  The verdict is the model's rule
    (``positive``) on ``model.eigenpairs``, the decomposition the objective
    reads, so it and ``nth_eigenvalue`` are what the solver sees there.
    Infeasibility is reported, with its ``reason``, never raised.
    """
    m = model.node_count
    caps_arr = validate_caps(caps, m)
    point = central_point(caps_arr)
    pairs = model.eigenpairs(point)

    commuting, comm_residual = check_commuting(model)
    n_spec, spec_residual = check_n_spectrum(model)
    return AssumptionReport(
        feasible=pairs.positive,
        witness=point if pairs.positive else None,
        nth_eigenvalue=float(pairs.values[-1]),
        commuting=commuting,
        commutator_residual=comm_residual,
        n_spectrum=n_spec,
        n_spectrum_residual=spec_residual,
        node_count=m,
        score_order=model.score_order,
        reason="" if pairs.positive else _shortfall(model, pairs),
    )
