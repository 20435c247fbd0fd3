"""Stable LTI systems and per-node controllability Gramians.

For an exponentially stable ``A`` the Gramian of node ``i`` is

    W_i = integral_0^inf  exp(t A) P_i P_i^T exp(t A)^T dt,

with ``P_i`` the rank-one projection onto standard basis vector i.  ``W_i`` is
the unique solution of the continuous Lyapunov equation
``A W_i + W_i A^T + P_i P_i^T = 0``.  :func:`check_stability` factors
``A = Z T Z^T`` once (real Schur form), and every Gramian is one triangular
Sylvester solve on that factor (Bartels-Stewart), made in one place,
:func:`_solve_lyapunov`, for a diagonal input weighting
``A W + W A^T = -diag(q)``; the defining integral is kept only as a test
oracle.  The mixed Gramian for a weight vector ``p`` is
``W(p) = sum_i p_i W_i``.  A node Gramian is the weighting ``q = e_i``
(:func:`node_gramian`); by linearity ``W(p)`` itself is the weighting
``q[k_i - 1] = p_i``, one solve in place of m
(:func:`weighted_gramian_family`), which is what the ``energy`` command
reads.

scipy is imported inside the functions that need it (the Schur factor and
the triangular solve), so heat and table models never load it.

A :class:`NodeGramianFamily` is its node labels, its (m, d, d) stack of
Gramians and its score order, nothing more: :func:`gramian_family` builds
one from a :class:`StableLTISystem`, and closed-form Gramians build one
directly, without dynamics and without scipy.  It carries the eigen methods
of ``W(p)`` that :class:`~ctrlscore.spectral.SpectralModel` also has, with
the same arguments: ``eigenpairs(weights)``, the top ``score_order``
eigenpairs, is the one decomposition of ``W(p)`` at a single point
(``eigh``), which the feasibility check, the objective and the energy
diagnostics all read; ``eigenvalues`` is the batch path of the lattice
oracle (``eigvalsh``); ``positive`` is the rank test ``mu_n > d eps mu_1``
(:data:`FACTOR_FLOOR`); ``derivatives`` returns both derivatives,
``(gradient, hessian)``, from one pass over low-rank factors of the node
Gramians per evaluation.  The Gramian of one input has fast-decaying
eigenvalues (Penzl 2000; Antoulas, Sorensen & Zhou 2002): on the
benchmark's dense systems every ``W_i`` has numerical rank at most 8 of
d = 30 or 60.  So the first call factors each ``W_i ~= F_i^T S_i F_i`` with
``eigh`` (:func:`node_factors`) and keeps the factor, which is within
``d eps ||W_i||`` of ``W_i``, no more than the rounding of a dense product.
Per block of nodes, ``M_i = F_i @ Z`` and ``Q_i = M_i^T S_i M_i = Z^T W_i Z``
give the derivative rows and, for the whole spectrum, the m x m Hessian,
which ``hessian`` wraps: O(m d K r + m K^2 r) for rank r, in place of
O(m d^2 K + m d K^2).  The family keeps the factor, m x r x d floats for
the largest node rank r, as long as it lives; as r nears d the factor takes
as much memory as the Gramian stack and the pass gains nothing over the
dense one.  The dense ``gramians`` stay the only source: ``W(p)``,
its eigenpairs, the checks and the energy code read them and never the
factor, so ``check`` never builds it, and ``energy`` builds no family of
node Gramians at all.

Node labels have one rule, :func:`node_labels`, which every model
constructor and :func:`gramian_family` call.  The score order ``n``, how
many eigenvalues a score selects, is a field of the model and is set
nowhere else: both model constructors check it with
:func:`resolve_score_order`, which takes the mode count, so
:func:`gramian_family` and the model-file parser apply the same rule before
any Gramian exists.  Every other function reads ``model.score_order``.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIndexSet,
    EigenFailure,
    EmptyIndexSet,
    IndexMismatch,
    LyapunovSolveFailure,
    NonSquare,
    UnstableSystem,
)
from .simplex import weight_vector

#: Relative tolerance of Lyapunov residuals and of Gramian symmetry and PSD.
DEFAULT_TOL = 1e-10

#: Relative eigenvalue gap below which eigenvalues are treated as degenerate.
DEGENERACY_GAP = 1e-8

#: Eigenvalues of a symmetric matrix of order d at or below
#: ``d * FACTOR_FLOOR * max|lambda|`` cannot be told from zero: that is the
#: scale of ``eigh``'s own backward error (Golub & Van Loan, section 8.1).
#: Node factors leave them out, and a family's ``mu_n`` must exceed it.
FACTOR_FLOOR = float(np.finfo(float).eps)

#: Bytes of the ``W(p)`` stack that :meth:`NodeGramianFamily.eigenvalues`
#: holds at once.
_STACK_BYTES = 1 << 20


def _binary_exponent(values: np.ndarray) -> int:
    """``e`` with the largest absolute entry in ``[2**(e - 1), 2**e)``; 0 for zero."""
    return math.frexp(max(float(values.max()), -float(values.min())))[1]


def _binary_unit(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``(unit, exponent)``: the binary unit of ``values``, ``values`` times
    the power of two that puts its largest absolute entry in [1/2, 1), and
    ``exponent`` with ``values = unit * 2**exponent``; zero stays zero.
    Scaling by a power of the radix is exact (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 2.1), so
    ``values * 2**k`` has the same unit to the bit.  Every relative test of
    the package takes its norms and products on binary units, so its ratio
    cannot overflow and does not depend on the unit of the model."""
    exponent = _binary_exponent(values)
    return np.ldexp(values, -exponent), exponent


def _shared(values) -> bool:
    """Whether a model keeps ``values`` uncopied: read-only, float64, own data."""
    return (type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.owndata and not values.flags.writeable)


def node_labels(indices) -> tuple[int, ...]:
    """``indices`` as node labels: a nonempty tuple of distinct integers
    ``>= 1``.

    Raises
    ------
    EmptyIndexSet
        If there is no label.
    BadIndexSet
        If a label is not an integer (``operator.index``, so numpy integers
        pass and ``1.0`` does not), is below 1 or is repeated.
    """
    try:
        labels = tuple(map(operator.index, indices))
    except TypeError:
        raise BadIndexSet(f"node indices must be integers, got {tuple(indices)}") from None
    if not labels:
        raise EmptyIndexSet("node index set is empty")
    if min(labels) < 1:
        raise BadIndexSet(f"node indices must be >= 1, got {labels}")
    if len(set(labels)) != len(labels):
        raise BadIndexSet(f"node indices must be distinct, got {labels}")
    return labels


def resolve_score_order(order, mode_count: int) -> int:
    """``order`` as the number of eigenvalues a score selects among
    ``mode_count`` modes.

    Raises
    ------
    IndexMismatch
        Unless it is an integer (``operator.index``, so numpy integers pass
        and ``2.5`` does not) in ``1..mode_count``.
    """
    try:
        order = operator.index(order)
    except TypeError:
        raise IndexMismatch(f"score order must be an integer, got {order!r}") from None
    if not 1 <= order <= mode_count:
        raise IndexMismatch(f"score order {order} out of range 1..{mode_count}")
    return order


@dataclass(frozen=True)
class Eigenpairs:
    """The ``n`` largest eigenvalues of one ``W(p)`` and their modes.

    ``values`` are descending.  ``following`` is eigenvalue ``n + 1``, or
    None when the selection is the whole spectrum.  ``positive`` is the
    model's verdict on ``mu_n > 0`` (its ``positive`` method).  A spectral
    model names its modes by the selected table rows (``selected``); a
    Gramian family by the eigenvectors (``vectors``, one per column).
    """

    values: np.ndarray
    following: float | None
    positive: bool
    selected: np.ndarray | None = None
    vectors: np.ndarray | None = None

    @property
    def near_degenerate(self) -> bool:
        """A (near-)tie between eigenvalues ``n`` and ``n + 1``."""
        last = self.values[-1]
        return (self.following is not None
                and last - self.following <= DEGENERACY_GAP * max(abs(last), 1e-300))


@dataclass(frozen=True)
class StableLTISystem:
    """An exponentially stable dynamics matrix with its real Schur factor.

    ``dynamics = schur_vectors @ schur_form @ schur_vectors.T``, with
    ``schur_form`` quasi-upper triangular and ``schur_vectors`` orthogonal;
    :func:`check_stability` computes the factor once and every node Gramian
    reuses it.  The three arrays are read-only copies, so the caller's own
    arrays stay writeable.
    """

    dynamics: np.ndarray
    spectral_abscissa: float
    schur_form: np.ndarray
    schur_vectors: np.ndarray

    def __post_init__(self):
        for name in ("dynamics", "schur_form", "schur_vectors"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_dim(self) -> int:
        return self.dynamics.shape[0]


def check_stability(a_matrix) -> StableLTISystem:
    """Validate stability of ``A`` and return it with its real Schur factor.

    The spectral abscissa is the largest diagonal entry of the Schur form:
    in LAPACK's standardized real Schur form a 2x2 block carries the real
    part of its eigenvalue pair on both diagonal entries.

    Raises
    ------
    NonSquare
        If ``A`` is not a square 2-d matrix.
    UnstableSystem
        If the largest real part of the eigenvalues of ``A`` is >= 0.
    """
    arr = np.asarray(a_matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NonSquare(f"dynamics matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise UnstableSystem("dynamics matrix has non-finite entries")
    from scipy.linalg import schur

    form, vectors = schur(arr, output="real")
    abscissa = float(np.max(np.diag(form)))
    if abscissa >= 0.0:
        raise UnstableSystem(
            f"UnstableSystem: spectral abscissa {abscissa:.6g} >= 0"
        )
    return StableLTISystem(arr, abscissa, form, vectors)


@dataclass(frozen=True, eq=False)
class NodeGramianFamily:
    """One controllability Gramian per node, and the score order.

    ``node_indices`` are 1-based labels (:func:`node_labels`).  ``gramians``
    is a read-only float64 array (:func:`_shared`, else a copy), shape (m, d,
    d): ``gramians[i]`` belongs to node ``node_indices[i]``.  Each must be
    finite, symmetric and PSD within ``DEFAULT_TOL ||W_i||_F``, taken on its
    binary unit (:func:`_binary_unit`); families built by
    :func:`gramian_family` additionally satisfy the Lyapunov residual bound.
    No dynamics are kept, so a family can come from closed-form Gramians as
    well.  ``score_order`` is how many of the largest eigenvalues of ``W(p)``
    the scores select (``1 <= n <= d``); the whole spectrum, ``d``, when
    omitted.  Two families are equal only if they are the same object.
    """

    node_indices: tuple[int, ...]
    gramians: np.ndarray
    score_order: int | None = None

    def __post_init__(self):
        labels = node_labels(self.node_indices)
        arrays = [np.asarray(gram, dtype=float) for gram in self.gramians]
        if len(arrays) != len(labels):
            raise IndexMismatch("one Gramian per node index is required")
        n = arrays[0].shape[0] if arrays[0].ndim else 0
        for idx, arr in zip(labels, arrays):
            if n == 0 or arr.shape != (n, n):
                raise IndexMismatch(f"Gramian for node {idx} has shape {arr.shape}")
        stack = self.gramians if _shared(self.gramians) else np.stack(arrays)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            node = labels[np.argmin(finite)]
            raise EigenFailure(f"Gramian for node {node} is not finite")
        # One node at a time, on its binary unit, symmetry before PSD; batched,
        # the units would cost a stack-sized temporary.
        for node, gram in zip(labels, stack):
            unit = _binary_unit(gram)[0]
            tol = DEFAULT_TOL * np.linalg.norm(unit)
            if np.linalg.norm(unit - unit.T) > tol:
                raise EigenFailure(f"Gramian for node {node} is not symmetric")
            if np.linalg.eigvalsh(unit)[0] < -tol:
                raise EigenFailure(f"Gramian for node {node} is not PSD")
        stack.flags.writeable = False
        object.__setattr__(self, "gramians", stack)
        object.__setattr__(self, "node_indices", labels)
        order = n if self.score_order is None else self.score_order
        object.__setattr__(self, "score_order", resolve_score_order(order, n))

    @property
    def node_count(self) -> int:
        return len(self.node_indices)

    @property
    def mode_count(self) -> int:
        return self.gramians.shape[1]

    def eigenvalues(self, batch) -> np.ndarray:
        """All eigenvalues of ``W(p)`` for each row ``p`` of ``batch``,
        descending along the last axis.  The ``W(p)`` are formed and
        decomposed in slices of rows that fill at most :data:`_STACK_BYTES`,
        so a batch costs ``8 d`` bytes a row beyond its input, not
        ``8 d^2``; every row gets the same bits in any slice."""
        batch = np.asarray(batch, dtype=float)
        dim = self.mode_count
        out = np.empty((batch.shape[0], dim))
        rows = max(1, _STACK_BYTES // (8 * dim * dim))
        for start in range(0, batch.shape[0], rows):
            mixed = np.einsum("bi,inm->bnm", batch[start:start + rows], self.gramians)
            out[start:start + rows] = np.linalg.eigvalsh(mixed)[:, ::-1]
        return out

    def positive(self, top) -> np.ndarray:
        """Whether ``mu_n = top[..., -1]`` of one or a batch of top
        eigenvalues exceeds ``d * FACTOR_FLOOR * mu_1``."""
        return top[..., -1] > self.mode_count * FACTOR_FLOOR * top[..., 0]

    def eigenpairs(self, weights) -> Eigenpairs:
        """Top ``score_order`` eigenpairs of ``W(p)``.  ``vectors`` is a
        C-contiguous copy: numpy's matmul is slower on the reversed-column
        view ``eigh`` leaves, and the products are the same to the bit."""
        n = self.score_order
        eigvals, eigvecs = np.linalg.eigh(assemble_gramian(self, weights))
        eigvals = eigvals[::-1]
        following = float(eigvals[n]) if n < eigvals.size else None
        vectors = np.ascontiguousarray(eigvecs[:, ::-1][:, :n])
        top = eigvals[:n]
        return Eigenpairs(top, following, bool(self.positive(top)), vectors=vectors)

    def state_basis(self, pairs: Eigenpairs) -> np.ndarray:
        """The selected eigenvectors as state-space columns."""
        return pairs.vectors

    def derivatives(self, pairs: Eigenpairs, score):
        """``(gradient, hessian)`` of ``sum_k phi(mu_k(p))`` for the
        :data:`~ctrlscore.scores.SCORES` entry ``score``, from one pass over
        the low-rank node factors (:func:`_quadratic_forms`, O(m d K r +
        m K^2 r) for m nodes, state dimension d, K selected eigenvectors and
        factor rank r).

        The pass gives the rows ``rows[k, i] = d mu_k / d p_i = z_k^T W_i
        z_k`` as a fresh (K, m) array, which is divided in place by
        ``s(mu_k)`` and summed: ``gradient = -sum_k rows[k] / s(mu_k)``.
        For the whole spectrum, ``hessian()`` gives ``(matvec, diagonal)``
        of the m x m Hessian ``H``, formed here from the divided difference
        ``divided(a, b)`` of ``phi'``: with ``Q_i = Z^T W_i Z``,
        ``H[i, j] = sum_kl divided(mu_k, mu_l) Q_i[k, l] Q_j[k, l]``, the
        trace identities.  ``hessian`` is None for a partial selection,
        where this formula is not the Hessian, and where ``mu_n`` is not
        positive, where ``divided`` may be negative.

        The first call factors every node Gramian (:func:`node_factors`)
        and keeps the factor, m x r x d floats for the largest node rank
        r, for the life of the family; a copy in another unit takes it
        scaled.  The pass gains nothing over dense products as r nears d."""
        factor = self._factor()
        mu = pairs.values
        hessian = None
        if pairs.following is not None or not pairs.positive:
            rows = _quadratic_forms(pairs.vectors, factor)[0]
        else:
            # Row i of C holds the upper triangle of the symmetric Q_i, scaled
            # in place by sqrt(divided), doubled off the diagonal, so H = C C^T.
            (first, second), flat, doubling = _triangle(mu.size)
            rows, coords = _quadratic_forms(pairs.vectors, factor, flat)
            coords *= np.sqrt(score.divided(mu[first], mu[second]) * doubling)
            matrix = coords @ coords.T

            def hessian():
                return matrix.__matmul__, matrix.diagonal()
        rows /= score.s(mu)[:, None]
        return -rows.sum(axis=0), hessian

    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`node_factors` of the Gramians, built on the first call and
        kept.  The lock keeps two starts of the pool that make the first
        call together from factoring twice; later calls do not take it."""
        factor = self.__dict__.get("_node_factor")
        if factor is None:
            with _FACTOR_LOCK:
                factor = self.__dict__.get("_node_factor")
                if factor is None:
                    factor = node_factors(self.gramians)
                    object.__setattr__(self, "_node_factor", factor)
        return factor


_FACTOR_LOCK = threading.Lock()


def node_factors(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(loadings, signs)``, a signed low-rank factor of each symmetric
    ``W_i = stack[i]`` (m, d, d):
    ``W_i ~= loadings[i].T @ diag(signs[i]) @ loadings[i]``.

    Row a of ``loadings[i]`` (m, r, d) is ``sqrt|lambda_a| v_a`` for an
    eigenpair of ``W_i`` above the floor (:data:`FACTOR_FLOOR`), so the
    factor is within ``d eps ||W_i||_2`` of ``W_i``; ``signs[i, a]`` (m, r)
    is the sign of ``lambda_a``, so an eigenvalue inside the PSD tolerance
    but below zero keeps its sign.  ``r`` is the largest rank over the
    nodes; a node of lower rank is padded with zero rows of sign 0, so one
    node of full rank makes ``loadings`` as large as ``stack``.  One
    ``eigh`` per node keeps the temporaries at d x d.  Both are read-only.
    """
    count, dim = stack.shape[:2]
    kept = []
    for gram in stack:
        values, vectors = np.linalg.eigh(gram)
        size = np.abs(values)
        keep = size > dim * FACTOR_FLOOR * size.max()
        kept.append((values[keep], vectors[:, keep]))
    loadings = np.zeros((count, max(values.size for values, _ in kept), dim))
    signs = np.zeros(loadings.shape[:2])
    for node, (values, vectors) in enumerate(kept):
        loadings[node, :values.size] = vectors.T * np.sqrt(np.abs(values))[:, None]
        signs[node, :values.size] = np.sign(values)
    loadings.flags.writeable = False
    signs.flags.writeable = False
    return loadings, signs


#: Nodes per block in :func:`_quadratic_forms`.  The pool runs two starts at
#: once, and each holds one block's ``M_i = F_i @ Z`` and ``Q_i``, 8 x K x K
#: for the Hessian.  On the d = 60 benchmark system (K = 60, rank 7), one
#: derivative pass on one BLAS thread took 1.07 ms in blocks of 8 (min of 7
#: x 100 calls, 2 vCPUs), 0.95 in blocks of 16, 1.64 per node and 2.19 in
#: one block.  Blocks of 12 or more
#: break the memory bound of
#: ``test_an_evaluation_holds_one_node_block_beyond_its_hessian_coordinates``
#: (a 1.91 MB peak at 12 against 1.76 MB; 1.60 at 8).
_NODE_BLOCK = 8


@functools.cache
def _triangle(size: int):
    """``(upper, flat, doubling)`` for a ``size`` x ``size`` matrix: the
    index pair of its upper triangle, the same entries as flat indices, and
    1 on the diagonal and 2 off it, in that order.  Computed once per size
    and read-only."""
    upper = np.triu_indices(size)
    flat = upper[0] * size + upper[1]
    doubling = np.where(upper[0] == upper[1], 1.0, 2.0)
    for array in (*upper, flat, doubling):
        array.flags.writeable = False
    return upper, flat, doubling


def _quadratic_forms(vectors: np.ndarray, factor, flat=None):
    """``(rows, coords)`` for the columns ``z_k`` of ``vectors`` (d, K) and
    the node factors ``factor = (loadings, signs)`` of :func:`node_factors`.

    ``rows[k, i] = z_k^T W_i z_k``, shape (K, m), C-contiguous.  With the
    flat indices ``flat`` of entries of a K x K matrix, row i of ``coords``
    holds ``Q_i = Z^T W_i Z`` at ``flat``; else ``coords`` is None.  A block of
    :data:`_NODE_BLOCK` nodes takes ``M_i = F_i @ Z`` for each node, then
    ``Q_i = M_i^T S_i M_i``; ``rows`` is its diagonal, or
    ``sum_a s_a M_i[a]**2`` without ``flat``.  Temporaries are bounded by
    ``_NODE_BLOCK`` x K x max(r, K).  The products are one matmul over the
    block's stack, which numpy runs node by node, so no entry depends on
    the block size, to the bit (a single product of the stacked factor
    rows would give other bits for other block sizes).
    """
    loadings, signs = factor
    m = len(loadings)
    rows = np.empty((m, vectors.shape[1]))
    coords = None if flat is None else np.empty((m, flat.size))
    for start in range(0, m, _NODE_BLOCK):
        block = slice(start, start + _NODE_BLOCK)
        products = loadings[block] @ vectors
        signed = products * signs[block, :, None]
        if coords is None:
            rows[block] = (signed * products).sum(axis=1)
        else:
            forms = signed.transpose(0, 2, 1) @ products
            rows[block] = np.diagonal(forms, axis1=1, axis2=2)
            np.take(forms.reshape(len(forms), -1), flat, axis=1, out=coords[block])
    # The gradient sums rows over axis 0.  On the transposed view that axis
    # is contiguous and numpy would sum it pairwise; the C-contiguous copy
    # keeps the node-by-node order, and so the bits.
    return np.ascontiguousarray(rows.T), coords


def _solve_lyapunov(system: StableLTISystem, input_weights: np.ndarray,
                    subject: str) -> np.ndarray:
    """Solve ``A W + W A^T = -diag(q)`` for the input weighting
    ``q = input_weights`` (length d, nonnegative): the Gramian of the input
    matrix ``diag(sqrt q)``.  ``subject`` names the Gramian in errors.

    With ``A = Z T Z^T`` the stored Schur factor, this solves the
    quasi-triangular equation ``T Y + Y T^T = Z^T (-diag q) Z`` with
    LAPACK's ``dtrsyl`` and returns ``W = Z Y Z^T``.  These are the steps
    scipy's dense Lyapunov solver takes after its own ``schur`` call, so the
    result is the same to the bit, without re-factoring ``A`` for every
    solve.  ``dtrsyl`` reports ``info == 1`` when it had to perturb
    near-singular eigenvalue sums; such a solution is accepted only if it
    passes the residual check below, and nothing is printed.

    Raises
    ------
    LyapunovSolveFailure
        If ``dtrsyl`` rejects an argument, or the residual exceeds
        ``DEFAULT_TOL * ||A||_F ||W||_F``, the scale of the equation's
        terms, compared on binary units (:func:`_binary_unit`).
    """
    from scipy.linalg.lapack import dtrsyl

    rhs = -np.diag(input_weights)
    a, form, vectors = system.dynamics, system.schur_form, system.schur_vectors
    solved, scale, info = dtrsyl(form, form, vectors.T @ (rhs @ vectors), tranb="T")
    if info < 0:
        raise LyapunovSolveFailure(
            f"Lyapunov solve failed for {subject}: dtrsyl argument {-info} is illegal"
        )
    solved *= scale
    gram = vectors @ solved @ vectors.T
    gram = 0.5 * (gram + gram.T)
    residual = np.linalg.norm(a @ gram + gram @ a.T - rhs)
    a_unit, a_exponent = _binary_unit(a)
    gram_unit, gram_exponent = _binary_unit(gram)
    size = np.linalg.norm(a_unit) * np.linalg.norm(gram_unit)
    if np.ldexp(residual, -a_exponent - gram_exponent) > DEFAULT_TOL * size:
        raise LyapunovSolveFailure(
            f"Lyapunov residual {residual:.3e} exceeds tolerance for {subject}"
        )
    return gram


def _state(system: StableLTISystem, node: int) -> int:
    """The 0-based state of 1-based node ``node``; raises
    :class:`IndexMismatch` unless it is in ``1..n``."""
    n = system.n_dim
    if not 1 <= node <= n:
        raise IndexMismatch(f"node {node} out of range 1..{n}")
    return node - 1


def _checked_nodes(system: StableLTISystem, node_indices,
                   score_order: int | None) -> tuple[int, ...]:
    """The labels of ``node_indices`` (:func:`node_labels`), after checking
    ``score_order`` (when given) and that each node is a state of
    ``system``; nothing is solved."""
    indices = node_labels(node_indices)
    if score_order is not None:
        resolve_score_order(score_order, system.n_dim)
    for node in indices:
        _state(system, node)
    return indices


def node_gramian(system: StableLTISystem, node: int) -> np.ndarray:
    """Solve ``A W + W A^T = -e e^T`` for the unit vector ``e`` of node
    ``node``.

    Parameters
    ----------
    system : StableLTISystem
        The (stable) dynamics.
    node : int
        1-based node index: ``e`` is standard basis vector ``node``.

    Returns
    -------
    ndarray
        The symmetric PSD node Gramian.

    Notes
    -----
    ``e e^T = diag(e)``, so this is the Lyapunov solve of the input
    weighting ``q = e`` (:func:`_solve_lyapunov`), with the same
    right-hand-side matrix to the bit.

    Raises
    ------
    IndexMismatch
        If ``node`` is not in ``1..n``.
    LyapunovSolveFailure
        If the solve fails (see :func:`_solve_lyapunov`); the message names
        the node.
    """
    direction = np.zeros(system.n_dim)
    direction[_state(system, node)] = 1.0
    return _solve_lyapunov(system, direction, f"node {node}")


def gramian_family(system: StableLTISystem, node_indices,
                   score_order: int | None = None) -> NodeGramianFamily:
    """The family of :func:`node_gramian` for every index in ``node_indices``,
    scored on its top ``score_order`` eigenvalues (default: all).  The labels,
    the order and the node range are checked before the first Lyapunov
    solve."""
    indices = _checked_nodes(system, node_indices, score_order)
    stack = np.empty((len(indices), system.n_dim, system.n_dim))
    for row, node in enumerate(indices):
        stack[row] = node_gramian(system, node)
    stack.flags.writeable = False  # so the family keeps it, not a copy
    return NodeGramianFamily(indices, stack, score_order)


#: The weight at which a :func:`weighted_gramian_family` is evaluated.
UNIT_WEIGHT = (1.0,)


def weighted_gramian_family(system: StableLTISystem, node_indices, weights,
                            score_order: int | None = None) -> NodeGramianFamily:
    """The mixed Gramian ``W(p) = sum_i p_i W_i`` of the nodes
    ``node_indices`` at ``weights``, as a family of one Gramian, from one
    Lyapunov solve.

    By linearity ``W(p)`` solves ``A W + W A^T = -diag(q)`` with
    ``q[k_i - 1] = p_i`` for node ``k_i``: it is the Gramian of the one
    input group ``diag(sqrt q)``, the family's only node, labelled 1.
    Evaluated at the weight :data:`UNIT_WEIGHT`, the family has the
    eigenpairs of ``W(p)``, so the energy diagnostics read it like any
    model, and ``W(p)`` gets the family's finite, symmetric and PSD checks.
    It differs from ``assemble_gramian(gramian_family(system, node_indices),
    weights)``, which solves once per node, by rounding only.  The labels,
    the order, the node range and the weight count are checked before the
    solve.

    Raises
    ------
    InvalidWeights
        If there is not one weight per node (:func:`assemble_gramian`'s
        message).
    LyapunovSolveFailure
        If the solve fails; the message names ``W(p)``.
    """
    indices = _checked_nodes(system, node_indices, score_order)
    weighting = np.zeros(system.n_dim)
    weighting[np.asarray(indices) - 1] = weight_vector(weights, len(indices))
    return NodeGramianFamily((1,), [_solve_lyapunov(system, weighting, "W(p)")],
                             score_order)


def assemble_gramian(family: NodeGramianFamily, weights) -> np.ndarray:
    """Mixed Gramian ``W(p) = sum_i p_i W_i`` for the given weights."""
    return np.tensordot(weight_vector(weights, family.node_count), family.gramians,
                        axes=1)
