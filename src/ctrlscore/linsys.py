"""Stable LTI systems and per-node controllability Gramians.

For an exponentially stable ``A`` the Gramian of node ``i`` is

    W_i = integral_0^inf  exp(t A) P_i P_i^T exp(t A)^T dt,

with ``P_i`` the rank-one projection onto standard basis vector i.  ``W_i`` is
the unique solution of the continuous Lyapunov equation
``A W_i + W_i A^T + P_i P_i^T = 0``.  :func:`check_stability` factors
``A = Z T Z^T`` once (real Schur form), and each node Gramian is one
triangular Sylvester solve on that factor (Bartels-Stewart); the defining
integral is kept only as a test oracle.  The mixed Gramian for a weight
vector ``p`` is ``W(p) = sum_i p_i W_i``.

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
oracle (``eigvalsh``); ``derivatives`` returns both derivatives, ``(rows,
hessian)``, from one pass over the node Gramians per evaluation.  It forms
``W_i @ Z`` for a block of nodes at a time and takes from each product the
derivative rows and, for the whole spectrum, the m x m Hessian, which
``hessian`` wraps.

The score order ``n``, how many eigenvalues a score selects, is a field of
the model and is set nowhere else: both model constructors check it with
:func:`resolve_score_order`, and every other function reads
``model.score_order``.
"""

from __future__ import annotations

import operator
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

#: Default absolute tolerance for residuals, symmetry and eigenvalue clamping.
DEFAULT_TOL = 1e-10

#: Relative eigenvalue gap below which eigenvalues are treated as degenerate.
DEGENERACY_GAP = 1e-8

#: An eigenvalue counts as positive only above this relative floor.
POSITIVE_FLOOR = 1e-12


def nth_positive(top):
    """Whether ``top[..., -1]`` clears the positive floor
    ``POSITIVE_FLOOR * max(1, top[..., 0])``."""
    return top[..., -1] > POSITIVE_FLOOR * np.maximum(1.0, top[..., 0])


def resolve_score_order(model, order) -> int:
    """``order`` as the number of eigenvalues a score selects on ``model``,
    whose ``mode_count`` is already set; the model constructors call this.

    Raises
    ------
    IndexMismatch
        Unless it is an integer (``operator.index``, so numpy integers pass
        and ``2.5`` does not) in ``1..model.mode_count``.
    """
    try:
        order = operator.index(order)
    except TypeError:
        raise IndexMismatch(f"score order must be an integer, got {order!r}") from None
    if not 1 <= order <= model.mode_count:
        raise IndexMismatch(f"score order {order} out of range 1..{model.mode_count}")
    return order


@dataclass(frozen=True)
class Eigenpairs:
    """The ``n`` largest eigenvalues of one ``W(p)`` and their modes.

    ``values`` are descending.  ``following`` is eigenvalue ``n + 1``, or
    None when the selection is the whole spectrum.  A spectral model names
    its modes by the selected table rows (``selected``); a Gramian family by
    the eigenvectors (``vectors``, one column per eigenvalue).
    """

    values: np.ndarray
    following: float | None
    selected: np.ndarray | None = None
    vectors: np.ndarray | None = None

    @property
    def positive(self) -> bool:
        """Whether the smallest selected eigenvalue clears the positive floor."""
        return nth_positive(self.values)

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


@dataclass(frozen=True)
class NodeGramianFamily:
    """One controllability Gramian per node, and the score order.

    ``node_indices`` are 1-based labels.  ``gramians`` is a read-only
    float64 copy of the input, shape (m, d, d): ``gramians[i]`` belongs to
    node ``node_indices[i]``.  Each must be finite, symmetric and positive
    semidefinite within tolerance; families built by :func:`gramian_family`
    additionally satisfy the Lyapunov residual bound.  No dynamics are kept,
    so a family can come from closed-form Gramians as well.
    ``score_order`` is how many of the largest eigenvalues of ``W(p)`` the
    scores select (``1 <= n <= d``); the whole spectrum, ``d``, when
    omitted.
    """

    node_indices: tuple[int, ...]
    gramians: np.ndarray
    score_order: int | None = None

    def __post_init__(self):
        if len(self.node_indices) == 0:
            raise EmptyIndexSet("node index set is empty")
        if len(set(self.node_indices)) != len(self.node_indices):
            raise BadIndexSet("node indices must be distinct")
        arrays = [np.asarray(gram, dtype=float) for gram in self.gramians]
        if len(arrays) != len(self.node_indices):
            raise IndexMismatch("one Gramian per node index is required")
        n = arrays[0].shape[0] if arrays[0].ndim else 0
        for idx, arr in zip(self.node_indices, arrays):
            if n == 0 or arr.shape != (n, n):
                raise IndexMismatch(f"Gramian for node {idx} has shape {arr.shape}")
        stack = np.stack(arrays)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            node = self.node_indices[np.argmin(finite)]
            raise EigenFailure(f"Gramian for node {node} is not finite")
        # The PSD test is one batched eigvalsh.  The norms stay per node:
        # batched, they cost two stack-sized temporaries and were slower.
        # The first failing node is reported, symmetry before PSD.
        tol = DEFAULT_TOL * np.array([max(1.0, float(np.linalg.norm(g))) for g in stack])
        asymmetric = np.array([np.linalg.norm(g - g.T) for g in stack]) > tol
        indefinite = np.linalg.eigvalsh(stack)[:, 0] < -tol
        failed = np.flatnonzero(asymmetric | indefinite)
        if failed.size:
            first = failed[0]
            problem = "not symmetric" if asymmetric[first] else "not PSD"
            raise EigenFailure(f"Gramian for node {self.node_indices[first]} is {problem}")
        stack.flags.writeable = False
        object.__setattr__(self, "gramians", stack)
        object.__setattr__(self, "node_indices", tuple(int(i) for i in self.node_indices))
        order = self.mode_count if self.score_order is None else self.score_order
        object.__setattr__(self, "score_order", resolve_score_order(self, order))

    @property
    def node_count(self) -> int:
        return len(self.node_indices)

    @property
    def mode_count(self) -> int:
        return self.gramians.shape[1]

    def eigenvalues(self, batch) -> np.ndarray:
        """All eigenvalues of ``W(p)`` for each row ``p`` of ``batch``,
        descending along the last axis."""
        mixed = np.einsum("bi,inm->bnm", np.asarray(batch, dtype=float), self.gramians)
        return np.linalg.eigvalsh(mixed)[:, ::-1]

    def eigenpairs(self, weights) -> Eigenpairs:
        """Top ``score_order`` eigenpairs of ``W(p)``.  ``vectors`` is a
        C-contiguous copy: numpy's matmul is slower on the reversed-column
        view ``eigh`` leaves, and the products are the same to the bit."""
        n = self.score_order
        eigvals, eigvecs = np.linalg.eigh(assemble_gramian(self, weights))
        eigvals = eigvals[::-1]
        following = float(eigvals[n]) if n < eigvals.size else None
        vectors = np.ascontiguousarray(eigvecs[:, ::-1][:, :n])
        return Eigenpairs(eigvals[:n], following, vectors=vectors)

    def state_basis(self, pairs: Eigenpairs) -> np.ndarray:
        """The selected eigenvectors as state-space columns."""
        return pairs.vectors

    def derivatives(self, pairs: Eigenpairs, divided):
        """``(rows, hessian)`` from one pass over the node Gramians
        (:func:`_quadratic_forms`, O(m n^2 K) for m nodes, state dimension n
        and K selected eigenvectors).

        ``rows[k, i] = d mu_k / d p_i = z_k^T W_i z_k``, a fresh (K, m)
        array.  For the whole spectrum, ``hessian()`` gives ``(matvec,
        diagonal)`` of the m x m Hessian ``H`` of ``sum_k phi(mu_k(p))``,
        formed here from the divided difference ``divided(a, b)`` of
        ``phi'``: with ``Q_i = Z^T W_i Z``,
        ``H[i, j] = sum_kl divided(mu_k, mu_l) Q_i[k, l] Q_j[k, l]``, the
        trace identities.  ``hessian`` is None for a partial selection,
        where this formula is not the Hessian, and where ``mu_n`` is not
        positive, where ``divided`` may be negative."""
        if pairs.following is not None or not pairs.positive:
            return _quadratic_forms(pairs.vectors, self.gramians)[0], None
        mu = pairs.values
        # Row i of C holds the upper triangle of the symmetric Q_i, scaled
        # in place by sqrt(divided), doubled off the diagonal, so H = C C^T.
        upper = np.triu_indices(mu.size)
        rows, coords = _quadratic_forms(pairs.vectors, self.gramians, upper)
        weights = divided(mu[:, None], mu[None, :]) * (2.0 - np.eye(mu.size))
        coords *= np.sqrt(weights[upper])
        hessian = coords @ coords.T
        return rows, lambda: (hessian.__matmul__, hessian.diagonal())


#: Nodes per block in :func:`_quadratic_forms`.  The pool runs two starts at
#: once, and each holds one block's ``W_i @ Z`` and ``Z^T W_i Z``.  On the
#: dense-lti benchmark (d = 30 and 60, seed 0, 2 vCPUs, 5 alternating 10-s
#: runs, the CLI on one BLAS thread) blocks of 8 took a median 1.30 CPU-s
#: per pass (1.22-1.41) at 68.1-68.6 MB peak RSS; one block per node took
#: 1.98 (1.91-2.05, 5 of 5 runs slower) at 67.2-72.3 MB, and one block of
#: all nodes 1.53 (1.44-1.58, 5 of 5 slower) at 75.3-80.5 MB.  One d = 60
#: evaluation on one BLAS thread took 3.2-3.6 ms in blocks of 8, 4.5 ms per
#: node and 5.4-5.6 ms in one block.
_NODE_BLOCK = 8


def _quadratic_forms(vectors: np.ndarray, stack: np.ndarray, upper=None):
    """``(rows, coords)`` for the columns ``z_k`` of ``vectors`` (n, K) and
    the matrices ``W_i = stack[i]`` (m, n, n).

    ``rows[k, i] = z_k^T W_i z_k``, shape (K, m), C-contiguous.  With the
    index pair ``upper`` of a K x K triangle, row i of ``coords`` holds
    ``Q_i = Z^T W_i Z`` at ``upper``; else ``coords`` is None.  Both come
    from one product ``stack[block] @ Z`` per block of :data:`_NODE_BLOCK`
    nodes, which bounds the temporaries at ``_NODE_BLOCK`` x n x K.  Each
    entry is the one the same products give node by node, to the bit.
    """
    m = len(stack)
    rows = np.empty((m, vectors.shape[1]))
    coords = None if upper is None else np.empty((m, upper[0].size))
    for start in range(0, m, _NODE_BLOCK):
        block = slice(start, start + _NODE_BLOCK)
        products = stack[block] @ vectors
        rows[block] = (products * vectors).sum(axis=1)
        if coords is not None:
            coords[block] = (vectors.T @ products)[:, upper[0], upper[1]]
    # The gradient sums rows over axis 0.  On the transposed view that axis
    # is contiguous and numpy would sum it pairwise; the C-contiguous copy
    # keeps the node-by-node order, and so the bits.
    return np.ascontiguousarray(rows.T), coords


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
    With ``A = Z T Z^T`` the stored Schur factor, this solves the
    quasi-triangular equation ``T Y + Y T^T = Z^T (-d d^T) Z`` with LAPACK's
    ``dtrsyl`` and returns ``W = Z Y Z^T``.  These are the steps scipy's
    dense Lyapunov solver takes after its own ``schur`` call, so the result
    is the same to the bit, without re-factoring ``A`` for every node.
    ``dtrsyl`` reports ``info == 1`` when it had to perturb near-singular
    eigenvalue sums; such a solution is accepted only if it passes the
    residual check below, and nothing is printed.

    Raises
    ------
    IndexMismatch
        If ``node`` is not in ``1..n``.
    LyapunovSolveFailure
        If ``dtrsyl`` rejects an argument, or the residual exceeds
        ``DEFAULT_TOL * max(1, ||W||_F)``.
    """
    from scipy.linalg.lapack import dtrsyl

    n = system.n_dim
    if not 1 <= node <= n:
        raise IndexMismatch(f"node {node} out of range 1..{n}")
    direction = np.zeros(n)
    direction[node - 1] = 1.0
    rhs = -np.outer(direction, direction)
    a, form, vectors = system.dynamics, system.schur_form, system.schur_vectors
    solved, scale, info = dtrsyl(form, form, vectors.T @ (rhs @ vectors), tranb="T")
    if info < 0:
        raise LyapunovSolveFailure(
            f"Lyapunov solve failed for node {node}: dtrsyl argument {-info} is illegal"
        )
    solved *= scale
    gram = vectors @ solved @ vectors.T
    gram = 0.5 * (gram + gram.T)
    residual = np.linalg.norm(a @ gram + gram @ a.T - rhs)
    if residual > DEFAULT_TOL * max(1.0, float(np.linalg.norm(gram))):
        raise LyapunovSolveFailure(
            f"Lyapunov residual {residual:.3e} exceeds tolerance for node {node}"
        )
    return gram


def gramian_family(system: StableLTISystem, node_indices,
                   score_order: int | None = None) -> NodeGramianFamily:
    """The family of :func:`node_gramian` for every index in ``node_indices``,
    scored on its top ``score_order`` eigenvalues (default: all)."""
    indices = tuple(int(i) for i in node_indices)
    return NodeGramianFamily(indices, [node_gramian(system, i) for i in indices],
                             score_order)


def assemble_gramian(family: NodeGramianFamily, weights) -> np.ndarray:
    """Mixed Gramian ``W(p) = sum_i p_i W_i`` for the given weights."""
    return np.tensordot(weight_vector(weights, family.node_count), family.gramians,
                        axes=1)
