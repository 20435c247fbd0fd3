"""Independent references that only the tests read.

Each one recomputes something the package computes, by a different route,
or checks a property the package relies on: the finite-horizon Gramian and
the projection property of the discretized reachability operator, the top
eigenvalues of a plain matrix, a Monte-Carlo average of the minimum energy,
a joint diagonalizer that turns a commuting Gramian family into an
eigenvalue table (with the two errors only it raises), the dense Hessians
that the models' Hessian callables must agree with, a table's gradient and
Hessian product from a copy of its rows, the node-by-node derivative rows
and Hessian from the dense Gramians that the factored evaluation pass must
match to rounding, the array of a table given as its nonzeros, a writer
for the model-file format that the parser must read back, and the
multiplicative algorithm of optimal design, the reference solver of
full-spectrum scores without caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ctrlscore.errors import (
    CtrlscoreError,
    EigenFailure,
    IndexMismatch,
    NonSquare,
    RankDeficient,
)
from ctrlscore.linsys import (
    DEFAULT_TOL,
    DEGENERACY_GAP,
    NodeGramianFamily,
    StableLTISystem,
    assemble_gramian,
)
from ctrlscore.modelfile import SCHEMA_VERSION, ModelFile
from ctrlscore.simplex import weight_vector
from ctrlscore.spectral import CHECK_TOL, Nonzeros, SpectralModel, check_commuting


# ---------------------------------------------------------------------------
# eigenvalues and Gramians
# ---------------------------------------------------------------------------

def top_eigenvalues(matrix, count: int) -> np.ndarray:
    """The ``count`` largest eigenvalues of a symmetric PSD matrix, descending.

    Eigenvalues within ``-DEFAULT_TOL * max(1, mu_max)`` of zero are clamped
    to zero; anything more negative raises, since that indicates a modeling
    bug rather than roundoff.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquare(f"matrix must be square, got shape {arr.shape}")
    if not 0 < count <= arr.shape[0]:
        raise IndexMismatch(f"count {count} out of range 1..{arr.shape[0]}")
    scale = max(1.0, float(np.linalg.norm(arr)))
    if np.linalg.norm(arr - arr.T) > DEFAULT_TOL * scale:
        raise EigenFailure("matrix is not symmetric within tolerance")
    try:
        eigvals = np.linalg.eigvalsh(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigendecomposition failed: {exc}")
    eigvals = eigvals[::-1]
    floor = -DEFAULT_TOL * max(1.0, float(eigvals[0]) if eigvals.size else 1.0)
    if float(eigvals[-1]) < floor:
        raise EigenFailure(
            f"matrix has eigenvalue {eigvals[-1]:.3e} below the PSD tolerance"
        )
    return np.maximum(eigvals[:count], 0.0)


def finite_horizon_gramian(system: StableLTISystem, family: NodeGramianFamily,
                           weights, horizon: float) -> np.ndarray:
    """Horizon-T Gramian ``W(p, T) = W(p) - exp(TA) W(p) exp(TA)^T`` of the
    family of ``system``."""
    mixed = assemble_gramian(family, weights)
    decay = expm(horizon * system.dynamics)
    gram = mixed - decay @ mixed @ decay.T
    return 0.5 * (gram + gram.T)


def dense_table(table) -> np.ndarray:
    """The K x m array of a table: a ``SpectralModel``'s, or a
    ``ModelFile.table``, which is an array or its ``Nonzeros``."""
    if isinstance(table, SpectralModel):
        table = table.eigen_table
    if not isinstance(table, Nonzeros):
        return table
    dense = np.zeros(table.shape)
    dense[table.rows, table.cols] = table.values
    return dense


def n_spectrum_residual(table, n: int) -> float:
    """The top-n spectrum residual of a table by its definition, on the
    dense table, one column at a time: the ``n`` rows with the largest sums
    of the table over its largest entry's power of two (ties to the lowest
    row) span the modes, and column ``t`` leaves
    ``||t[outside]||_2 / ||t||_2``, taken on ``t`` over its own largest
    entry's power of two so that no square overflows."""
    table = dense_table(table)
    sums = np.ldexp(table, -math.frexp(table.max())[1]).sum(axis=1)
    outside = np.ones(len(table), dtype=bool)
    outside[np.argsort(-sums, kind="stable")[:n]] = False
    worst = 0.0
    for column in table.T:
        if column.max() > 0.0:
            unit = np.ldexp(column, -math.frexp(column.max())[1])
            worst = max(worst, np.linalg.norm(unit[outside]) / np.linalg.norm(unit))
    return float(worst)


def reference_hessian(model, pairs, divided) -> np.ndarray:
    """The dense Hessian of ``sum_k phi(mu_k(p))`` at ``pairs``, from the
    divided difference ``divided(a, b)`` of ``phi'``.

    Tables: ``rows^T (phi''(mu) * rows)`` with ``phi''(mu) = divided(mu, mu)``.
    Gramian families (whole spectrum): with ``Q_i = Z^T W_i Z``,
    ``H[i, j] = sum_kl divided(mu_k, mu_l) Q_i[k, l] Q_j[k, l]``.
    """
    mu = pairs.values
    if isinstance(model, SpectralModel):
        rows = dense_table(model)[pairs.selected]
        return rows.T @ (divided(mu, mu)[:, None] * rows)
    z = pairs.vectors
    quadratic = np.array([z.T @ gram @ z for gram in model.gramians])
    return np.einsum("kl,ikl,jkl->ij", divided(mu[:, None], mu[None, :]),
                     quadratic, quadratic)


def row_gradient(rows, mu, score) -> np.ndarray:
    """The gradient ``-sum_k rows[k] / s(mu_k)`` of ``sum_k phi(mu_k)`` for
    the derivative rows ``rows[k, i] = d mu_k / d p_i`` and the
    ``SCORES`` entry ``score``, from a divided copy of the rows."""
    return -(rows / score.s(mu)[:, None]).sum(axis=0)


def table_derivatives(model: SpectralModel, pairs, score):
    """``(gradient, matvec, diagonal)`` of a table's objective from a copy
    of its selected rows: :func:`row_gradient`, ``v -> rows^T (phi''(mu) *
    (rows v))`` and its diagonal ``sum_k phi''(mu_k) rows[k]**2``."""
    rows = dense_table(model)[pairs.selected]
    mu = pairs.values
    curvature = score.divided(mu, mu)
    return (row_gradient(rows, mu, score),
            lambda v: rows.T @ (curvature * (rows @ v)),
            (curvature[:, None] * rows**2).sum(axis=0))


def node_quadratic_rows(vectors, stack) -> np.ndarray:
    """``rows[k, i] = z_k^T W_i z_k`` for the columns ``z_k`` of ``vectors``
    and ``W_i = stack[i]``, one ``((W_i @ Z) * Z).sum(axis=0)`` per node."""
    return np.stack([((gram @ vectors) * vectors).sum(axis=0) for gram in stack],
                    axis=1)


def node_hessian(family: NodeGramianFamily, pairs, divided) -> np.ndarray:
    """The whole-spectrum Hessian ``C C^T``, one node at a time: row i of
    ``C`` is the upper triangle of ``Q_i = Z^T W_i Z``, scaled by
    ``sqrt(divided(mu_k, mu_l))`` and doubled off the diagonal."""
    mu, vectors = pairs.values, pairs.vectors
    upper = np.triu_indices(mu.size)
    coords = np.array([(vectors.T @ (gram @ vectors))[upper] for gram in family.gramians])
    weights = divided(mu[:, None], mu[None, :]) * (2.0 - np.eye(mu.size))
    coords *= np.sqrt(weights[upper])
    return coords @ coords.T


# ---------------------------------------------------------------------------
# minimum energy
# ---------------------------------------------------------------------------

def average_min_energy_monte_carlo(model, weights, num_samples: int = 100_000,
                                   seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo mean (and standard error) of the minimum energy over
    uniformly random unit-sphere targets in the top-``model.score_order``
    span.

    The closed-form expectation is ``(1/n) * sum_k 1/mu_k``; this sampler
    exists to verify that identity independently.
    """
    pairs = model.eigenpairs(weights)
    if not pairs.positive:
        raise RankDeficient("selected eigenvalues must be positive")
    mu = pairs.values
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((num_samples, mu.size))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    energies = (normals**2 / mu).sum(axis=1)
    mean = float(energies.mean())
    std_error = float(energies.std(ddof=1) / math.sqrt(num_samples))
    return mean, std_error


#: Relative floor below which :func:`projection_operator_check` counts an
#: eigenvalue of the discretized or the exact finite-horizon Gramian as zero:
#: the quadrature leaves errors far above ``eigh``'s, so this oracle keeps a
#: floor of its own, not the package's rule.
_RANK_FLOOR = 1e-12


@dataclass(frozen=True)
class ProjectionDiagnostics:
    """Residuals of the discretized input-space projection operator."""

    idempotency_residual: float
    symmetry_residual: float
    energy_discrete: float
    energy_exact: float
    energy_relative_error: float
    gramian_rank: int
    time_steps: int
    horizon: float


def projection_operator_check(system: StableLTISystem, family: NodeGramianFamily,
                              weights, count: int, horizon: float, time_steps: int,
                              target=None) -> ProjectionDiagnostics:
    """Check that ``P = L^T W_n^+ L`` acts as an orthogonal projection, for
    the family of ``system`` (nodes along the standard basis).

    The reachability operator over ``[0, T]`` is discretized on a midpoint
    grid: block ``j`` of ``L`` is ``exp((T - t_j) A) B sqrt(dt)`` with
    ``t_j = (j + 1/2) dt``, so ``L L^T`` is the midpoint-rule Gramian (the
    midpoint rule keeps the quadrature error at O(dt^2), which the energy
    comparison below needs).  The Frobenius norms of ``P^2 - P`` and
    ``P^T - P`` are evaluated through the factorization
    ``||L^T M L||_F^2 = tr(M W M^T W)``, never forming the large operator.

    The discretized minimum energy ``x_f^T W_n^+ x_f`` is compared against
    the exact ``x_f^T W(p, T)^{-1} x_f`` (full-rank selection) or its
    eigenvalue form.  This is a diagnostic: rank deficiency is reported, not
    raised.
    """
    if time_steps < 1:
        raise IndexMismatch("time_steps must be >= 1")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise IndexMismatch("projection check needs a finite positive horizon")
    a = system.dynamics
    n_dim = system.n_dim
    p = weight_vector(weights, family.node_count)

    # Input matrix: node directions scaled by sqrt(p_i).
    columns = np.eye(n_dim)[:, [idx - 1 for idx in family.node_indices]]
    input_matrix = columns * np.sqrt(p)

    dt = horizon / time_steps
    stepper = expm(a * dt)
    block = expm(a * (0.5 * dt))  # exp((T - t_{N-1}) A), t_{N-1} = T - dt/2
    discrete = np.zeros((n_dim, n_dim))
    for _ in range(time_steps):
        scaled = block @ input_matrix
        discrete += scaled @ scaled.T * dt
        block = stepper @ block
    discrete = 0.5 * (discrete + discrete.T)

    eigvals, eigvecs = np.linalg.eigh(discrete)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    floor = _RANK_FLOOR * max(1.0, eigvals[0])
    rank = int(np.sum(eigvals > floor))
    used = min(count, rank) if rank else 0

    if used:
        sel_vals = eigvals[:used]
        sel_vecs = eigvecs[:, :used]
        pseudo = (sel_vecs / sel_vals) @ sel_vecs.T
    else:
        pseudo = np.zeros((n_dim, n_dim))

    def factored_norm(middle: np.ndarray) -> float:
        return float(math.sqrt(abs(np.trace(middle @ discrete @ middle.T @ discrete))))

    idem = factored_norm(pseudo @ discrete @ pseudo - pseudo)
    sym = factored_norm(pseudo.T - pseudo)

    if target is None:
        target = np.ones(n_dim) / math.sqrt(n_dim)
    target = np.asarray(target, dtype=float)
    energy_discrete = float(target @ pseudo @ target)

    energy_exact = rel = math.inf
    if used:
        exact_vals, exact_vecs = np.linalg.eigh(finite_horizon_gramian(system, family, p, horizon))
        exact_vals, exact_vecs = exact_vals[::-1][:used], exact_vecs[:, ::-1][:, :used]
        if exact_vals[-1] > _RANK_FLOOR * exact_vals[0]:
            coeffs = exact_vecs.T @ target
            energy_exact = float(np.sum(coeffs**2 / exact_vals))
            rel = abs(energy_discrete - energy_exact) / max(abs(energy_exact), 1e-300)

    return ProjectionDiagnostics(
        idempotency_residual=idem,
        symmetry_residual=sym,
        energy_discrete=energy_discrete,
        energy_exact=energy_exact,
        energy_relative_error=rel,
        gramian_rank=rank,
        time_steps=time_steps,
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# joint diagonalization
# ---------------------------------------------------------------------------

def _refine_block(block_vectors: np.ndarray, grams, gram_index: int,
                  gap: float) -> np.ndarray:
    """Rotate ``block_vectors`` to diagonalize ``grams[gram_index:]`` on their span.

    The block is split where the eigenvalues of ``grams[gram_index]`` restricted
    to it have a gap, and each tied group is refined by the next matrix.
    """
    if block_vectors.shape[1] <= 1 or gram_index >= len(grams):
        return block_vectors
    restricted = block_vectors.T @ grams[gram_index] @ block_vectors
    restricted = 0.5 * (restricted + restricted.T)
    vals, vecs = np.linalg.eigh(restricted)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    rotated = block_vectors @ vecs
    scale = max(1.0, float(abs(vals[0])) if vals.size else 1.0)
    pieces = []
    start = 0
    for stop in range(1, vals.size + 1):
        if stop == vals.size or vals[stop - 1] - vals[stop] > gap * scale:
            pieces.append(
                _refine_block(rotated[:, start:stop], grams, gram_index + 1, gap)
            )
            start = stop
    return np.hstack(pieces)


class NotCommuting(CtrlscoreError):
    """The Gramian family does not commute within tolerance."""


class DiagonalizationResidualTooLarge(CtrlscoreError):
    """Joint diagonalization failed to reconstruct the family within tolerance."""


def spectral_model_from_gramians(family: NodeGramianFamily,
                                 score_order: int | None = None) -> SpectralModel:
    """Jointly diagonalize a commuting family into a spectral model.

    The shared eigenbasis is the eigenbasis of ``sum_i W_i``, refined inside
    degenerate eigenvalue blocks by recursively diagonalizing each ``W_i``
    restricted to the block.  Rows come out ordered by descending eigenvalue
    of the sum.  The reconstruction ``||W_i - Z diag(table[:, i]) Z^T||_F``
    is verified for every node.

    Raises
    ------
    NotCommuting
        If the family's commutator residual exceeds ``CHECK_TOL``.
    DiagonalizationResidualTooLarge
        If any reconstruction residual exceeds ``CHECK_TOL``.
    """
    commuting, residual = check_commuting(family)
    if not commuting:
        raise NotCommuting(
            f"family commutator residual {residual:.3e} "
            f"exceeds tolerance {CHECK_TOL:.1e}"
        )
    n_dim = family.mode_count
    n = n_dim if score_order is None else int(score_order)

    total = np.sum(family.gramians, axis=0)
    basis = _refine_block(np.eye(n_dim), (total, *family.gramians), 0, DEGENERACY_GAP)

    table = node_quadratic_rows(basis, family.gramians)
    table[(table < 0) & (table > -CHECK_TOL)] = 0.0

    worst = 0.0
    for col, gram in enumerate(family.gramians):
        rebuilt = (basis * table[:, col]) @ basis.T
        worst = max(
            worst,
            float(np.linalg.norm(gram - rebuilt) / max(1.0, np.linalg.norm(gram))),
        )
    if worst > CHECK_TOL or np.any(table < 0):
        raise DiagonalizationResidualTooLarge(
            f"joint diagonalization residual {worst:.3e} "
            f"exceeds tolerance {CHECK_TOL:.1e}"
        )
    return SpectralModel(family.node_indices, table, n)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def model_file_from_spectral(model: SpectralModel, caps=None) -> ModelFile:
    """Wrap a spectral model as a serializable ``spectral_table`` file."""
    caps_tuple = None if caps is None else tuple(float(c) for c in caps)
    return ModelFile(
        schema_version=SCHEMA_VERSION,
        kind="spectral_table",
        node_indices=model.node_indices,
        score_order=model.score_order,
        caps=caps_tuple,
        table=model.eigen_table,
    )


def dump_model_text(model: ModelFile) -> str:
    """Serialize a ModelFile back to the text format (full float precision)."""
    out = [f"ctrlscore-model v{model.schema_version}"]
    out.append(f"kind {model.kind}")
    out.append("nodes " + " ".join(str(i) for i in model.node_indices))
    if model.score_order is not None:
        out.append(f"n {model.score_order}")
    if model.caps is not None:
        out.append("caps " + " ".join(repr(c) for c in model.caps))
    if model.dynamics is not None:
        out.append(f"matrix {len(model.dynamics)}")
        out.extend(" ".join(repr(float(x)) for x in row) for row in model.dynamics)
    if model.table is not None:
        table = dense_table(model.table)
        out.append(f"table {len(table)} {len(table[0])}")
        out.extend(" ".join(repr(float(x)) for x in row) for row in table)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# optimal design
# ---------------------------------------------------------------------------

#: The reference design algorithm stops at this relative equivalence gap.
DESIGN_GAP = 1e-10


def multiplicative_design(gramians, kind: str, max_iters: int = 10_000):
    """``(weights, objective)`` of the full-spectrum score ``kind``
    (``"vcs"`` or ``"aecs"``) over the simplex, for node Gramians ``W_i``
    stacked as an m x d x d array, by the classical multiplicative
    algorithm of optimal design from the uniform point.

    VCS, ``-log det W(p)``, is D-optimal design, updated by
    ``p_i <- p_i tr(W^-1 W_i) / d`` (Titterington 1976; Silvey, Titterington
    & Torsney, Comm. Statist. 1978).  AECS, ``tr W(p)^-1``, is A-optimal
    design, updated by ``p_i <- p_i sqrt(tr(W^-2 W_i))``, renormalized
    (Fellman 1974; Yu, Ann. Statist. 2010).  Both are monotone.  Each stops
    once the relative Kiefer-Wolfowitz equivalence gap ``max_i s_i / (p @ s)
    - 1`` is at most :data:`DESIGN_GAP`, with ``s_i = tr(W^-1 W_i)``, whose
    mean ``p @ s`` is ``d``, or ``s_i = tr(W^-2 W_i)``, whose mean is
    ``tr W^-1``.  numpy only, and no package code.
    """
    stack = np.asarray(gramians, dtype=float)
    size, dim = stack.shape[:2]
    weights = np.full(size, 1.0 / size)
    for _ in range(max_iters):
        mixed = np.einsum("i,ijk->jk", weights, stack)
        inverse = np.linalg.inv(mixed)
        weighting = inverse if kind == "vcs" else inverse @ inverse
        slopes = np.einsum("jk,ijk->i", weighting, stack)
        if slopes.max() <= (1.0 + DESIGN_GAP) * (weights @ slopes):
            if kind == "vcs":
                return weights, -np.linalg.slogdet(mixed)[1]
            return weights, float(np.trace(inverse))
        weights = weights * (slopes / dim if kind == "vcs" else np.sqrt(slopes))
        weights /= weights.sum()
    raise AssertionError(f"no equivalence gap of {DESIGN_GAP} in {max_iters} steps")


def table_gramians(table) -> np.ndarray:
    """The node Gramians of a table, ``diag(T[:, i])`` stacked."""
    dense = dense_table(table)
    stack = np.zeros((dense.shape[1], dense.shape[0], dense.shape[0]))
    modes = np.arange(dense.shape[0])
    stack[:, modes, modes] = dense.T
    return stack
