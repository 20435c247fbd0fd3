"""Capped-simplex solver for the score problems, plus independent oracles.

Each descent step first tries projected Newton (Bertsekas, SIAM J. Control
Optim. 1982): coordinates held on a bound stay there, and on the free face
the Newton system ``min s^T H s / 2 + g^T s`` subject to ``sum(s) = 0`` is
solved by a projected preconditioned CG in numpy (Gould, Hribar & Nocedal,
SIAM J. Sci. Comput. 2001) with the Jacobi preconditioner.  The Hessian
enters only as ``(matvec, diagonal)`` at the evaluation's own point, from
the callable that ``model.derivatives`` handed the evaluation
(``ObjectiveEvaluation.curvature``); the solver never asks how it is made.
Where the model gives no Hessian (a Gramian family scored on fewer than all
its eigenvalues) or eigenvalues n and n + 1 (nearly) tie, and whenever the
Newton line search fails, the step is projected gradient with a
Barzilai-Borwein first trial.  The Newton line search starts at the full
step, or where that moves a weight by more than the simplex's width of 1,
at the step that moves the largest weight by 1: along a direction of
near-zero curvature, such as between two nearly identical nodes, the full
step can be longer than the simplex by orders of magnitude, and every
trial would overshoot.  Both line searches project each trial point
back onto the feasible polytope and backtrack under one Armijo rule; a trial
that evaluates to ``+inf`` (eigenvalue rank loss) simply fails it, so the
boundary of the feasible region acts as a barrier.  Convergence is declared
on the projected-gradient residual

    r(p) = || p - project(p - grad h(p)) ||_inf

of the scale-free objective ``h``: ``h = f`` for VCS and ``h = log g`` for
AECS, whose gradient is ``grad g / g``.  Scaling every Gramian by a constant
leaves ``r`` unchanged.  ``r`` is the KKT stationarity measure for this
constraint set and the only one the package computes (:func:`kkt_residual`
reports it at any feasible point).  A Newton step that reaches
:data:`GRAD_TOL` is followed by one more, which lands on the optimum to
rounding.  The descents of :func:`solve` and :func:`kkt_residual` work in
one unit of measure (:func:`~ctrlscore.spectral._in_unit`, which also
builds a family's node factor before any start runs), and only the
objectives go back to the caller's units; the checks run on the caller's
model.  A brute-force lattice enumeration of the caller's model, in
bounded memory (:func:`grid_oracle`), checks the optimizer independently
on small node sets.

Multi-start behaviour: models that pass the commutation, n-spectrum and
feasibility checks have a provably unique optimum and run a single start;
anything else runs :data:`UNCERTIFIED_STARTS`.  Start 0 is the central
point, the witness of :func:`~ctrlscore.spectral.check_feasibility`, the
rest are seeded Dirichlet samples projected onto the set; a start with an
infinite objective is dropped with a warning.  Starts that disagree on the
optimal value by more than ``1e-6`` on the scale-free objective (VCS, or
the log of AECS: :func:`~ctrlscore.scores.scale_free_gap`), which no unit
of the model moves, raise :class:`~ctrlscore.errors.NonConvexAmbiguous`
(with the merged result attached).  Several starts run on a thread pool with one
worker per CPU, at most one per start; each start's descent is the same
serial computation either way.  The pool is the only parallelism of a CLI
command where :mod:`ctrlscore.cli` is imported before numpy, which then
loads both OpenBLAS copies on one thread; a library call keeps whatever
BLAS threading its caller set.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (BadGridStep, BeyondDoubleRange, Infeasible, InfeasiblePoint,
                     NonConvexAmbiguous, TooLarge)
from .scores import ObjectiveKind, _Objective, scale_free_gap
from .simplex import (SimplexWeights, project_capped_simplex, validate_caps,
                      weight_vector)
from .spectral import AssumptionReport, _in_unit, check_feasibility

_EPS = float(np.finfo(float).eps)
#: A descent stops once the scale-free projected-gradient residual is at most
#: this.
GRAD_TOL = 1e-9
#: A descent that has not converged stops after this many steps.
MAX_ITERS = 5000
#: Starts run on a model whose uniqueness is not certified (else one).
UNCERTIFIED_STARTS = 8
#: The line search shrinks a rejected trial step by this factor.
STEP_SHRINK = 0.5
#: Armijo sufficient-decrease constant of the line search.
ARMIJO_C = 1e-4
#: Relative stop of the Newton step's CG: ``r^T z`` falls by this squared.
CG_RTOL = 1e-10
#: The Newton line search gives up below this fraction of its first trial,
#: the full step or, where that moves a weight by more than 1, the step
#: that moves the largest weight by 1.
NEWTON_MIN_STEP = 1e-3
#: Most lattice points :func:`grid_oracle` enumerates.
GRID_BUDGET = 2_000_000
#: Most lattice points :func:`grid_oracle` builds and evaluates at once:
#: enough to spread numpy's per-call cost, few enough to bound memory.  On
#: heat 1..5 at step 0.02 (316,251 points), blocks of 2^12, 2^14 and 2^16
#: rows peak at 0.9, 3.7 and 14.4 MiB traced, against 64.7 MiB for one
#: block over the lattice; their CPU times overlapped within the noise of
#: a shared 2-vCPU host.
_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class ScoreResult:
    """Solver output: optimal weights plus certification diagnostics."""

    weights: SimplexWeights
    objective: float
    kkt_residual: float
    iterations: int
    assumption_report: AssumptionReport
    uniqueness_certified: bool
    converged: bool
    warnings: tuple[str, ...]
    start_objectives: tuple[float, ...]
    score_order: int


def _kkt(objective: _Objective, evaluation, point: np.ndarray,
         caps: np.ndarray) -> tuple[np.ndarray, float]:
    """``(target, residual)`` at a feasible evaluation: the projected-gradient
    point ``target = project(p - g)`` of the scale-free gradient ``g`` and
    the KKT residual ``max|p - target|``."""
    target = project_capped_simplex(
        point - objective.stationarity_gradient(evaluation), caps)
    return target, float(np.max(np.abs(point - target)))


def _projected_cg(matvec, diagonal: np.ndarray, grad: np.ndarray,
                  free: np.ndarray) -> np.ndarray | None:
    """Newton step on the free face: approximately minimize
    ``s^T H s / 2 + grad^T s`` over ``s`` with ``sum(s) == 0`` and ``s`` zero
    off ``free``.

    Projected preconditioned CG (Gould, Hribar & Nocedal, SIAM J. Sci.
    Comput. 2001) with the Jacobi preconditioner ``D = diag H``: the
    preconditioned residual ``z = D^-1 (r - nu 1)`` takes the multiplier
    ``nu = 1^T D^-1 r / 1^T D^-1 1`` of the sum constraint, so every search
    direction keeps ``sum == 0``.  The residual is reset by ``nu`` each step,
    starting from ``grad - nu_0 1``: near the optimum ``grad`` is almost
    parallel to ``1``, and an unreset residual loses the small part that
    matters to cancellation.  The iteration stops once ``r^T z`` has fallen
    by :data:`CG_RTOL` squared, or on a direction without positive
    curvature.  Returns None when no step was made.
    """
    inverse = 1.0 / diagonal[free]
    weight = float(inverse.sum())
    face_grad = grad[free]
    residual = face_grad - float(inverse @ face_grad) / weight
    precond = inverse * residual
    rz = float(residual @ precond)
    stop = CG_RTOL**2 * rz
    step = np.zeros(residual.size)
    search = -precond
    probe = np.zeros(grad.size)
    for _ in range(residual.size):
        probe[free] = search
        product = matvec(probe)[free]
        curvature = float(search @ product)
        if not curvature > 0.0:
            break
        alpha = rz / curvature
        step += alpha * search
        residual = residual + alpha * product
        residual -= float(inverse @ residual) / weight
        precond = inverse * residual
        rz_next = float(residual @ precond)
        if rz_next <= stop:
            break
        search = (rz_next / rz) * search - precond
        rz = rz_next
    if not np.any(step):
        return None
    full = np.zeros(grad.size)
    full[free] = step
    return full


def _newton_direction(evaluation, point: np.ndarray, target: np.ndarray,
                      caps: np.ndarray) -> np.ndarray | None:
    """Projected-Newton direction (Bertsekas, SIAM J. Control Optim. 1982).

    ``target`` is the projected-gradient point of the scale-free gradient.
    A coordinate that sits on a bound which ``target`` keeps it on is held
    there; the others form the free face, where :func:`_projected_cg` takes
    the Newton step.  Iterates come out of the projection, which clips to the
    bounds exactly, so exact comparisons find the held coordinates.  None
    where the model gives no Hessian, eigenvalues ``n`` and ``n + 1``
    (nearly) tie, the face has no room, or a free coordinate has no
    curvature.  None also where the Hessian's diagonal is not finite, as
    when ``mu_n^4`` underflows in the AECS curvature: its products would
    read ``inf * 0``."""
    if evaluation.near_degenerate or evaluation.curvature is None:
        return None
    matvec, diagonal = evaluation.curvature()
    free = ~(((point == 0.0) & (target == 0.0))
             | ((point == caps) & (target == caps)))
    if (np.count_nonzero(free) < 2 or not np.all(diagonal[free] > 0.0)
            or not np.isfinite(diagonal).all()):
        return None
    return _projected_cg(matvec, diagonal, evaluation.gradient, free)


@dataclass(eq=False)
class _Trajectory:
    point: np.ndarray
    value: float
    residual: float
    iterations: int
    converged: bool
    warnings: tuple[str, ...]


def _descend(objective: _Objective, start: np.ndarray,
             caps: np.ndarray) -> _Trajectory:
    point = start.copy()
    current = objective(point)
    if not current.feasible:
        return _Trajectory(point, math.inf, math.inf, 0, False,
                           ("start point infeasible",))
    warnings: list[str] = []
    step = 1.0 / (1.0 + float(np.max(np.abs(current.gradient))))
    prev_point: np.ndarray | None = None
    prev_grad: np.ndarray | None = None
    iterations = 0

    def line_search(direction, size, smallest):
        """``(trial, evaluation, size, pair)`` for the first trial point
        ``project(p + size * direction)`` that passes, halving ``size`` down
        to ``smallest`` (0 for the gradient step, whose sizes scale as
        ``1 / |grad|``) or until the trial stops moving; None if none passes.
        ``pair`` is the trial's :func:`_kkt` where the search computed it,
        else None.

        Armijo with a float-plateau safeguard: once the predicted decrease
        falls below the resolution of the objective value, Armijo can no
        longer certify progress (equal floats pass the test even for
        overshooting steps), so acceptance switches to a strict decrease of
        the stationarity residual."""
        plateau_tol = 64.0 * _EPS * (1.0 + abs(current.value))
        while size > smallest:
            trial = project_capped_simplex(point + size * direction, caps)
            moved = trial - point
            if not np.any(moved):
                break  # nor does a shorter step move it
            candidate = objective(trial)
            predicted = ARMIJO_C * float(current.gradient @ moved)
            pair = None
            if not candidate.feasible:
                ok = False
            elif abs(predicted) >= plateau_tol:
                ok = candidate.value <= current.value + predicted
            else:
                ok = candidate.value <= current.value + plateau_tol
                if ok:
                    pair = _kkt(objective, candidate, trial, caps)
                    ok = pair[1] < residual
            if ok:
                return trial, candidate, size, pair
            size *= STEP_SHRINK
        return None

    newton_step = finishing = False
    pair = None  # the current point's _kkt, where a line search computed it
    for _ in range(MAX_ITERS):
        grad = current.gradient
        target, residual = pair or _kkt(objective, current, point, caps)
        # A Newton step that reached the tolerance is inside the quadratic
        # region, so one more lands on the optimum to rounding: the finish.
        if residual <= GRAD_TOL and (finishing or not newton_step):
            break
        finishing = residual <= GRAD_TOL
        iterations += 1

        # Projected Newton first; if its line search fails, the
        # projected-gradient step below is taken from the same point.
        newton = _newton_direction(current, point, target, caps)
        accepted = None
        if newton is not None:
            first = min(1.0, 1.0 / float(np.max(np.abs(newton))))
            accepted = line_search(newton, first, NEWTON_MIN_STEP * first)
        newton_step = accepted is not None
        if finishing and not newton_step:
            break

        # Barzilai-Borwein spectral step as the first trial size; Armijo
        # backtracking still decides acceptance, so descent is kept.
        if prev_point is not None:
            dp = point - prev_point
            dg = grad - prev_grad
            curvature = float(dp @ dg)
            if curvature > 0.0:
                step = float(dp @ dp) / curvature
        prev_point, prev_grad = point, grad
        if accepted is None:
            accepted = line_search(-grad, min(step * 2.0, 1e12), 0.0)
            if accepted is None:
                warnings.append("line search stalled before reaching grad_tol")
                break
            step = accepted[2]
        point, current, _, pair = accepted
    else:
        # Only this exit has moved the point since the last residual.
        warnings.append("MaxItersExceeded: returning best iterate")
        residual = (pair or _kkt(objective, current, point, caps))[1]

    converged = residual <= GRAD_TOL
    return _Trajectory(point, current.value, residual, iterations, converged,
                       tuple(warnings))


def _starting_points(count: int, caps: np.ndarray, seed: int,
                     witness: SimplexWeights) -> list[np.ndarray]:
    """The witness, then ``count - 1`` seeded Dirichlet samples projected
    onto the set.  A single start draws nothing, so a certified solve never
    imports ``numpy.random``."""
    points = [witness.values]
    if count > 1:
        rng = np.random.default_rng(seed)
        while len(points) < count:
            sample = rng.dirichlet(np.ones(caps.size))
            points.append(project_capped_simplex(sample, caps))
    return points


def solve(kind: ObjectiveKind, model, *, caps=None, seed: int = 0) -> ScoreResult:
    """Minimize a score objective over the capped simplex.

    Parameters
    ----------
    kind : ObjectiveKind
        Which score to compute.
    model : SpectralModel or NodeGramianFamily
        The system under evaluation, scored on its top ``model.score_order``
        eigenvalues.
    caps : array-like, optional
        Per-node upper bounds (defaults to all ones).
    seed : int, optional
        Seeds the extra starts of an uncertified model, and therefore the
        whole solve.

    Raises
    ------
    ValueError
        If ``seed`` is not an integer ``>= 0`` (``operator.index``, so
        numpy integers pass), whether or not the solve draws from it.
    InvalidWeights
        If ``caps`` is not a nonnegative vector with one entry per node.
    Infeasible
        If ``mu_n`` is not positive at the central point of the capped
        simplex (:func:`check_feasibility`); the message says why.
    BeyondDoubleRange
        If the model is feasible but no start has a finite score in the
        unit of :func:`~ctrlscore.spectral._in_unit`: its ``mu_n`` lies too
        far below ``mu_1`` at the central point for double precision, or an
        entry flushed to zero in the unit.  Also if the best start's score,
        finite in that unit, overflows in the model's own units.  The
        message gives both eigenvalues, at the central point or at that
        start's optimum.
    NonConvexAmbiguous
        If multi-starts disagree on the optimal value by more than 1e-6,
        VCS as it is and AECS by its log (:func:`scale_free_gap`).  The
        merged result is attached to the exception.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    objective = _Objective(kind, model)
    caps_arr = validate_caps(caps, objective.node_count)
    report = check_feasibility(model, caps=caps_arr)
    if not report.feasible:
        raise Infeasible(f"no feasible weights: {report.reason}")
    certified = report.all_pass()
    n_starts = 1 if certified else UNCERTIFIED_STARTS
    starts = _starting_points(n_starts, caps_arr, seed, report.witness)

    in_unit = _Objective(kind, _in_unit(model))
    workers = min(os.cpu_count() or 1, n_starts)
    if workers == 1:
        trajectories = [_descend(in_unit, s, caps_arr) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trajectories = list(
                pool.map(lambda s: _descend(in_unit, s, caps_arr), starts)
            )

    def beyond_range(point, where: str) -> BeyondDoubleRange:
        mu = model.eigenpairs(point).values
        return BeyondDoubleRange(
            f"the {kind.value} score is not finite in double precision at "
            f"{where}, where mu_{model.score_order} = {mu[-1]:.3e} and "
            f"mu_1 = {mu[0]:.3e}")

    finite_idx = [i for i, t in enumerate(trajectories) if math.isfinite(t.value)]
    if not finite_idx:  # start 0, the witness, is feasible in the model's units
        raise beyond_range(report.witness, "the central point")
    converged_idx = [i for i in finite_idx if trajectories[i].converged]
    candidate_idx = converged_idx if converged_idx else finite_idx
    best_idx = min(candidate_idx, key=lambda i: (trajectories[i].value, i))
    best = trajectories[best_idx]
    reported = tuple(objective.value(t.point) for t in trajectories)
    if not math.isfinite(reported[best_idx]):
        raise beyond_range(best.point, "the optimum")

    warnings: list[str] = []
    if not certified:
        failed = [name for name, ok in (("commuting", report.commuting),
                                        ("n-spectrum", report.n_spectrum))
                  if not ok]
        warnings.append(
            "uniqueness not certified (failed checks: " + ", ".join(failed)
            + "); the objective may be a minimum over eigenvalue selections"
        )
    for t in trajectories:
        for w in t.warnings:
            if w not in warnings:
                warnings.append(w)
    if not best.converged:
        warnings.append(
            f"solver did not reach grad_tol (residual {best.residual:.3e})"
        )

    result = ScoreResult(
        weights=SimplexWeights(best.point, caps_arr.copy()),
        objective=reported[best_idx],
        kkt_residual=float(best.residual),
        iterations=best.iterations,
        assumption_report=report,
        uniqueness_certified=certified,
        converged=best.converged,
        warnings=tuple(warnings),
        start_objectives=reported,
        score_order=model.score_order,
    )

    values = [trajectories[i].value for i in candidate_idx]
    if len(values) > 1 and scale_free_gap(kind, max(values), min(values)) > 1e-6:
        raise NonConvexAmbiguous(
            "starts disagree on the optimal value: "
            + ", ".join(f"{reported[i]:.9g}" for i in candidate_idx),
            result=result,
        )
    return result


def grid_units(step: float) -> int:
    """``1 / step`` for a lattice step; raises :class:`BadGridStep` unless
    ``step`` is finite, in ``(0, 1]`` and divides 1, and :class:`TooLarge`
    if it splits 1 into more than :data:`GRID_BUDGET` parts."""
    if not (math.isfinite(step) and 0.0 < step <= 1.0):
        raise BadGridStep(f"grid step {step!r} must be a finite number in (0, 1]")
    if 1.0 / step > GRID_BUDGET + 0.5:
        raise TooLarge(f"grid step {step!r} splits 1 into more than "
                       f"{GRID_BUDGET} parts")
    units = round(1.0 / step)
    if abs(units * step - 1.0) > 1e-9:
        raise BadGridStep(f"grid step {step!r} must divide 1")
    return units


def _completions(units: int, cap_units: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Count the lattice before any row is built.

    Entry ``c`` is ``(low, totals)``: ``totals[left - low]`` is the number
    of rows that a prefix of ``c`` columns completes to when it leaves
    ``low``, ``low + 1``, ... or ``left`` units, for ``left`` from
    ``low = max(0, units - caps before c)`` to ``min(units, caps from c on)``;
    no other remainder completes.  Each column's counts are window sums of
    the next column's, O(units) per column.  Every remainder in range is
    left by some prefix, so a column whose counts sum past
    :data:`GRID_BUDGET` raises :class:`TooLarge` at once, and no count
    overflows.  Entry 0 holds the lattice's size.
    """
    total = int(cap_units.sum())
    if total < units:
        raise Infeasible("no lattice point lies inside the capped simplex")
    before = np.concatenate([[0], np.cumsum(cap_units)])
    counts = [(0, np.ones(1, dtype=np.int64))]
    for c in range(cap_units.size - 1, -1, -1):
        low = max(0, units - int(before[c]))
        high = min(units, total - int(before[c]))
        next_low, totals = counts[-1]
        sums = np.concatenate([[0], totals])
        left = np.arange(low, high + 1)
        top = np.minimum(left, next_low + totals.size - 1) - next_low + 1
        bottom = np.maximum(left - cap_units[c], next_low) - next_low
        totals = np.cumsum(sums[top] - sums[bottom])
        if totals[-1] > GRID_BUDGET:
            raise TooLarge(f"lattice has at least {totals[-1]} points, "
                           f"budget is {GRID_BUDGET}")
        counts.append((low, totals))
    return counts[::-1]


def _lattice(units: int, cap_units: np.ndarray):
    """``(size, blocks)``: the number of integer rows ``0 <= k <= cap_units``
    with ``sum(k) == units``, and an iterator over those rows in
    lexicographic order, in blocks of :data:`_BLOCK_ROWS` (the last holds
    the rest).

    The lattice is counted first (:func:`_completions`), so
    :class:`Infeasible` and :class:`TooLarge` are raised by the call, before
    any row exists.  Each block is unranked from its ranks (Nijenhuis &
    Wilf, *Combinatorial Algorithms*, 1978), a column at a time by one
    ``searchsorted`` over the next column's running totals: a row takes the
    value whose completions, in value order, cover what is left of its
    rank, and the last column takes the remainder.
    """
    counts = _completions(units, cap_units)
    size = int(counts[0][1][-1])

    def blocks():
        for first in range(0, size, _BLOCK_ROWS):
            rank = np.arange(first, min(first + _BLOCK_ROWS, size))
            left = np.full(rank.size, units)
            rows = np.empty((rank.size, cap_units.size), dtype=np.int64)
            for c, (low, totals) in enumerate(counts[1:-1]):
                # Uncapped, the rows that leave at most ``k`` units are the
                # last ``totals[k - low]``; ``target`` is the row's rank from
                # that end, so it leaves the least ``k`` whose total reaches it.
                target = totals[np.minimum(left - low, totals.size - 1)] - rank
                index = np.searchsorted(totals, target)
                rows[:, c] = left - low - index
                left = low + index
                rank = totals[index] - target
            rows[:, -1] = left
            yield rows

    return size, blocks()


def grid_oracle(kind: ObjectiveKind, model, *, step: float = 0.01,
                caps=None) -> tuple[SimplexWeights, float]:
    """Exhaustive lattice minimization over the capped simplex.

    Enumerates every point of the lattice with spacing ``step`` inside the
    feasible polytope and returns the minimizer and its objective value
    (the first minimizer in lexicographic order).  ``step`` must divide 1
    (see :func:`grid_units`).  This is deliberately independent of the
    descent so it can serve as a correctness oracle.  The lattice is
    counted before any point is evaluated, then unranked and evaluated in
    blocks of :data:`_BLOCK_ROWS` points (:func:`_lattice`), so its memory
    is bounded by a block, not by the lattice.

    Raises
    ------
    TooLarge
        If the lattice holds more than :data:`GRID_BUDGET` points.
    Infeasible
        If no lattice point lies inside the capped simplex, or the
        objective is infinite at every one.
    """
    objective = _Objective(kind, model)
    caps_arr = validate_caps(caps, objective.node_count)
    units = grid_units(step)
    cap_units = np.minimum(np.floor(caps_arr * units + 1e-9), units).astype(int)
    size, blocks = _lattice(units, cap_units)
    best, best_value = None, math.inf
    for rows in blocks:
        points = rows * step
        if len(points) == 1 < size:
            # numpy multiplies a single row by gemv, which can round
            # differently from the gemm of a longer batch: evaluate two
            # copies, so the point gets the value the whole lattice gives it.
            values = objective.batch_values(np.repeat(points, 2, axis=0))[:1]
        else:
            values = objective.batch_values(points)
        first = int(np.argmin(values))
        if values[first] < best_value:  # strict: ties keep the earlier point
            best, best_value = points[first].copy(), float(values[first])
    if not math.isfinite(best_value):
        raise Infeasible("objective is infinite on the whole lattice")
    return SimplexWeights(best, caps_arr.copy()), best_value


def kkt_residual(kind: ObjectiveKind, model, weights, *, caps=None) -> float:
    """The scale-free projected-gradient residual ``r(p)`` at a given
    feasible point (on ``grad f`` for VCS, ``grad g / g`` for AECS), the
    stationarity measure the solver stops on.

    Raises
    ------
    InfeasiblePoint
        If the point leaves the capped simplex or the objective is infinite.
    """
    objective = _Objective(kind, _in_unit(model))
    if isinstance(weights, SimplexWeights) and caps is None:
        caps = weights.caps
    caps_arr = validate_caps(caps, objective.node_count)
    p = weight_vector(weights, objective.node_count)
    if (abs(p.sum() - 1.0) > 1e-9 or np.any(p < -1e-9)
            or np.any(p > caps_arr + 1e-9)):
        raise InfeasiblePoint("point is outside the capped simplex")
    evaluation = objective(p)
    if not evaluation.feasible:
        raise InfeasiblePoint("objective is infinite at this point")
    return _kkt(objective, evaluation, p, caps_arr)[1]
