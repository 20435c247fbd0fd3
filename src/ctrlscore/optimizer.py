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
Barzilai-Borwein first trial.  Both line searches project each trial point
back onto the feasible polytope and backtrack under one Armijo rule; a trial
that evaluates to ``+inf`` (eigenvalue rank loss) simply fails it, so the
boundary of the feasible region acts as a barrier.  Convergence is declared
on the projected-gradient residual

    r(p) = || p - project(p - grad h(p)) ||_inf

of the scale-free objective ``h``: ``h = f`` for VCS and ``h = log g`` for
AECS, whose gradient is ``grad g / g``.  Scaling every Gramian by a constant
leaves ``r`` unchanged, so the stopping test does not depend on the units
of the model.  ``r`` is the KKT stationarity measure for this constraint set
and the only one the package computes (:func:`kkt_residual` reports it at
any feasible point).  A Newton step that reaches :data:`GRAD_TOL` is
followed by one more, which lands on the optimum to rounding.  A
brute-force lattice enumeration (:func:`grid_oracle`, built in numpy one
column at a time and capped at :data:`GRID_BUDGET` points) provides an
independent check of the optimizer on small node sets.

Multi-start behaviour: models that pass the commutation, n-spectrum and
feasibility checks have a provably unique optimum and run a single start;
anything else runs :data:`UNCERTIFIED_STARTS`.  Start 0 is the witness of
:func:`~ctrlscore.spectral.check_feasibility`, the rest are seeded Dirichlet
samples projected onto the set; a start with an infinite objective is
dropped with a warning.  Starts that disagree on the optimal value by more
than ``1e-6`` raise :class:`~ctrlscore.errors.NonConvexAmbiguous` (with the
merged result attached).  Several starts run on a thread pool with one
worker per CPU, at most one per start; each start's descent is the same
serial computation either way.  The pool is the only parallelism of a CLI
command, which runs numpy's BLAS on one thread (:mod:`ctrlscore.cli`); a
library call keeps whatever BLAS threading its caller set.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (BadGridStep, Infeasible, InfeasiblePoint, NonConvexAmbiguous,
                     TooLarge)
from .scores import ObjectiveKind, _Objective
from .simplex import (SimplexWeights, project_capped_simplex, validate_caps,
                      weight_vector)
from .spectral import AssumptionReport, check_feasibility

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
#: The Newton line search gives up below this fraction of the full step.
NEWTON_MIN_STEP = 1e-3
#: Most lattice points :func:`grid_oracle` enumerates.
GRID_BUDGET = 2_000_000


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
    curvature."""
    if evaluation.near_degenerate or evaluation.curvature is None:
        return None
    matvec, diagonal = evaluation.curvature()
    free = ~(((point == 0.0) & (target == 0.0))
             | ((point == caps) & (target == caps)))
    if np.count_nonzero(free) < 2 or not np.all(diagonal[free] > 0.0):
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
        """``(trial, evaluation, size)`` for the first trial point
        ``project(p + size * direction)`` that passes, halving ``size`` down
        to ``smallest``; None if none passes.

        Armijo with a float-plateau safeguard: once the predicted decrease
        falls below the resolution of the objective value, Armijo can no
        longer certify progress (equal floats pass the test even for
        overshooting steps), so acceptance switches to a strict decrease of
        the stationarity residual."""
        plateau_tol = 64.0 * _EPS * (1.0 + abs(current.value))
        while size > smallest:
            trial = project_capped_simplex(point + size * direction, caps)
            moved = trial - point
            if np.any(moved):
                candidate = objective(trial)
                predicted = ARMIJO_C * float(current.gradient @ moved)
                if not candidate.feasible:
                    ok = False
                elif abs(predicted) >= plateau_tol:
                    ok = candidate.value <= current.value + predicted
                else:
                    ok = (candidate.value <= current.value + plateau_tol
                          and _kkt(objective, candidate, trial, caps)[1] < residual)
                if ok:
                    return trial, candidate, size
            size *= STEP_SHRINK
        return None

    newton_step = finishing = False
    for _ in range(MAX_ITERS):
        grad = current.gradient
        target, residual = _kkt(objective, current, point, caps)
        # A Newton step that reached the tolerance is inside the quadratic
        # region, so one more lands on the optimum to rounding: the finish.
        if residual <= GRAD_TOL and (finishing or not newton_step):
            break
        finishing = residual <= GRAD_TOL
        iterations += 1

        # Projected Newton first; if its line search fails, the
        # projected-gradient step below is taken from the same point.
        newton = _newton_direction(current, point, target, caps)
        accepted = (None if newton is None
                    else line_search(newton, 1.0, NEWTON_MIN_STEP))
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
            accepted = line_search(-grad, min(step * 2.0, 1e12), 1e-18)
            if accepted is None:
                warnings.append("line search stalled before reaching grad_tol")
                break
            step = accepted[2]
        point, current, _ = accepted
    else:
        # Only this exit has moved the point since the last residual.
        warnings.append("MaxItersExceeded: returning best iterate")
        residual = _kkt(objective, current, point, caps)[1]

    converged = residual <= GRAD_TOL
    return _Trajectory(point, current.value, residual, iterations, converged,
                       tuple(warnings))


def _starting_points(count: int, caps: np.ndarray, seed: int,
                     witness: SimplexWeights) -> list[np.ndarray]:
    points = [witness.values]
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
        whole solve; a negative seed raises ``ValueError``.

    Raises
    ------
    InvalidWeights
        If ``caps`` is not a nonnegative vector with one entry per node.
    Infeasible
        If no candidate weight vector keeps the n-th eigenvalue positive.
    NonConvexAmbiguous
        If multi-starts disagree on the optimal value by more than 1e-6.
        The merged result is attached to the exception.
    """
    objective = _Objective(kind, model)
    caps_arr = validate_caps(caps, objective.node_count)
    report = check_feasibility(model, caps=caps_arr)
    if not report.feasible:
        raise Infeasible(
            f"no feasible weights found: best mu_{model.score_order} = "
            f"{report.nth_eigenvalue:.3e}"
        )
    certified = report.all_pass()
    n_starts = 1 if certified else UNCERTIFIED_STARTS
    starts = _starting_points(n_starts, caps_arr, seed, report.witness)

    workers = min(os.cpu_count() or 1, n_starts)
    if workers == 1:
        trajectories = [_descend(objective, s, caps_arr) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trajectories = list(
                pool.map(lambda s: _descend(objective, s, caps_arr), starts)
            )

    finite_idx = [i for i, t in enumerate(trajectories) if math.isfinite(t.value)]
    if not finite_idx:
        raise Infeasible("no start produced a finite objective value")
    converged_idx = [i for i in finite_idx if trajectories[i].converged]
    candidate_idx = converged_idx if converged_idx else finite_idx
    best = trajectories[min(candidate_idx,
                            key=lambda i: (trajectories[i].value, i))]

    warnings: list[str] = []
    if not certified:
        failed = [name for name, ok in (("feasibility", report.feasible),
                                        ("commuting", report.commuting),
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
        objective=float(best.value),
        kkt_residual=float(best.residual),
        iterations=best.iterations,
        assumption_report=report,
        uniqueness_certified=certified,
        converged=best.converged,
        warnings=tuple(warnings),
        start_objectives=tuple(float(t.value) for t in trajectories),
        score_order=model.score_order,
    )

    values = [trajectories[i].value for i in candidate_idx]
    if len(values) > 1 and max(values) - min(values) > 1e-6:
        raise NonConvexAmbiguous(
            "starts disagree on the optimal value: "
            + ", ".join(f"{v:.9g}" for v in values),
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


def _lattice(units: int, cap_units: np.ndarray) -> np.ndarray:
    """Every integer row ``0 <= k <= cap_units`` with ``sum(k) == units``,
    in lexicographic order.

    Each prefix row takes every value its remainder ``left`` allows, from
    ``max(0, left - caps after this column)`` to ``min(cap, left)``.  So
    every prefix completes to at least one row, the row count never falls,
    and it is checked against the budget before each column is allocated.
    """
    after = np.concatenate([np.cumsum(cap_units[::-1])[::-1][1:], [0]])
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([units], dtype=np.int64)
    for cap, rest in zip(cap_units, after):
        low = np.maximum(left - rest, 0)
        counts = np.maximum(np.minimum(left, cap) - low + 1, 0)
        total = int(counts.sum())
        if total == 0:
            raise Infeasible("no lattice point lies inside the capped simplex")
        if total > GRID_BUDGET:
            raise TooLarge(f"lattice has at least {total} points, "
                           f"budget is {GRID_BUDGET}")
        first = np.cumsum(counts) - counts
        column = np.repeat(low - first, counts) + np.arange(total)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), column])
        left = np.repeat(left, counts) - column
    return rows


def grid_oracle(kind: ObjectiveKind, model, *, step: float = 0.01,
                caps=None) -> tuple[SimplexWeights, float]:
    """Exhaustive lattice minimization over the capped simplex.

    Enumerates every point of the lattice with spacing ``step`` inside the
    feasible polytope and returns the minimizer and its objective value
    (the first minimizer in lexicographic order).  ``step`` must divide 1
    (see :func:`grid_units`).  This is deliberately independent of the
    descent so it can serve as a correctness oracle.

    Raises
    ------
    TooLarge
        If the lattice holds more than :data:`GRID_BUDGET` points.
    """
    objective = _Objective(kind, model)
    caps_arr = validate_caps(caps, objective.node_count)
    units = grid_units(step)
    cap_units = np.minimum(np.floor(caps_arr * units + 1e-9), units).astype(int)
    points = _lattice(units, cap_units) * step
    values = objective.batch_values(points)
    best = int(np.argmin(values))
    if not math.isfinite(values[best]):
        raise Infeasible("objective is infinite on the whole lattice")
    return SimplexWeights(points[best], caps_arr.copy()), float(values[best])


def kkt_residual(kind: ObjectiveKind, model, weights, *, caps=None) -> float:
    """The scale-free projected-gradient residual ``r(p)`` at a given
    feasible point (on ``grad f`` for VCS, ``grad g / g`` for AECS), the
    stationarity measure the solver stops on.

    Raises
    ------
    InfeasiblePoint
        If the point leaves the capped simplex or the objective is infinite.
    """
    objective = _Objective(kind, model)
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
