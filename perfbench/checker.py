"""Independent check of each request's output; uses no ctrlscore code.

A ``score`` report must keep the file's node order, give weights on the
simplex, and state the objective value those weights have.  A report that
claims convergence must also be within ``WEIGHT_TOL`` of the optimum; one
that admits it did not converge is counted by ``converged_frac`` instead,
and its distance is kept so the run can show it.  The optimum comes from:

* Heat and diagonal tables: the closed form, computed here (VCS uniform,
  AECS ``p_i`` proportional to ``1/sqrt(d_i)``).
* Banded tables and dense systems: a scale-free KKT test.  Gradient and
  Hessian come from the table, or from scipy Lyapunov Gramians with the
  trace identities ``df/dp_i = -tr(W^-1 W_i)`` and
  ``dg/dp_i = -tr(W^-2 W_i)``.
* ``check`` and ``energy``: the exit code, and for ``energy`` the printed
  energy, semi-axes and log-volume against values computed here.

A request also fails when its exit code is not the expected one.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from gen import Model, Request

#: Largest weight error accepted: against a closed form, or as the KKT
#: distance.  The CLI prints weights to six decimals.
WEIGHT_TOL = 1e-6
#: Weights at or below this count as sitting on the lower bound.
ACTIVE_TOL = 1e-10
#: Relative tolerance on printed energy figures (six significant digits).
PRINT_TOL = 1e-5


class Verdict(NamedTuple):
    ok: bool
    converged: bool | None  # None when the request is not a ``score``
    distance: float | None  # weight distance from the optimum (``score``)
    reason: str


class Checker:
    """Checks outputs against models; caches per-model Gramians."""

    def __init__(self, models: dict[str, Model]):
        self.models = models
        self._arrays: dict[str, np.ndarray] = {}
        self._gramians: dict[str, np.ndarray] = {}

    def array(self, name: str) -> np.ndarray:
        if name not in self._arrays:
            self._arrays[name] = np.array(self.models[name].rows, dtype=float)
        return self._arrays[name]

    def gramians(self, name: str) -> np.ndarray:
        if name not in self._gramians:
            a = self.array(name)
            grams = []
            for i in range(a.shape[0]):
                rhs = np.zeros_like(a)
                rhs[i, i] = -1.0
                g = solve_continuous_lyapunov(a, rhs)
                grams.append(0.5 * (g + g.T))
            self._gramians[name] = np.stack(grams)
        return self._gramians[name]

    def check(self, request: Request, code: int, stdout: str) -> Verdict:
        if code != request.expect_exit:
            return Verdict(False, None, None, f"exit {code}, expected {request.expect_exit}")
        if request.command == "check":
            ok = "commuting: no" in stdout and "feasible: yes" in stdout
            return Verdict(ok, None, None, "" if ok else "check does not report non-commuting")
        if request.command == "energy":
            reason = self._energy(request, stdout)
            return Verdict(not reason, None, None, reason)
        return self._score(request, self.models[request.model], stdout)

    # -- score -------------------------------------------------------------

    def _score(self, request: Request, model: Model, stdout: str) -> Verdict:
        lines = stdout.splitlines()
        try:
            report = json.loads(lines[0])
        except (IndexError, ValueError):
            return Verdict(False, None, None, "no JSON report")
        converged = bool(report["converged"]) if "converged" in report else not any(
            w.startswith("solver did not reach grad_tol") for w in report["warnings"])

        def verdict(reason: str, distance: float | None = None) -> Verdict:
            return Verdict(not reason, converged, distance, reason)

        if tuple(report["node_indices"]) != model.nodes:
            return verdict("node order differs from the file")
        p = np.array(report["weights"], dtype=float)
        if abs(p.sum() - 1.0) > 1e-9 or p.min() < -1e-12:
            return verdict("weights leave the simplex")
        if "--grid-check" in request.args and (
                len(lines) < 2 or "agreement=pass" not in lines[1]):
            return verdict("grid check did not pass")
        value, grad, hess = self.derivatives(request.kind, model, p)
        if not math.isclose(report["objective"], value, rel_tol=1e-9, abs_tol=1e-12):
            return verdict(f"objective {report['objective']!r} but {value!r} at its weights")
        diag = self._diagonal(model)
        if diag is not None:
            distance = float(np.max(np.abs(p - _closed_form(request.kind, diag))))
        else:
            distance = kkt_distance(p, grad, hess)
        if converged and distance > WEIGHT_TOL:
            return verdict(f"claims convergence {distance:.2e} from the optimum", distance)
        return verdict("", distance)

    def derivatives(self, kind: str, model: Model, p: np.ndarray):
        """Objective value, gradient and Hessian at ``p`` (full spectrum)."""
        if model.kind == "heat_dirichlet":
            mu = self._diagonal(model) * p
            rows = np.diag(self._diagonal(model))
        elif model.kind == "spectral_table":
            rows = self.array(model.name)
            mu = rows @ p
        else:
            grams = self.gramians(model.name)
            mixed = np.tensordot(p, grams, axes=1)
            w_inv = np.linalg.inv(mixed)
            prods = np.einsum("ab,ibc->iac", w_inv, grams)  # W^-1 W_i
            if kind == "vcs":
                value = -np.linalg.slogdet(mixed)[1]
                grad = -np.trace(prods, axis1=1, axis2=2)
                hess = np.einsum("iab,jba->ij", prods, prods)
            else:
                right = prods @ w_inv  # W^-1 W_i W^-1
                value = float(np.trace(w_inv))
                grad = -np.trace(right, axis1=1, axis2=2)
                hess = 2.0 * np.einsum("iab,jba->ij", prods, right)
            return float(value), grad, 0.5 * (hess + hess.T)
        if kind == "vcs":
            return (-float(np.log(mu).sum()), -rows.T @ (1.0 / mu),
                    rows.T @ (rows / mu[:, None] ** 2))
        return (float((1.0 / mu).sum()), -rows.T @ (1.0 / mu**2),
                2.0 * rows.T @ (rows / mu[:, None] ** 3))

    def _diagonal(self, model: Model) -> np.ndarray | None:
        """Per-node eigenvalue ``d_i`` of a diagonal model, None otherwise."""
        if model.kind == "heat_dirichlet":
            k = np.array(model.nodes, dtype=float)
            return 1.0 / (2.0 * math.pi**2 * k**2)
        if model.kind != "spectral_table":
            return None
        table = self.array(model.name)
        nonzero = table != 0.0
        if table.shape[0] != table.shape[1] or not (
                np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1)):
            return None
        return table.sum(axis=0)

    # -- energy ------------------------------------------------------------

    def _energy(self, request: Request, stdout: str) -> str:
        """Why the printed figures are wrong; empty when they are right."""
        size = len(request.payload) // 2
        p = np.array(request.payload[:size])
        target = np.array(request.payload[size:])
        w = np.tensordot(p, self.gramians(request.model), axes=1)
        mu = np.linalg.eigvalsh(w)[::-1]
        energy = float(target @ np.linalg.solve(w, target))
        log_volume = (0.5 * size * math.log(math.pi) - math.lgamma(0.5 * size + 1.0)
                      + 0.5 * float(np.log(mu).sum()))
        fields = {line.split(" ", 1)[0]: line.split(" ", 1)[1]
                  for line in stdout.splitlines() if " " in line}
        try:
            got_energy = float(fields["energy"])
            got_axes = np.array([float(x) for x in fields["semi-axes"].split()])
            got_volume = float(fields["log-volume"])
        except (KeyError, ValueError):
            return "energy output is malformed"
        if not math.isclose(got_energy, energy, rel_tol=PRINT_TOL, abs_tol=1e-6):
            return f"energy {got_energy} vs {energy}"
        if got_axes.shape != mu.shape or not np.allclose(got_axes, np.sqrt(mu),
                                                         rtol=PRINT_TOL, atol=0.0):
            return "semi-axes differ"
        if not math.isclose(got_volume, log_volume, rel_tol=PRINT_TOL, abs_tol=1e-6):
            return f"log-volume {got_volume} vs {log_volume}"
        return ""


def kkt_distance(p: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> float:
    """How far ``p`` is from stationary on the simplex, in weight units.

    The KKT conditions ask for one multiplier ``nu`` with ``g_i = nu`` where
    ``p_i > 0`` and ``g_i >= nu`` where ``p_i = 0``.  Their violation is
    turned into weights by the curvature: the Newton step on the free
    coordinates (an equality-constrained solve with the Hessian), and
    ``(nu - g_i) / H_ii`` at the bound.  Scaling the objective scales ``g``
    and ``H`` alike, so the test does not depend on its units, and it shares
    its tolerance with the closed forms.
    """
    free = p > ACTIVE_TOL
    n = int(free.sum())
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = hess[np.ix_(free, free)]
    system[:n, n] = system[n, :n] = 1.0
    solution = np.linalg.solve(system, np.concatenate([-grad[free], [0.0]]))
    step, nu = solution[:n], -solution[n]
    bound = np.maximum(0.0, (nu - grad[~free]) / np.diag(hess)[~free])
    return float(max(np.abs(step).max(), bound.max(initial=0.0)))


def _closed_form(kind: str, diag: np.ndarray) -> np.ndarray:
    if kind == "vcs":
        return np.full(diag.size, 1.0 / diag.size)
    roots = 1.0 / np.sqrt(diag)
    return roots / roots.sum()
