"""Seeded inputs for the benchmark workloads.

Every model is generated from the workload name and the seed alone and is
written as ``.csm`` text straight from the model-file grammar in the README,
so the program under test only ever sees files.  The same seed gives the same
bytes on every platform: values come from :class:`random.Random` and are
written with ``repr``, which round-trips exactly.

A workload is a fixed list of requests; one *pass* runs them once, in order.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("cli-small", "spectral-large", "dense-lti", "diagnostics")


@dataclass(frozen=True)
class Model:
    """A generated model: what the file says, kept for the checker."""

    name: str
    kind: str  # heat_dirichlet | spectral_table | dense_lti
    nodes: tuple[int, ...]
    rows: tuple[tuple[float, ...], ...] = ()  # table rows or matrix rows

    def text(self) -> str:
        out = ["ctrlscore-model v1", f"kind {self.kind}",
               "nodes " + " ".join(str(i) for i in self.nodes)]
        if self.kind == "spectral_table":
            out.append(f"table {len(self.rows)} {len(self.rows[0])}")
        elif self.kind == "dense_lti":
            out.append(f"matrix {len(self.rows)}")
        out.extend(" ".join(repr(x) for x in row) for row in self.rows)
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``ctrlscore COMMAND MODEL-FILE ARGS...``."""

    rid: str
    command: str  # score | check | energy
    model: str
    args: tuple[str, ...]
    expect_exit: int
    kind: str = ""  # vcs | aecs for score requests
    payload: tuple[float, ...] = ()  # energy: weights then target

    def argv(self, directory: str) -> list[str]:
        path = os.path.join(directory, self.model + ".csm")
        return [self.command, path, *self.args]


def _diagonal(m: int, lo: float, hi: float) -> list[list[float]]:
    """Diagonal table, entries log-spaced from ``10**lo`` to ``10**hi``."""
    rows = [[0.0] * m for _ in range(m)]
    for k in range(m):
        rows[k][k] = 10.0 ** (lo + (hi - lo) * k / (m - 1))
    return rows


def _banded(base: random.Random, m: int, width: int) -> list[list[float]]:
    """Square table with a dominant diagonal and ``width`` bands each side."""
    rows = [[0.0] * m for _ in range(m)]
    for k in range(m):
        for i in range(max(0, k - width), min(m, k + width + 1)):
            rows[k][i] = base.uniform(0.5, 1.5) if i == k else base.uniform(0.0, 0.3)
    return rows


def _dense(base: random.Random, d: int) -> list[list[float]]:
    """Random dense ``A`` made stable by strict row diagonal dominance.

    Gershgorin puts every eigenvalue left of -0.5; the coupling is dense, so
    the node Gramians do not commute.
    """
    scale = 1.0 / math.sqrt(d)
    rows = []
    for i in range(d):
        row = [base.gauss(0.0, scale) for _ in range(d)]
        row[i] = -(sum(abs(x) for j, x in enumerate(row) if j != i)
                   + base.uniform(0.5, 1.5))
        rows.append(row)
    return rows


def _table(name: str, rows, rng: random.Random) -> Model:
    """Spectral table whose nodes get seeded labels.

    Labels are names only, so the arithmetic stays bit for bit the same;
    reordering the columns instead made banded VCS converge or stall
    depending on the seed.
    """
    labels = rng.sample(range(1, 100 * len(rows[0]) + 1), len(rows[0]))
    return Model(name, "spectral_table", tuple(labels), tuple(map(tuple, rows)))


def _system(name: str, rows, perm: list[int]) -> Model:
    """Dense system with its states relabelled: ``P A P^T``."""
    matrix = tuple(tuple(rows[i][j] for j in perm) for i in perm)
    return Model(name, "dense_lti", tuple(range(1, len(perm) + 1)), matrix)


def _heat(name: str, size: int) -> Model:
    """Heat model on modes 1..size.  Mode numbers are not labels, and a
    shuffled node order moved heat-200's stopping point from 2 s to 4.4 s."""
    return Model(name, "heat_dirichlet", tuple(range(1, size + 1)))


def _shuffled(size: int, rng: random.Random) -> list[int]:
    perm = list(range(size))
    rng.shuffle(perm)
    return perm


def _scores(model: Model, extra: tuple[str, ...] = ()) -> list[Request]:
    return [Request(f"{model.name}-{kind}", "score", model.name,
                    ("--kind", kind, "--format", "json-lines", *extra), 0, kind)
            for kind in ("vcs", "aecs")]


def build(workload: str, seed: int) -> tuple[dict[str, Model], list[Request]]:
    """Models and the ordered request list of one pass of ``workload``.

    Each workload solves fixed problem instances and the seed relabels them:
    it names the nodes of tables and permutes the states of dense systems.
    That changes the input files but not the difficulty of the problems,
    because the projected-gradient solver's stopping point on the hard cases
    is chaotic in the values: fresh random tables of one family took from
    5 s to 16 s at m = 1000, which would drown any regression bound.  Heat
    models have no free labels and are the same for every seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    base = random.Random(workload)
    rng = random.Random(f"{workload}/{seed}")
    models: list[Model] = []
    requests: list[Request] = []

    if workload == "cli-small":
        for size in (4, 8, 12):
            models.append(_heat(f"heat{size}", size))
        for m in (20, 50):
            models.append(_table(f"diag{m}", _diagonal(m, -1.0, 1.0), rng))
        for model in models:
            requests += _scores(model)

    elif workload == "spectral-large":
        # The solver does not converge on heat 1..200, on AECS at m = 1000
        # nor on AECS for the banded table; these cases stay on purpose.
        for size in (40, 200):
            models.append(_heat(f"heat{size}", size))
        models.append(_table("diag1000", _diagonal(1000, -1.0, 1.0), rng))
        models.append(_table("banded300", _banded(base, 300, 2), rng))
        for model in models:
            requests += _scores(model)

    elif workload == "dense-lti":
        # Two systems at d = 30: which of the eight seeded starts a
        # relabelling hands the solver changes its work by up to 2x, and
        # two instances halve that spread.  VCS at d = 60 takes 30-50 s a
        # request, more than a run can afford, so d = 60 runs AECS only.
        for name, d in (("dense30", 30), ("dense30b", 30), ("dense60", 60)):
            models.append(_system(name, _dense(base, d), _shuffled(d, rng)))
        requests += _scores(models[0]) + _scores(models[1])
        requests += [r for r in _scores(models[2]) if r.kind == "aecs"]

    else:  # diagnostics
        # Two systems of each dense size: a pass of about 4 s swung between
        # 3.1 s and 4.5 s within one run, and a longer pass averages that out.
        heat = _heat("heat5", 5)
        models.append(heat)
        for name in ("dense80", "dense80b"):
            perm = _shuffled(80, rng)
            dense = _system(name, _dense(base, 80), perm)
            raw = [base.uniform(0.5, 1.5) for _ in range(80)]
            target = [base.gauss(0.0, 1.0) for _ in range(80)]
            weights = tuple(raw[i] / sum(raw) for i in perm)
            target = tuple(target[i] for i in perm)
            models.append(dense)
            # A dense family does not commute, so ``check`` exits 2 by design.
            requests.append(Request(f"{name}-check", "check", name, (), 2))
            requests.append(Request(
                f"{name}-energy", "energy", name,
                # ``=`` keeps argparse from reading "-0.3,..." as an option.
                ("--p=" + ",".join(repr(w) for w in weights),
                 "--target=" + ",".join(repr(t) for t in target)),
                0, payload=weights + target))
        requests += _scores(heat, ("--grid-check", "0.02"))
        for name in ("dense5", "dense5b"):
            small = _system(name, _dense(base, 5), _shuffled(5, rng))
            models.append(small)
            requests += _scores(small, ("--grid-check", "0.05"))

    return {m.name: m for m in models}, requests


def write(models: dict[str, Model], directory: str) -> int:
    """Write every model as ``<name>.csm`` under ``directory``; total bytes."""
    os.makedirs(directory, exist_ok=True)
    total = 0
    for model in models.values():
        data = model.text().encode("ascii")
        with open(os.path.join(directory, model.name + ".csm"), "wb") as handle:
            handle.write(data)
        total += len(data)
    return total
