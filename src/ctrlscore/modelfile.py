"""Model file format: parsing and validation.

A model file is a line-oriented text format with an explicit schema version.
``#`` starts a comment that runs to the end of the line, on statement and
payload rows alike; blank lines are ignored.  Tokens are separated by any
whitespace, tabs included.  Grammar (EBNF, also documented in the README):

    file    = header { line } ;
    header  = "ctrlscore-model" "v" INT EOL ;
    line    = EOL | stmt EOL ;
    stmt    = "kind" KIND
            | "nodes" INT { INT }
            | "n" INT
            | "caps" NUM { NUM }
            | "matrix" INT EOL { row }      (* dense_lti payload, d rows *)
            | "table" INT INT EOL { row } ; (* spectral_table payload, K rows *)
    row     = NUM { NUM } EOL ;
    KIND    = "dense_lti" | "spectral_table" | "heat_dirichlet" ;

Exactly one payload kind per file: ``dense_lti`` carries a square dynamics
matrix (row-major), ``spectral_table`` a K x m nonnegative eigenvalue table,
``heat_dirichlet`` only the node indices.  ``n`` is optional and must lie
in ``1..d`` for a matrix and in ``1..K`` for a table; a heat model is an
m x m diagonal table, so ``1..m``.  ``caps`` is optional and must match the
node count.  A number is any token Python's ``float()`` accepts
whose value is finite: ``nan``, ``inf`` and overflowing literals such as
``1e999`` are rejected where they stand.  Parse and consistency failures
raise :class:`~ctrlscore.errors.ParseError` with a 1-based line and column;
the column is a 1-based character offset (a tab counts as one character).

A ``matrix`` or ``table`` payload becomes one read-only float64 array, read
by a single ``np.loadtxt`` call over the block's rows.  When that call
fails or its result is the wrong shape or not finite, a row-by-row loop
reads the same rows again: it finds the error's line and column, and it
reads the spellings that only ``float()`` takes (``1_000``, non-ASCII
digits).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ParseError
from .linsys import NodeGramianFamily, check_stability, gramian_family
from .spectral import SpectralModel, heat_dirichlet_model

SCHEMA_VERSION = 1
MODEL_KINDS = ("dense_lti", "spectral_table", "heat_dirichlet")


@dataclass(frozen=True, eq=False)
class ModelFile:
    """Parsed, validated model file content.

    ``dynamics`` and ``table`` are read-only float64 arrays.  Equality
    compares them by value, and a ``ModelFile`` is not hashable.
    """

    schema_version: int
    kind: str
    node_indices: tuple[int, ...]
    score_order: int | None = None
    caps: tuple[float, ...] | None = None
    dynamics: np.ndarray | None = None
    table: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, ModelFile):
            return NotImplemented
        scalars = ("schema_version", "kind", "node_indices", "score_order", "caps")
        return (all(getattr(self, name) == getattr(other, name) for name in scalars)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("dynamics", "table")))

    def build(self, score_order: int | None = None) -> SpectralModel | NodeGramianFamily:
        """Construct the solver-side model object.

        Its score order is ``score_order`` when given, else the file's
        ``n``, else the model's own default; the model's constructor checks
        it, so an order out of range raises
        :class:`~ctrlscore.errors.IndexMismatch`.  Stability of a
        ``dense_lti`` matrix is checked first and
        :class:`~ctrlscore.errors.UnstableSystem` propagates to the caller.
        """
        order = self.score_order if score_order is None else score_order
        if self.kind == "heat_dirichlet":
            return heat_dirichlet_model(self.node_indices, order)
        if self.kind == "spectral_table":
            return SpectralModel(self.node_indices, self.table, order)
        system = check_stability(self.dynamics)
        return gramian_family(system, self.node_indices, order)


_TOKEN = re.compile(r"\S+")


def _tokens(body: str) -> list[tuple[str, int]]:
    """Each whitespace-separated token of a line with its 1-based column."""
    return [(match.group(), match.start() + 1) for match in _TOKEN.finditer(body)]


def _to_int(token: str, line: int, col: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected integer, got {token!r}", line, col)


def _to_float(token: str, line: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"expected number, got {token!r}", line, col)
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {token!r}", line, col)
    return value


def _read_rows(lines, nrows: int, ncols: int, what: str,
               last_line: int) -> np.ndarray:
    """Take the next ``nrows`` lines of ``lines`` as a read-only
    ``(nrows, ncols)`` array.

    One ``np.loadtxt`` call reads a well-formed block.  Any other block goes
    through the row loop, which raises at the first bad row or token, or
    returns the values of tokens that only ``float()`` reads.  Token columns
    are only worked out for the error message.
    """
    block = list(islice(lines, nrows))
    if len(block) == nrows:
        try:
            data = np.loadtxt([body for _, body in block], dtype=float,
                              comments=None, ndmin=2)
        except ValueError:
            data = None
        if (data is not None and data.shape == (nrows, ncols)
                and np.isfinite(data).all()):
            data.flags.writeable = False
            return data
    rows = []
    for lineno, body in block:
        values = body.split()
        if len(values) != ncols:
            raise ParseError(
                f"{what}: expected {ncols} entries per row, got {len(values)}",
                lineno, _tokens(body)[0][1],
            )
        try:
            row = tuple(map(float, values))
            finite = all(map(math.isfinite, row))
        except ValueError:
            finite = False
        if not finite:
            for token, col in _tokens(body):
                _to_float(token, lineno, col)  # raises at the first bad token
        rows.append(row)
    if len(rows) < nrows:
        raise ParseError(
            f"{what}: expected {nrows} rows, file ended after {len(rows)}",
            last_line, 1,
        )
    data = np.array(rows, dtype=float)
    data.flags.writeable = False
    return data


def parse_model_text(text: str) -> ModelFile:
    """Parse and validate a model file; raises ParseError on any defect."""
    bodies = (raw.split("#", 1)[0] for raw in text.splitlines())
    numbered = [(lineno, body) for lineno, body in enumerate(bodies, start=1)
                if body.strip()]
    if not numbered:
        raise ParseError("empty model file", 1, 1)
    last_line = numbered[-1][0]
    lines = iter(numbered)
    lineno, body = next(lines)
    tokens = _tokens(body)
    if tokens[0][0] != "ctrlscore-model":
        raise ParseError("expected header 'ctrlscore-model v<INT>'",
                         lineno, tokens[0][1])
    if len(tokens) != 2 or not tokens[1][0].startswith("v"):
        raise ParseError("header must be 'ctrlscore-model v<INT>'",
                         lineno, tokens[-1][1])
    version = _to_int(tokens[1][0][1:], lineno, tokens[1][1])
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {version}",
                         lineno, tokens[1][1])

    kind = None
    nodes = None
    order = None
    caps = None
    matrix = None
    table = None
    positions: dict[str, tuple[int, int]] = {}

    for lineno, body in lines:
        tokens = _tokens(body)
        word, col = tokens[0]
        seen_before = word in positions
        positions[word] = (lineno, col)
        if seen_before:
            raise ParseError(f"duplicate statement {word!r}", lineno, col)
        if word == "kind":
            if len(tokens) != 2:
                raise ParseError("kind takes exactly one value", lineno, col)
            kind = tokens[1][0]
            if kind not in MODEL_KINDS:
                raise ParseError(
                    f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}",
                    lineno, tokens[1][1],
                )
        elif word == "nodes":
            if len(tokens) < 2:
                raise ParseError("nodes needs at least one index", lineno, col)
            nodes = tuple(_to_int(t, lineno, c) for t, c in tokens[1:])
        elif word == "n":
            if len(tokens) != 2:
                raise ParseError("n takes exactly one value", lineno, col)
            order = _to_int(tokens[1][0], lineno, tokens[1][1])
        elif word == "caps":
            caps = tuple(_to_float(t, lineno, c) for t, c in tokens[1:])
            if not caps:
                raise ParseError("caps needs at least one value", lineno, col)
        elif word == "matrix":
            if len(tokens) != 2:
                raise ParseError("matrix takes one dimension argument", lineno, col)
            dim = _to_int(tokens[1][0], lineno, tokens[1][1])
            if dim < 1:
                raise ParseError("matrix dimension must be >= 1", lineno, tokens[1][1])
            matrix = _read_rows(lines, dim, dim, "matrix", last_line)
        elif word == "table":
            if len(tokens) != 3:
                raise ParseError("table takes row and column counts", lineno, col)
            nrows = _to_int(tokens[1][0], lineno, tokens[1][1])
            ncols = _to_int(tokens[2][0], lineno, tokens[2][1])
            if nrows < 1 or ncols < 1:
                raise ParseError("table dimensions must be >= 1", lineno, tokens[1][1])
            table = _read_rows(lines, nrows, ncols, "table", last_line)
        else:
            raise ParseError(f"unknown statement {word!r}", lineno, col)

    def where(name: str) -> tuple[int, int]:
        return positions.get(name, (1, 1))

    if kind is None:
        raise ParseError("missing 'kind' statement", *where("kind"))
    if nodes is None:
        raise ParseError("missing 'nodes' statement", *where("nodes"))
    if len(set(nodes)) != len(nodes) or any(i < 1 for i in nodes):
        raise ParseError("node indices must be distinct and >= 1", *where("nodes"))

    if kind == "dense_lti":
        if matrix is None:
            raise ParseError("dense_lti requires a 'matrix' block", *where("kind"))
        if table is not None:
            raise ParseError("dense_lti cannot carry a 'table' block", *where("table"))
        dim = len(matrix)
        if any(i > dim for i in nodes):
            raise ParseError(
                f"node indices must be <= matrix dimension {dim}", *where("nodes")
            )
        if order is not None and not 1 <= order <= dim:
            raise ParseError(f"n must lie in 1..{dim}", *where("n"))
    elif kind == "spectral_table":
        if table is None:
            raise ParseError("spectral_table requires a 'table' block", *where("kind"))
        if matrix is not None:
            raise ParseError(
                "spectral_table cannot carry a 'matrix' block", *where("matrix")
            )
        if table.shape[1] != len(nodes):
            raise ParseError(
                f"table has {table.shape[1]} columns but {len(nodes)} nodes",
                *where("table"),
            )
        if (table < 0).any():
            raise ParseError("table entries must be >= 0", *where("table"))
        if order is not None and not 1 <= order <= len(table):
            raise ParseError(f"n must lie in 1..{len(table)}", *where("n"))
    else:  # heat_dirichlet
        if matrix is not None or table is not None:
            raise ParseError(
                "heat_dirichlet carries no matrix or table payload", *where("kind")
            )
        if order is not None and not 1 <= order <= len(nodes):
            raise ParseError(f"n must lie in 1..{len(nodes)}", *where("n"))

    if caps is not None:
        if len(caps) != len(nodes):
            raise ParseError(
                f"caps has {len(caps)} entries but there are {len(nodes)} nodes",
                *where("caps"),
            )
        if any(c < 0 for c in caps):
            raise ParseError("caps must be nonnegative", *where("caps"))
        if sum(caps) < 1.0 - 1e-12:
            raise ParseError("caps must sum to at least 1", *where("caps"))

    return ModelFile(
        schema_version=version,
        kind=kind,
        node_indices=tuple(nodes),
        score_order=order,
        caps=caps,
        dynamics=matrix,
        table=table,
    )
