"""Model file format: parsing and validation.

A model file is a line-oriented text format with an explicit schema version.
``#`` starts a comment that runs to the end of the line, on statement and
payload rows alike; blank lines are ignored.  Tokens are separated by any
whitespace, tabs included.  ``EOL`` is any line boundary of Python's
``str.splitlines()``: ``\\n``, ``\\r\\n``, ``\\r``, ``\\x0b``, ``\\x0c``,
``\\x1c``, ``\\x1d``, ``\\x1e``, ``\\x85``, ``\\u2028`` or ``\\u2029``; line
numbers count these boundaries.  Grammar (EBNF, also documented in the
README):

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
``heat_dirichlet`` only the node indices.  ``nodes``, ``n`` and ``caps``
are checked by the library's own rules, so a file and a library call
reject the same values with the same message:
:func:`~ctrlscore.linsys.node_labels`,
:func:`~ctrlscore.linsys.resolve_score_order` (``n`` lies in ``1..d`` for
a matrix and ``1..K`` for a table; a heat model is an m x m diagonal table,
so ``1..m``) and :func:`~ctrlscore.simplex.validate_caps`.  ``n`` and
``caps`` are optional.  A number is any token Python's ``float()`` accepts
whose value is finite: ``nan``, ``inf`` and overflowing literals such as
``1e999`` are rejected where they stand.  Parse and consistency failures
raise :class:`~ctrlscore.errors.ParseError` with a 1-based line and column,
those of the statement when a rule fails; the column is a 1-based
character offset (a tab counts as one character).

The text is read one line at a time (:func:`_lines`); no list of its lines
is made.  A ``matrix`` or ``table`` payload becomes one read-only float64
array: a single ``np.loadtxt`` call takes the block's rows as they are
read and fills an array of exactly the block's size, so a parse holds the
text and that array and little else.  When that call fails, or its result
is the wrong shape or not finite, a row-by-row loop reads the block again
from its first line: it finds the error's line and column, and it reads
the spellings that only ``float()`` takes (``1_000``, non-ASCII digits).
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from itertools import chain, dropwhile, islice

import numpy as np

from .errors import CtrlscoreError, ParseError
from .linsys import (UNIT_WEIGHT, NodeGramianFamily, check_stability, gramian_family,
                     node_labels, resolve_score_order, weighted_gramian_family)
from .simplex import SimplexWeights, validate_caps
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

    def energy_model(self, score_order: int | None = None):
        """``at(weights) -> (model, weights)``, on which the energy
        diagnostics read ``W(p)`` for node weights ``weights``.

        What :meth:`build` checks before any Lyapunov solve is checked here,
        in the same order and with the same errors.  A heat or table model
        is built here and handed back with ``weights`` unchanged.  On a
        ``dense_lti`` file each ``at`` solves one Lyapunov equation, not one
        per node: it returns the one-Gramian family of ``W(p)``
        (:func:`~ctrlscore.linsys.weighted_gramian_family`, which raises
        :class:`~ctrlscore.errors.InvalidWeights` unless there is one weight
        per node) with the weight :data:`~ctrlscore.linsys.UNIT_WEIGHT`.
        """
        if self.kind != "dense_lti":
            model = self.build(score_order)
            return lambda weights: (model, weights)
        order = self.score_order if score_order is None else score_order
        system = check_stability(self.dynamics)
        if order is not None:
            resolve_score_order(order, system.n_dim)

        def at(weights):
            family = weighted_gramian_family(system, self.node_indices, weights, order)
            return family, SimplexWeights(UNIT_WEIGHT)

        return at


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


def _lines(text: str):
    """``(lineno, body)`` for each line of ``text`` that holds more than
    whitespace once its comment is cut off; ``lineno`` is 1-based.

    The lines are those of ``text.splitlines()``, read one at a time: each
    piece of ``text`` up to and including a line feed is split on its own,
    which cuts where the whole text would be cut, as a line feed always
    ends a line (``\\r\\n`` is one boundary, and it ends with the feed)."""
    lineno = 0
    start = 0
    size = len(text)
    while start < size:
        end = text.find("\n", start) + 1 or size
        for raw in text[start:end].splitlines():
            lineno += 1
            body = raw.split("#", 1)[0]
            if body and not body.isspace():
                yield lineno, body
        start = end


def _read_rows(text: str, lines, nrows: int, ncols: int, what: str,
               header_line: int) -> np.ndarray:
    """Take the next ``nrows`` entries of ``lines``, the iterator of
    :func:`_lines` over ``text`` that has just yielded the block's statement
    at ``header_line``, as a read-only ``(nrows, ncols)`` array.

    ``np.loadtxt`` reads the bodies as they come, into one array of
    ``nrows`` rows; ``islice`` keeps it from taking the next statement.
    When that call fails, or its result is the wrong shape or not finite,
    ``lines`` skips the rest of the block, and the row loop reads the block
    again from its first line through a new :func:`_lines` over ``text``:
    it raises at the first bad row or token, or returns the values of
    tokens that only ``float()`` reads.  Token columns are only worked out
    for the error message.
    """
    block = islice(lines, nrows)
    first = next(block, None)
    if first is not None:  # loadtxt warns where it gets no rows
        try:
            data = np.loadtxt(chain((first[1],), (body for _, body in block)),
                              dtype=float, comments=None, ndmin=2, max_rows=nrows)
        except ValueError:
            data = None
        if (data is not None and data.shape == (nrows, ncols)
                and np.isfinite(data).all()):
            data.flags.writeable = False
            return data
        deque(block, maxlen=0)  # leave ``lines`` after the block
    rows = []
    last_line = header_line
    again = dropwhile(lambda entry: entry[0] <= header_line, _lines(text))
    for lineno, body in islice(again, nrows):
        last_line = lineno
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
    lines = _lines(text)
    lineno, body = next(lines, (1, None))
    if body is None:
        raise ParseError("empty model file", 1, 1)
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
            matrix = _read_rows(text, lines, dim, dim, "matrix", lineno)
        elif word == "table":
            if len(tokens) != 3:
                raise ParseError("table takes row and column counts", lineno, col)
            nrows = _to_int(tokens[1][0], lineno, tokens[1][1])
            ncols = _to_int(tokens[2][0], lineno, tokens[2][1])
            if nrows < 1 or ncols < 1:
                raise ParseError("table dimensions must be >= 1", lineno, tokens[1][1])
            table = _read_rows(text, lines, nrows, ncols, "table", lineno)
        else:
            raise ParseError(f"unknown statement {word!r}", lineno, col)

    def where(name: str) -> tuple[int, int]:
        return positions.get(name, (1, 1))

    def checked(name: str, rule, *args):
        """``rule(*args)``; its error becomes a ParseError at statement ``name``."""
        try:
            return rule(*args)
        except CtrlscoreError as exc:
            raise ParseError(str(exc), *where(name)) from None

    if kind is None:
        raise ParseError("missing 'kind' statement", *where("kind"))
    if nodes is None:
        raise ParseError("missing 'nodes' statement", *where("nodes"))
    checked("nodes", node_labels, nodes)

    if kind == "dense_lti":
        if matrix is None:
            raise ParseError("dense_lti requires a 'matrix' block", *where("kind"))
        if table is not None:
            raise ParseError("dense_lti cannot carry a 'table' block", *where("table"))
        modes = len(matrix)
        if any(i > modes for i in nodes):
            raise ParseError(
                f"node indices must be <= matrix dimension {modes}", *where("nodes")
            )
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
        modes = len(table)
    else:  # heat_dirichlet
        if matrix is not None or table is not None:
            raise ParseError(
                "heat_dirichlet carries no matrix or table payload", *where("kind")
            )
        modes = len(nodes)
    if order is not None:
        checked("n", resolve_score_order, order, modes)
    if caps is not None:
        checked("caps", validate_caps, caps, len(nodes))

    return ModelFile(
        schema_version=version,
        kind=kind,
        node_indices=tuple(nodes),
        score_order=order,
        caps=caps,
        dynamics=matrix,
        table=table,
    )
