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

The text is read one line at a time (:func:`_lines`), cut at each line
feed and carriage return; no list of its lines is made.  A ``matrix`` or
``table`` payload is read in chunks of at most :data:`_CHUNK_ENTRIES`
entries (:func:`_read_rows`), each by the first reader that takes it: a
byte scan of the chunk's text (:func:`_scan_chunk`), for a table that can
still be sparse, which finds its tokens, skips those spelled ``0.0`` or
``0`` and reads only the others, by ``float()``; ``np.loadtxt``; and a
row loop over the chunk alone, which raises at its first bad row or
token with that line and column, and reads the spellings that only
``float()`` takes (``1_000``, non-ASCII digits).  What the chunks hold
that is not ``+0.0`` is kept as positions and values while it is sparse,
by the rule of :func:`~ctrlscore.spectral._sparse`; the first chunk that
breaks the rule allocates the block's array.  So no block allocates more
than its text has shown, and a parse holds the text and the payload and
little else.  A matrix becomes one read-only float64 array.  A sparse
table becomes its read-only :class:`~ctrlscore.spectral.Nonzeros` alone,
and no K x m array is made; a denser one becomes one read-only array.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import CtrlscoreError, ParseError
from .linsys import (UNIT_WEIGHT, NodeGramianFamily, check_stability, gramian_family,
                     node_labels, resolve_score_order, weighted_gramian_family)
from .simplex import SimplexWeights, validate_caps
from .spectral import (Nonzeros, SpectralModel, _dense, _nonzeros, _sparse,
                       heat_dirichlet_model)

SCHEMA_VERSION = 1
MODEL_KINDS = ("dense_lti", "spectral_table", "heat_dirichlet")


@dataclass(frozen=True, eq=False)
class ModelFile:
    """Parsed, validated model file content.

    ``dynamics`` is a read-only float64 array.  ``table`` is one too, or,
    for a table with at most :data:`~ctrlscore.spectral._SPARSE_SHARE` of
    its entries nonzero, its read-only
    :class:`~ctrlscore.spectral.Nonzeros` alone.  Equality compares the
    payloads by value, in either form, and a ``ModelFile`` is not hashable.
    """

    schema_version: int
    kind: str
    node_indices: tuple[int, ...]
    score_order: int | None = None
    caps: tuple[float, ...] | None = None
    dynamics: np.ndarray | None = None
    table: np.ndarray | Nonzeros | None = None

    def __eq__(self, other):
        if not isinstance(other, ModelFile):
            return NotImplemented
        scalars = ("schema_version", "kind", "node_indices", "score_order", "caps")
        return (all(getattr(self, name) == getattr(other, name) for name in scalars)
                and np.array_equal(self.dynamics, other.dynamics)
                and _same_table(self.table, other.table))

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


def _same_table(first, second) -> bool:
    """Whether two ``ModelFile.table`` payloads hold the same values."""
    if isinstance(first, Nonzeros) and isinstance(second, Nonzeros):
        return (tuple(first.shape) == tuple(second.shape)
                and all(map(np.array_equal, first[:3], second[:3])))
    if isinstance(first, Nonzeros):
        first = _dense(first)
    if isinstance(second, Nonzeros):
        second = _dense(second)
    return np.array_equal(first, second)


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
    piece of ``text`` up to and including a line feed or a carriage return
    (with the line feed after it, ``\\r\\n`` being one boundary) is split
    on its own, which cuts where the whole text would be cut, as either
    always ends a line.  The next of each is looked up again only once the
    pieces have passed it, so the text is scanned once for each."""
    lineno = 0
    start = 0
    size = len(text)
    feed = ret = -1
    while start < size:
        if feed < start:
            feed = text.find("\n", start) % (size + 1)  # not found: size
        if ret < start:
            ret = text.find("\r", start) % (size + 1)
        end = min(feed, ret) + 1
        if end == ret + 1 and text.startswith("\n", end):
            end += 1
        for raw in text[start:end].splitlines():
            lineno += 1
            body = raw.split("#", 1)[0]
            if body and not body.isspace():
                yield lineno, body
        start = end


#: Most entries of a ``matrix`` or ``table`` block that one step of
#: :func:`_read_rows` reads, by a byte scan of their text
#: (:func:`_scan_chunk`), by one ``np.loadtxt`` call or, where neither
#: takes them, by ``float()`` (:func:`_float_rows`): 128 KiB as float64.
#: The scan holds a few byte masks of the chunk's text and an index of its
#: token starts: at 2^16 entries they took the traced parse peak of the
#: benchmark's diagonal 1000 x 1000 table to 2.05 MiB (``np.loadtxt``
#: alone: 1.12 MiB), at 2^14 to 0.56 MiB, at about the same speed.
_CHUNK_ENTRIES = 1 << 14

#: Which bytes below the space may stand in a chunk's text: those that
#: ``str.split()`` splits on inside one line (tab and unit separator;
#: every other ASCII whitespace byte ends a line) and the line feed that
#: joins the chunk's bodies.  Any other is part of a token.
_BLANK = np.zeros(32, dtype=bool)
_BLANK[[ord("\t"), ord("\x1f"), ord("\n")]] = True


def _load_chunk(bodies: list[str], ncols: int) -> np.ndarray | None:
    """The rows ``bodies`` as a finite ``(len(bodies), ncols)`` array, or
    None where ``np.loadtxt`` fails on them or an entry is not finite."""
    try:
        data = np.loadtxt(bodies, dtype=float, comments=None, ndmin=2,
                          max_rows=len(bodies))
    except ValueError:
        return None
    if data.shape != (len(bodies), ncols) or not np.isfinite(data).all():
        return None
    return data


def _float_rows(chunk, ncols: int, what: str) -> np.ndarray:
    """The rows of ``chunk``, ``(lineno, body)`` pairs, read token by token
    by ``float()`` into a ``(len(chunk), ncols)`` array, one row at a time;
    raises at the first bad row or token.  The array is allocated once a
    row has shown ``ncols`` tokens, so a header's ``ncols`` alone allocates
    nothing.  Token columns are only worked out for the error message."""
    data = np.empty((0, ncols))
    for at, (lineno, body) in enumerate(chunk):
        values = body.split()
        if len(values) != ncols:
            raise ParseError(
                f"{what}: expected {ncols} entries per row, got {len(values)}",
                lineno, _tokens(body)[0][1],
            )
        if not at:
            data = np.empty((len(chunk), ncols))
        try:
            row = tuple(map(float, values))
            finite = all(map(math.isfinite, row))
        except ValueError:
            finite = False
        if not finite:
            for token, col in _tokens(body):
                _to_float(token, lineno, col)  # raises at the first bad token
        data[at] = row
    return data


def _scan_chunk(bodies: list[str], ncols: int, count: int,
                size: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``(flat, values)`` of the entries of a chunk of table rows that are
    not ``+0.0``: their flat positions in the chunk and their values, read
    from the text of ``bodies`` with no float made for the rest.

    The bodies are joined by line feeds and scanned as bytes: a token
    starts at a byte above the space that follows one at or below it.  A
    token spelled ``0.0`` or ``0`` is ``+0.0`` under any float rule and is
    skipped; every other token is read by ``float()``, the grammar's rule.
    None, before any ``float()`` call, where the text is not ASCII, holds a
    control byte that is not a separator (:data:`_BLANK`), a row does not
    have ``ncols`` tokens, or the other tokens break the sparse rule: over
    the chunk's own entries (``np.loadtxt`` reads a denser chunk faster
    than ``float()`` reads its tokens one by one), or with the ``count``
    entries kept so far over the ``size`` entries of the table; and None
    where one of them is not a finite number.  Then :func:`_load_chunk`
    reads the chunk."""
    # a line feed before the first token and three after the last, so that
    # every shifted view of the bytes below has a byte for each token start
    text = "\n".join(["", *bodies, "", "", ""])
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if not _BLANK[raw[raw < 32]].all():
        return None
    first = raw[1:] > 32  # at i: a token starts at byte i + 1
    first &= raw[:-1] <= 32
    starts = np.flatnonzero(first)
    breaks = np.cumsum([len(body) + 1 for body in bodies], dtype=np.intp)
    if not np.array_equal(np.searchsorted(starts, breaks - 1),
                          np.arange(ncols, (len(bodies) + 1) * ncols, ncols)):
        return None
    # at i: the token at byte i + 1, if one starts there, is 0.0 or 0;
    # built in place, so the scan holds few arrays of the chunk's size
    zero = raw[2:-2] == ord(".")
    zero &= raw[3:-1] == ord("0")
    zero &= raw[4:] <= 32
    zero |= raw[2:-2] <= 32
    zero &= raw[1:-3] == ord("0")
    other = np.flatnonzero(first[:-3] > zero)  # starts of the other tokens
    if not (_sparse(other.size, starts.size) and _sparse(count + other.size, size)):
        return None
    try:
        values = np.array([float(_TOKEN.match(text, at).group())
                           for at in (other + 1).tolist()], dtype=float)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    kept = values.view(np.uint64) != 0
    return np.searchsorted(starts, other[kept]), values[kept]


def _filled(kept, nrows: int, ncols: int) -> np.ndarray:
    """A zero ``(nrows, ncols)`` array with each ``(flat, values)`` of
    ``kept`` put at its flat positions."""
    array = np.zeros((nrows, ncols))
    for flat, values in kept:
        array.reshape(-1)[flat] = values
    return array


def _read_rows(lines, nrows: int, ncols: int, what: str,
               header_line: int) -> np.ndarray | Nonzeros:
    """The ``nrows`` rows that ``lines``, the iterator of :func:`_lines`,
    yields after the block's statement at ``header_line``: a ``matrix`` as
    its read-only array, a ``table`` as ``_nonzeros(table) or table`` of
    its read-only array ``table``.

    The rows are read in chunks of at most :data:`_CHUNK_ENTRIES` entries,
    each by the first reader that takes it: :func:`_scan_chunk`, for a
    table that can still be sparse; ``np.loadtxt`` (:func:`_load_chunk`);
    and :func:`_float_rows`, which raises at the chunk's first bad row or
    token.  A block cut short by the end of the file raises once its last
    rows are read.  While the entries read so far that are not ``+0.0``
    are few enough for :func:`~ctrlscore.spectral._sparse` over the whole
    block, each chunk leaves only their flat positions and values.  The
    first chunk with more allocates the array, scatters into it what was
    kept (``-0.0`` too, so it gets the bits of the text) and is copied in,
    as is every later chunk: a dense block peaks at its array, one chunk
    and at most 1/8 of the array of kept entries, a sparse one at its
    nonzeros and a chunk.  A matrix that stays sparse is filled at the
    end.  A table's kept entries without their ``-0.0`` are ``_nonzeros``
    of the array to the bit: the same positions, values and row-major
    order."""
    step = max(1, _CHUNK_ENTRIES // ncols)
    kept, count, array = [], 0, None
    last_line = header_line
    for start in range(0, nrows, step):
        size = min(step, nrows - start)
        chunk = list(islice(lines, size))
        if len(chunk) < size:
            _float_rows(chunk, ncols, what)  # raises at a bad row before the end
            raise ParseError(
                f"{what}: expected {nrows} rows, file ended after {start + len(chunk)}",
                chunk[-1][0] if chunk else last_line, 1,
            )
        last_line = chunk[-1][0]
        bodies = [body for _, body in chunk]
        if array is None and what == "table":
            found = _scan_chunk(bodies, ncols, count, nrows * ncols)
            if found is not None:
                flat, values = found
                count += flat.size
                kept.append((flat + start * ncols, values))
                continue
        data = _load_chunk(bodies, ncols)
        if data is None:
            data = _float_rows(chunk, ncols, what)
        if array is None:
            flat = np.flatnonzero(data.view(np.uint64) != 0)  # a mask scans faster
            count += flat.size
            if _sparse(count, nrows * ncols):
                kept.append((flat + start * ncols, data.reshape(-1)[flat]))
                continue
            array = _filled(kept, nrows, ncols)
            kept = None
        array[start:start + size] = data
    if array is None and what == "matrix":
        array = _filled(kept, nrows, ncols)
    if array is not None:
        array.flags.writeable = False
        return array if what == "matrix" else _nonzeros(array) or array
    flat, values = (np.concatenate(part) for part in zip(*kept))
    nonzero = values != 0.0
    if not nonzero.all():
        flat, values = flat[nonzero], values[nonzero]
    rows, cols = divmod(flat, ncols)
    for part in (rows, cols, values):
        part.flags.writeable = False
    return Nonzeros(rows, cols, values, (nrows, ncols))


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
            matrix = _read_rows(lines, dim, dim, "matrix", lineno)
        elif word == "table":
            if len(tokens) != 3:
                raise ParseError("table takes row and column counts", lineno, col)
            nrows = _to_int(tokens[1][0], lineno, tokens[1][1])
            ncols = _to_int(tokens[2][0], lineno, tokens[2][1])
            if nrows < 1 or ncols < 1:
                raise ParseError("table dimensions must be >= 1", lineno,
                                 tokens[1 if nrows < 1 else 2][1])
            table = _read_rows(lines, nrows, ncols, "table", lineno)
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
        values = table.values if isinstance(table, Nonzeros) else table
        if (values < 0).any():
            raise ParseError("table entries must be >= 0", *where("table"))
        modes = table.shape[0]
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
