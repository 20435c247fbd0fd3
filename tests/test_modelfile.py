import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perfbench_gen
from oracles import dense_table, dump_model_text, model_file_from_spectral
from test_golden_cli import MODELS as GOLDEN_MODELS

import ctrlscore as cs
from ctrlscore import cli, linsys, modelfile, simplex, spectral
from ctrlscore.modelfile import _lines, parse_model_text
from ctrlscore.spectral import Nonzeros, _nonzeros

HEAT_TEXT = """\
ctrlscore-model v1
# four sine modes
kind heat_dirichlet
nodes 1 2 3 4
n 4
"""

DENSE_TEXT = """\
ctrlscore-model v1
kind dense_lti
nodes 1 2
matrix 2
-1 1
0 -2
"""

TABLE_TEXT = """\
ctrlscore-model v1
kind spectral_table
nodes 1 2
n 2
caps 0.8 0.9
table 3 2
1.0 0.0
0.0 0.5
0.0 0.0
"""


def test_parse_heat():
    parsed = parse_model_text(HEAT_TEXT)
    assert parsed.kind == "heat_dirichlet"
    assert parsed.node_indices == (1, 2, 3, 4)
    assert parsed.score_order == 4
    model = parsed.build()
    assert isinstance(model, cs.SpectralModel)
    assert model.score_order == 4


def test_heat_n_is_any_order_up_to_the_node_count():
    for order in (1, 2, None):
        line = "" if order is None else f"n {order}\n"
        model = parse_model_text(HEAT_TEXT.replace("n 4\n", line)).build()
        assert model.score_order == (4 if order is None else order)


def test_parse_dense():
    parsed = parse_model_text(DENSE_TEXT)
    assert parsed.kind == "dense_lti"
    assert np.array_equal(parsed.dynamics, [[-1.0, 1.0], [0.0, -2.0]])
    assert not parsed.dynamics.flags.writeable
    family = parsed.build()
    assert isinstance(family, cs.NodeGramianFamily)
    assert family.score_order == 2


def test_parse_table_with_caps():
    parsed = parse_model_text(TABLE_TEXT)
    assert parsed.caps == (0.8, 0.9)
    assert parsed.score_order == 2
    model = parsed.build()
    assert model.mode_count == 3
    assert model.score_order == 2


def test_table_without_n_selects_min_of_rows_and_nodes():
    parsed = parse_model_text(TABLE_TEXT.replace("n 2\n", ""))
    assert parsed.score_order is None
    assert parsed.build().score_order == 2
    wide = "ctrlscore-model v1\nkind spectral_table\nnodes 1 2 3\ntable 2 3\n1 0 1\n0 1 1\n"
    assert parse_model_text(wide).build().score_order == 2


@pytest.mark.parametrize("text", [HEAT_TEXT, DENSE_TEXT.replace("matrix", "n 2\nmatrix"),
                                  TABLE_TEXT], ids=["heat", "dense", "table"])
def test_build_takes_the_given_order_over_the_files_n(text):
    # The file's n reaches every kind, a dense family included; an order
    # given to build replaces it, and the model checks either one.
    parsed = parse_model_text(text)
    assert parsed.build().score_order == parsed.score_order
    assert parsed.build(1).score_order == 1
    with pytest.raises(cs.IndexMismatch, match="score order 0 out of range"):
        parsed.build(0)


def test_round_trip():
    for text in (HEAT_TEXT, DENSE_TEXT, TABLE_TEXT):
        parsed = parse_model_text(text)
        again = parse_model_text(dump_model_text(parsed))
        assert again == parsed


def test_unstable_dense_raises_on_build():
    text = "ctrlscore-model v1\nkind dense_lti\nnodes 1\nmatrix 1\n1\n"
    parsed = parse_model_text(text)
    with pytest.raises(cs.UnstableSystem):
        parsed.build()


def _table_text(ncols: int, rows) -> str:
    """A spectral_table file with nodes 1..ncols and the given row lines."""
    nodes = " ".join(str(i) for i in range(1, ncols + 1))
    return (f"ctrlscore-model v1\nkind spectral_table\nnodes {nodes}\n"
            f"table {len(rows)} {ncols}\n" + "".join(row + "\n" for row in rows))


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("", 1, 1),
        ("ctrlscore-model v2\n", 1, 17),
        ("hello v1\n", 1, 1),
        ("ctrlscore-model v1\nkind nope\n", 2, 6),
        ("ctrlscore-model v1\nkind heat_dirichlet\nnodes 1 x\n", 3, 9),
        ("ctrlscore-model v1\nkind heat_dirichlet\nnodes 1 2\nn 3\n", 4, 1),
        ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2\ntable 2 2\n1 0\n", 5, 1),
        ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2\ntable 1 2\n1 0 0\n", 5, 1),
        ("ctrlscore-model v1\nkind heat_dirichlet\nnodes 1 2\ncaps 1\n", 4, 1),
        ("ctrlscore-model v1\nkind heat_dirichlet\nnodes 1 2\nn 2\nn 2\n", 5, 1),
        ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2 3\ntable 1 3\n"
         "1.0 0.5 x\n", 5, 9),
        ("ctrlscore-model v1\nkind dense_lti\nnodes 1 2\nmatrix 2\n-1\t1\n"
         "0\t\t-2e\n", 6, 4),
        ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2\ntable 2 2\n1 0\n"
         "   0.5\n", 6, 4),
        ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2\ntable 1 2\n"
         " 1 #0\n", 5, 2),
        ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2\ntable 1 2\n1 nan\n",
         5, 3),
        ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2\ntable 2 2\n1 0\n"
         "1e999 x\n", 6, 1),
        ("ctrlscore-model v1\nkind dense_lti\nnodes 1 2\nmatrix 2\n-1 0\n"
         "0  -inf\n", 6, 4),
        ("ctrlscore-model v1\nkind dense_lti\nnodes 1\nmatrix 1\n\tinf\n", 5, 2),
        ("ctrlscore-model v1\nkind heat_dirichlet\nnodes 1 2\ncaps 1 nan\n", 4, 8),
        # wide blocks: the fallback finds the same place at scale
        (_table_text(400, [" ".join(["1.0"] * 249 + ["x"] + ["1.0"] * 150)]),
         5, 997),
        (_table_text(3, ["1 2 3"] * 699 + ["  1 2"] + ["1 2 3"] * 300), 704, 3),
        (_table_text(400, [" ".join(["1.0"] * 399 + ["1e999"])]), 5, 1597),
    ],
)
def test_parse_errors_carry_position(text, line, column):
    with pytest.raises(cs.ParseError) as info:
        parse_model_text(text)
    assert info.value.line == line
    assert info.value.column == column


@pytest.mark.parametrize("text, message, line, column", [
    ("ctrlscore-model v1\nkind heat_dirichlet\nnodes\n",
     "nodes needs at least one index", 3, 1),
    ("ctrlscore-model v1\nkind spectral_table\nnodes 1 2\ntable 1\n",
     "table takes row and column counts", 4, 1),
])
def test_statement_refusals_carry_message_and_position(text, message, line, column):
    with pytest.raises(cs.ParseError) as info:
        parse_model_text(text)
    assert str(info.value) == f"line {line}, column {column}: {message}"


def test_a_model_file_is_unequal_to_other_types():
    parsed = parse_model_text(HEAT_TEXT)
    assert parsed == parse_model_text(HEAT_TEXT)
    assert (parsed == 3) is False and parsed != "model"


_FUZZ_PIECES = ["0", "1", "-2", "0.5", "1e-3", "nan", "x", "#", "v", "v1", " ",
                "\t", "\n", "\r\n", "\x0c", "\u3000", "kind", "nodes", "n",
                "caps", "matrix", "table", "dense_lti", "spectral_table"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([HEAT_TEXT, DENSE_TEXT, TABLE_TEXT]),
       st.lists(st.tuples(st.floats(0, 1), st.integers(0, 3),
                          st.sampled_from(_FUZZ_PIECES)), max_size=6))
def test_parse_fuzz_returns_model_or_parse_error(seed, edits):
    """Mutated files either parse or raise ParseError at a real position."""
    text = seed
    for where, cut, piece in edits:
        at = int(where * len(text))
        text = text[:at] + piece + text[at + cut:]
    try:
        parsed = parse_model_text(text)
    except cs.ParseError as exc:
        assert 1 <= exc.line <= max(1, len(text.splitlines()))
        assert exc.column >= 1
    else:
        assert isinstance(parsed, cs.ModelFile)


_GOOD_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0.0", "-0.0", "5e-324", "2.225e-308", "1e308", "-1e308"]),
    st.floats(-1e6, 1e6).map(lambda x: "%e" % x),
    st.floats(-1e6, 1e6).map(lambda x: "%.3f" % x),
    st.sampled_from(["+.5", "5.", "1_0", "\u0661", "\uff11"]),
)
_BAD_TOKENS = st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "1,0",
                               "1\x002", "'1'", '"2"'])
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\x1f", "\xa0",
                               "\u2000", "\u3000"])


def _float_reading(rows, gaps, ncols, what):
    """The README rule on payload rows whose tokens ``rows`` are spaced by
    ``gaps`` (one more gap than tokens), the first row on line 5:
    ``(values, None)`` where every row has ``ncols`` tokens that
    ``float()`` reads as finite (and >= 0 in a table), else ``(None,
    (line, column, message))`` of the first bad row or token."""
    for line, (row, seps) in enumerate(zip(rows, gaps), 5):
        columns = [1 + len(seps[0]) + sum(len(t) + len(s) for t, s in zip(row[:j], seps[1:]))
                   for j in range(len(row))]
        if len(row) != ncols:
            return None, (line, columns[0],
                          f"{what}: expected {ncols} entries per row, got {len(row)}")
        for token, column in zip(row, columns):
            try:
                value = float(token)
            except ValueError:
                return None, (line, column, f"expected number, got {token!r}")
            if not np.isfinite(value):
                return None, (line, column, f"expected a finite number, got {token!r}")
    values = np.array([[float(token) for token in row] for row in rows])
    if what == "table" and (values < 0).any():
        return None, (4, 1, "table entries must be >= 0")
    return values, None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_payload_parse_matches_the_float_rule(data):
    """A block parses exactly when every row has ``ncols`` tokens that
    ``float()`` reads as finite, and then to the same bits; else it fails
    at the first bad row or token, with the same line, column and message.
    Read in chunks of 1, 3 or 16 entries, a block spans several chunks,
    and a defect or a token that only ``float()`` reads can land in any."""
    table = data.draw(st.booleans(), label="table")
    nrows = data.draw(st.integers(1, 4), label="nrows")
    ncols = data.draw(st.integers(1, 4), label="ncols") if table else nrows
    rows = [data.draw(st.lists(_GOOD_TOKENS, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for _ in range(data.draw(st.integers(0, 2), label="defects")):
        row = rows[data.draw(st.integers(0, nrows - 1))]
        at = data.draw(st.integers(0, len(row)))
        defect = data.draw(st.sampled_from(["bad", "extra", "drop"]))
        if defect == "bad" and at < len(row):
            row[at] = data.draw(_BAD_TOKENS)
        elif defect == "extra":
            row.insert(at, data.draw(_GOOD_TOKENS))
        elif len(row) > 1:
            row.pop(at % len(row))
    if table:
        # drop minus signs except on -0.0, so the tokens decide, not the sign rule
        rows = [[t.lstrip("-") if t.startswith("-") and t != "-0.0" else t
                 for t in row] for row in rows]
    gaps = [data.draw(st.lists(_SEPARATORS, min_size=len(row) + 1, max_size=len(row) + 1))
            for row in rows]
    lines = [seps[0] + "".join(t + s for t, s in zip(row, seps[1:]))
             for row, seps in zip(rows, gaps)]
    if table:
        text = _table_text(ncols, lines)
    else:
        text = ("ctrlscore-model v1\nkind dense_lti\nnodes 1\n"
                f"matrix {nrows}\n" + "".join(line + "\n" for line in lines))
    chunk = data.draw(st.sampled_from([1, 3, 16]), label="chunk")

    expected, error = _float_reading(rows, gaps, ncols, "table" if table else "matrix")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modelfile, "_CHUNK_ENTRIES", chunk)
        try:
            parsed = parse_model_text(text)
        except cs.ParseError as exc:
            assert error is not None
            line, column, message = error
            assert (exc.line, exc.column) == (line, column)
            assert str(exc) == f"line {line}, column {column}: {message}"
            return
    assert error is None
    payload = parsed.table if table else parsed.dynamics
    assert_same_bits(payload, (_nonzeros(expected) or expected) if table else expected)


def _parts(payload):
    """The arrays of a payload: itself, or the three of its nonzeros."""
    return payload[:3] if isinstance(payload, Nonzeros) else (payload,)


def assert_same_bits(payload, want):
    """``payload`` is read-only and has the form, dtypes, shape and bits of
    ``want``."""
    assert type(payload) is type(want)
    if isinstance(want, Nonzeros):
        assert payload.shape == want.shape
    for got, part in zip(_parts(payload), _parts(want), strict=True):
        assert got.dtype == part.dtype and not got.flags.writeable
        assert np.array_equal(got.view(np.uint64), part.view(np.uint64))


#: Every line boundary of ``str.splitlines``; ``\r\n`` is one.
_BOUNDARIES = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("eol", _BOUNDARIES, ids=repr)
@pytest.mark.parametrize("text", [HEAT_TEXT, DENSE_TEXT, TABLE_TEXT],
                         ids=["heat", "dense", "table"])
def test_every_splitlines_boundary_ends_a_line(text, eol):
    expected = parse_model_text(text)
    assert parse_model_text(text.replace("\n", eol)) == expected
    # the boundary and the line feed in turn
    lines = text.splitlines()
    mixed = "".join(line + ("\n" if i % 2 else eol) for i, line in enumerate(lines))
    assert parse_model_text(mixed) == expected
    # the line feed after the boundary ends a blank line, or with \r one \r\n
    assert parse_model_text(text.replace("\n", eol + "\n")) == expected


@pytest.mark.parametrize("eol", _BOUNDARIES, ids=repr)
def test_an_error_after_any_boundary_is_on_the_line_splitlines_counts(eol):
    # The table's second row, bad at its second token, is line 6 where each
    # boundary ends one line, and line 11 where a line feed follows each
    # boundary: each of the five lines before it gains an empty one, except
    # after \r, where the two make one \r\n.
    rows = ["1 0", "0 x"]
    text = _table_text(2, rows).replace("\n", eol)
    with pytest.raises(cs.ParseError) as info:
        parse_model_text(text)
    assert (info.value.line, info.value.column) == (6, 3)
    doubled = _table_text(2, rows).replace("\n", eol + "\n")
    with pytest.raises(cs.ParseError) as info:
        parse_model_text(doubled)
    assert (info.value.line, info.value.column) == (6 if eol == "\r" else 11, 3)
    assert doubled.splitlines()[info.value.line - 1] == "0 x"


_LINE_PIECES = st.sampled_from(_BOUNDARIES + ["\n", "#", " ", "\t", "a", "1 2"])


@settings(max_examples=500, deadline=None)
@given(st.lists(_LINE_PIECES, max_size=30).map("".join))
def test_the_line_reader_yields_the_nonblank_bodies_of_splitlines(text):
    bodies = [(lineno, raw.split("#", 1)[0])
              for lineno, raw in enumerate(text.splitlines(), 1)]
    assert list(_lines(text)) == [(lineno, body) for lineno, body in bodies
                                  if body.strip()]


@pytest.mark.parametrize("rows", [["1 0", "0 2"], ["1_0 0", "0 \uff12"]],
                         ids=["loadtxt", "row-loop"])
def test_statements_after_a_payload_block_still_parse(rows):
    # The block reader takes its rows alone, also where the row loop reads
    # a chunk that loadtxt fails on, for a spelling only float() reads.
    table = _table_text(2, rows) + "n 1\ncaps 0.5 0.75\n"
    parsed = parse_model_text(table)
    assert parsed.score_order == 1 and parsed.caps == (0.5, 0.75)
    np.testing.assert_array_equal(parsed.table, [[10.0, 0.0], [0.0, 2.0]]
                                  if "_" in rows[0] else [[1.0, 0.0], [0.0, 2.0]])
    dense = ("ctrlscore-model v1\nkind dense_lti\nnodes 1\nmatrix 2\n"
             + "".join(f"-{row}\n" for row in rows) + "n 1\n")
    assert parse_model_text(dense).score_order == 1


def test_a_bad_token_deep_in_a_large_block_keeps_its_line_and_column():
    rows = ["1 2 3"] * 1000
    rows[899] = "1 2e x"
    with pytest.raises(cs.ParseError) as info:
        parse_model_text(_table_text(3, rows))
    assert (info.value.line, info.value.column) == (904, 3)
    assert str(info.value).endswith("expected number, got '2e'")


def _reference_table(text: str) -> np.ndarray:
    """The table block of a model file read by ``float()`` token by token."""
    lines = [line.split("#", 1)[0] for line in text.splitlines()]
    lines = [line for line in lines if line.strip()]
    at = next(i for i, line in enumerate(lines) if line.split()[0] == "table")
    nrows = int(lines[at].split()[1])
    return np.array([[float(token) for token in line.split()]
                     for line in lines[at + 1:at + 1 + nrows]])


def _tables():
    """``(name, text)`` of every table file of the benchmark, at seeds 0 and
    1, and of the golden CLI cases."""
    gen = perfbench_gen()
    for workload in gen.WORKLOADS:
        for seed in (0, 1):
            for model in gen.build(workload, seed)[0].values():
                if model.kind == "spectral_table":
                    yield f"{workload}/{seed}/{model.name}", model.text()
    for name, text in GOLDEN_MODELS.items():
        if "spectral_table" in text:
            yield f"golden/{name}", text


def test_every_benchmark_and_golden_table_parses_to_its_nonzeros_or_its_array():
    names = []
    for name, text in _tables():
        values = _reference_table(text)
        assert_same_bits(parse_model_text(text).table, _nonzeros(values) or values)
        names.append(name)
    assert "spectral-large/1/diag1000" in names and "golden/banded" in names


@pytest.mark.parametrize("fill,signed", [("0.0", False), ("-0.0", False), ("0.0", True)],
                         ids=["0.0", "-0.0", "0.0-and-one-signed"])
def test_a_table_sparse_in_its_first_chunks_and_dense_later_gives_its_array(fill, signed):
    # The first 130 rows have one nonzero each, the rest are full.  The
    # reader keeps what it reads while the table could still be sparse: the
    # scan reads the chunks of 0.0 rows, np.loadtxt those of -0.0 rows and
    # of full ones.  Then it scatters what it kept into the array, and a
    # -0.0 it kept, scanned or loaded, keeps its sign.
    rng = np.random.default_rng(3)
    rows = []
    for k in range(200):
        if k < 130:
            tokens = [fill] * 1000
            tokens[k] = "2.5"
            if signed:
                tokens[(k + 500) % 1000] = "-0.0"
        else:
            tokens = [str(v) for v in rng.integers(1, 9, 1000) / 4]
        rows.append(" ".join(tokens))
    text = _table_text(1000, rows)
    values = _reference_table(text)
    assert_same_bits(parse_model_text(text).table, values)


def test_negative_zeros_count_toward_the_switch_but_not_the_nonzeros():
    # Every entry but the diagonal reads -0.0: the reader keeps them all,
    # so it switches to the array, but the table has 100 nonzeros of 10^4.
    rows = [" ".join("7.0" if i == k else "-0.0" for i in range(100)) for k in range(100)]
    text = _table_text(100, rows)
    table = parse_model_text(text).table
    assert isinstance(table, Nonzeros) and table.values.size == 100
    assert_same_bits(table, _nonzeros(_reference_table(text)))


@pytest.mark.parametrize("fill", ["0.0", "1.0"], ids=["sparse", "dense"])
@pytest.mark.parametrize("row", [2, 900])
def test_a_bad_token_in_any_chunk_keeps_its_line_and_column(fill, row):
    # At 2^14 entries a chunk is 16 rows: row 2 is in the first, row 900 in
    # the 57th.
    rows = [" ".join(["1.0" if i == k else fill for i in range(1000)])
            for k in range(1000)]
    tokens = rows[row - 1].split()
    tokens[500] = "1.0e"
    rows[row - 1] = " ".join(tokens)
    for count in (1000, row):  # the bad token comes first in a file cut after it
        text = _table_text(1000, rows[:count]).replace(f"table {count} ", "table 1000 ")
        with pytest.raises(cs.ParseError) as info:
            parse_model_text(text)
        assert (info.value.line, info.value.column) == (4 + row, 4 * 500 + 1)
        assert str(info.value).endswith("expected number, got '1.0e'")
    # and a file that ends before the row
    text = _table_text(1000, rows[:row - 1]).replace(f"table {row - 1} ", "table 1000 ")
    with pytest.raises(cs.ParseError) as info:
        parse_model_text(text)
    assert (info.value.line, info.value.column) == (3 + row, 1)
    assert str(info.value).endswith(f"expected 1000 rows, file ended after {row - 1}")


#: How a ``+0.0`` or ``-0.0`` entry may be spelled; the scan skips the
#: first two unread, and ``float()`` reads the others.
_ZERO_SPELLINGS = ["0", "0.0", "-0.0", "0.00", "+0.0", "0e0"]
_NONZERO_TOKENS = st.one_of(st.floats(1e-300, 1e300).map(repr),
                            st.floats(1e-6, 1e6).map(lambda x: "%e" % x),
                            st.sampled_from(["+.5", "5.", "2", "1e-320"]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_sparse_table_in_any_spelling_parses_to_its_float_reading(data):
    """Mostly-zero tables, with every zero spelling, separator, comment and
    line ending the scan meets, read in chunks of any size, give
    ``_nonzeros(values) or values`` of their ``float()`` reading to the
    bit, in the same form."""
    nrows = data.draw(st.integers(1, 12), label="nrows")
    ncols = data.draw(st.integers(1, 12), label="ncols")
    other = data.draw(st.sampled_from([0, 1, 4, 16]), label="one entry in")
    entry = st.integers(1, other).flatmap(
        lambda k: _NONZERO_TOKENS if k == 1 else st.sampled_from(_ZERO_SPELLINGS)
    ) if other else st.sampled_from(_ZERO_SPELLINGS)
    rows = [data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for token in ("1_0", "\u0663"):  # float() reads both, np.loadtxt neither
        if data.draw(st.booleans(), label=token):
            rows[data.draw(st.integers(0, nrows - 1))][
                data.draw(st.integers(0, ncols - 1))] = token
    separators = st.sampled_from([" ", "\t", "\x1f"])
    endings = st.sampled_from(["\n"] + _BOUNDARIES)
    lines = [f"table {nrows} {ncols}"]
    for row in rows:
        seps = data.draw(st.lists(separators, min_size=ncols + 1, max_size=ncols + 1))
        line = seps[0] + "".join(t + s for t, s in zip(row, seps[1:]))
        if data.draw(st.booleans(), label="comment after the row"):
            line += "# 1 x"
        lines.append(line)
        if data.draw(st.booleans(), label="comment line"):
            lines.append("  # 2.5 0.0")
    head = "ctrlscore-model v1\nkind spectral_table\nnodes "
    text = head + " ".join(map(str, range(1, ncols + 1))) + "\n" + "".join(
        line + data.draw(endings) for line in lines)
    chunk = data.draw(st.sampled_from([1, 3, 16, modelfile._CHUNK_ENTRIES]), label="chunk")
    # a larger share lets the scan read chunks of these small tables that
    # hold more than 1/16 nonzero tokens; the reference's _nonzeros reads
    # the same share
    share = data.draw(st.sampled_from([spectral._SPARSE_SHARE, 0.5, 1.0]), label="share")

    values = np.array([[float(token) for token in row] for row in rows])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modelfile, "_CHUNK_ENTRIES", chunk)
        patch.setattr(spectral, "_SPARSE_SHARE", share)
        assert_same_bits(parse_model_text(text).table, _nonzeros(values) or values)


def test_a_sparse_table_is_read_without_loadtxt_and_a_dense_one_with_it(monkeypatch):
    real = np.loadtxt

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt read a sparse table")

    monkeypatch.setattr(np, "loadtxt", refuse)
    text = _diagonal_text(1000)
    assert_same_bits(parse_model_text(text).table, _nonzeros(_reference_table(text)))

    calls = []

    def count(*args, **kwargs):
        calls.append(kwargs["max_rows"])
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", count)
    values = np.random.default_rng(1).random((20, 30))
    text = _table_text(30, [" ".join(map(repr, row.tolist())) for row in values])
    assert_same_bits(parse_model_text(text).table, values)
    assert calls == [20]


@pytest.mark.parametrize("row", [2, 900], ids=["first-chunk", "late-chunk"])
@pytest.mark.parametrize("bad,column,message", [
    ("0.0x", 2001, "expected number, got '0.0x'"),
    ("0.0\x01", 2001, "expected number, got '0.0\\x01'"),
    ("1e999", 2001, "expected a finite number, got '1e999'"),
    ("nan", 2001, "expected a finite number, got 'nan'"),
    ("short", 1, "table: expected 1000 entries per row, got 999"),
    ("long", 1, "table: expected 1000 entries per row, got 1001"),
], ids=["0.0x", "0.0-control", "1e999", "nan", "short", "long"])
def test_an_error_in_a_scanned_chunk_keeps_its_line_and_column(
        monkeypatch, bad, column, message, row):
    # A diagonal 1000 x 1000 table, the 501st token of one row replaced, or
    # dropped, or doubled.  Each chunk before the row's is scanned and
    # kept; the row's chunk fails the scan, np.loadtxt and then the row loop.
    tokens = [["1.5" if i == k else "0.0" for i in range(1000)] for k in range(1000)]
    if bad == "short":
        del tokens[row - 1][500]
    elif bad == "long":
        tokens[row - 1].insert(500, "0.0")
    else:
        tokens[row - 1][500] = bad
    scanned = []
    scan = modelfile._scan_chunk

    def spy(*args):
        found = scan(*args)
        scanned.append(found is not None)
        return found

    monkeypatch.setattr(modelfile, "_scan_chunk", spy)
    with pytest.raises(cs.ParseError) as info:
        parse_model_text(_table_text(1000, [" ".join(line) for line in tokens]))
    assert (info.value.line, info.value.column) == (4 + row, column)
    assert str(info.value).endswith(message)
    assert scanned == [True] * ((row - 1) // (modelfile._CHUNK_ENTRIES // 1000)) + [False]


def test_scanning_the_benchmark_diagonal_table_peaks_below_reading_it_by_loadtxt(tmp_path):
    # Read by np.loadtxt in chunks of 2^16 entries, the parse of diag1000's
    # 3.8 MiB text peaked at 1.12 MiB beside it; scanned in chunks of 2^16
    # entries, at 2.05 MiB, and of 2^14, at 0.56 MiB.  The load peaks where
    # the file's bytes and its text coexist (7.67 MiB), above the parse.
    gen = perfbench_gen()
    text = gen.build("spectral-large", 0)[0]["diag1000"].text()
    tracemalloc.start()
    try:
        parse_model_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.12 * 2**20
    path = tmp_path / "diag1000.csm"
    path.write_text(text)
    model, peak, _ = _traced_load(path)
    assert model.eigen_table.values.size == 1000
    assert peak <= 2 * len(text) + 2**16


def _traced_parse(text):
    """``(parsed, peak)``: the model file of ``text`` and the traced peak
    of its parse."""
    tracemalloc.start()
    try:
        parsed = parse_model_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return parsed, peak


@pytest.mark.parametrize("row", [992, 1000], ids=["full-chunk", "last-row"])
def test_a_token_only_float_reads_sends_one_chunk_through_the_row_loop(monkeypatch, row):
    # The benchmark's diag1000 with one 0.0 of a row replaced by an
    # Arabic-Indic zero, which float() reads and the scan and np.loadtxt do
    # not.  The float() row loop reads that row's chunk alone: 16 rows, or
    # the last 8 (1000 = 62 x 16 + 8); the scan keeps reading the others,
    # so the parse gets the same nonzeros at about the same peak.
    gen = perfbench_gen()
    plain = gen.build("spectral-large", 0)[0]["diag1000"].text()
    lines = plain.split("\n")
    tokens = lines[3 + row].split(" ")
    tokens[tokens.index("0.0")] = "\u0660"
    lines[3 + row] = " ".join(tokens)
    odd = "\n".join(lines)
    read = []
    float_rows = modelfile._float_rows

    def spy(chunk, *args):
        read.append([lineno for lineno, _ in chunk])
        return float_rows(chunk, *args)

    monkeypatch.setattr(modelfile, "_float_rows", spy)
    parse_model_text(odd), parse_model_text(plain)  # warm up
    read.clear()
    expected, plain_peak = _traced_parse(plain)
    parsed, peak = _traced_parse(odd)
    assert_same_bits(parsed.table, expected.table)
    assert isinstance(parsed.table, Nonzeros)
    assert peak <= plain_peak + 2**16
    step = modelfile._CHUNK_ENTRIES // 1000
    first = (row - 1) // step * step + 1
    assert read == [list(range(4 + first, 5 + min(first + step - 1, 1000)))]
    assert len(read[0]) == (16 if row == 992 else 8)


@pytest.mark.parametrize("kind,block,row,message", [
    ("dense_lti", "matrix 400000", " ".join(["-1"] * 400000),
     "matrix: expected 400000 rows, file ended after 1"),
    ("spectral_table", "table 20000 20000", " ".join(["1"] * 20000),
     "table: expected 20000 rows, file ended after 1"),
    ("spectral_table", "table 1 1000000000000", "1 2",
     "table: expected 1000000000000 entries per row, got 2"),
], ids=["matrix", "table", "table-columns"])
def test_a_block_header_that_overstates_its_block_ends_in_a_parse_error(
        tmp_path, capsys, kind, block, row, message):
    # One row under a header that claims a block of 1.6e11, 4e8 or 1e12
    # entries: the reader holds what the row has shown, then finds the file
    # ended or the row short.
    text = f"ctrlscore-model v1\nkind {kind}\nnodes 1\n{block}\n{row}\n"
    with pytest.raises(cs.ParseError) as info:
        parse_model_text(text)
    assert (info.value.line, info.value.column) == (5, 1)
    assert str(info.value).endswith(message)
    path = tmp_path / "overstated.csm"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error: {info.value}\n"


def test_model_files_compare_their_tables_by_value_in_either_form():
    text = _diagonal_text(40)
    parsed = parse_model_text(text)
    assert isinstance(parsed.table, Nonzeros)
    assert parsed == parse_model_text(text)
    assert parsed != parse_model_text(text.replace("1.5", "1.25"))
    values = dense_table(parsed.table)
    assert np.array_equal(values, _reference_table(text))
    as_array = dataclasses.replace(parsed, table=values)
    assert parsed == as_array and as_array == parsed
    values[0, 1] = 1.0
    assert parsed != dataclasses.replace(parsed, table=values)
    assert parsed != dataclasses.replace(parsed, table=None)


def _diagonal_text(size: int, eol: str = "\n") -> str:
    """A ``size`` x ``size`` diagonal table, as the benchmark writes one:
    short zero tokens, so the text is about half the dense array."""
    rows = []
    for k in range(size):
        tokens = ["0.0"] * size
        tokens[k] = repr(1.0 + k / size)
        rows.append(" ".join(tokens))
    return _table_text(size, rows).replace("\n", eol)


def _traced_load(path):
    """``(model, peak, held)``: the model that ``cli._load`` and ``build``
    make of the file at ``path``, the traced peak of both, and what the
    model alone holds once the parsed file is gone."""
    tracemalloc.start()
    try:
        parsed, _ = cli._load(str(path))
        model = parsed.build()
        peak = tracemalloc.get_traced_memory()[1]
        del parsed
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return model, peak, held


def test_loading_a_large_sparse_table_peaks_near_its_text(tmp_path):
    # The file's bytes and its text coexist while it is decoded; after
    # that the parse reads the rows in chunks and keeps the nonzeros alone.
    # Read into one K x m array that the model kept, the load peaked at
    # 12.5 MiB beside a 3.8 MiB text, and the model held 7.6 MiB.
    size = 1000
    text = _diagonal_text(size)
    path = tmp_path / "diag.csm"
    path.write_text(text)
    model, peak, held = _traced_load(path)
    assert isinstance(model.eigen_table, Nonzeros) and model.eigen_table.values.size == size
    assert peak < 2 * len(text) + 0.5 * 2**20
    assert held < 2**20


def test_line_endings_give_the_same_file_and_peak(tmp_path):
    # Lines that end in a carriage return alone were split by one
    # ``splitlines`` call over the whole text, and the load peaked 3.8 MiB
    # higher than with line feeds.
    loads = {}
    for name, eol in (("lf", "\n"), ("cr", "\r"), ("crlf", "\r\n")):
        path = tmp_path / f"{name}.csm"
        path.write_bytes(_diagonal_text(1000, eol).encode())
        tracemalloc.start()
        try:
            parsed, _ = cli._load(str(path))
            loads[name] = parsed, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert loads["cr"][0] == loads["lf"][0] == loads["crlf"][0]
    peaks = [peak for _, peak in loads.values()]
    assert max(peaks) - min(peaks) < 0.5 * 2**20


def test_parsed_table_holds_little_more_than_its_array():
    values = np.random.default_rng(0).random((200, 200))
    text = _table_text(200, [" ".join(map(repr, row.tolist())) for row in values])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_model_text(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(parsed.table, values)
    assert held <= 1.25 * parsed.table.nbytes


def test_loading_a_table_file_peaks_below_three_times_its_size(tmp_path):
    # The file's bytes go once the digest and the text are taken, so the
    # parse does not run beside them; with them the load peaked at 3.49
    # times the file size.
    values = np.random.default_rng(0).random((300, 300))
    path = tmp_path / "table.csm"
    path.write_text(_table_text(300, [" ".join(map(repr, row.tolist())) for row in values]))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        parsed, _ = cli._load(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(parsed.table, values)
    assert peak < 3 * size


def test_a_parsed_table_builds_its_model_without_a_copy():
    # The payload is a read-only float64 array that owns its data, so the
    # model keeps it; a copy would allocate the table's bytes again.
    values = np.random.default_rng(0).random((200, 200))
    text = _table_text(200, [" ".join(map(repr, row.tolist())) for row in values])
    parsed = parse_model_text(text)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = parsed.build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert model.eigen_table is parsed.table
    assert peak < 0.25 * parsed.table.nbytes


HEADER = "ctrlscore-model v1\n"


@pytest.mark.parametrize("body,line,column,rule", [
    ("kind heat_dirichlet\nnodes 1 1\n", 3, 1, lambda: linsys.node_labels((1, 1))),
    ("kind heat_dirichlet\n  nodes 0 1\n", 3, 3, lambda: linsys.node_labels((0, 1))),
    ("kind heat_dirichlet\nnodes 1 2\nn 3\n", 4, 1,
     lambda: linsys.resolve_score_order(3, 2)),
    ("kind spectral_table\nnodes 1 2\n\tn 0\ntable 3 2\n1 0\n0 1\n1 1\n", 4, 2,
     lambda: linsys.resolve_score_order(0, 3)),
    ("kind dense_lti\nnodes 1 2\nn 5\nmatrix 2\n-1 0\n0 -2\n", 4, 1,
     lambda: linsys.resolve_score_order(5, 2)),
    ("kind heat_dirichlet\nnodes 1 2\ncaps 1\n", 4, 1,
     lambda: simplex.validate_caps((1.0,), 2)),
    ("kind heat_dirichlet\nnodes 1 2\ncaps 1.5 -0.5\n", 4, 1,
     lambda: simplex.validate_caps((1.5, -0.5), 2)),
    ("kind heat_dirichlet\nnodes 1 2\ncaps 0.2 0.2\n", 4, 1,
     lambda: simplex.validate_caps((0.2, 0.2), 2)),
], ids=["repeated-node", "node-zero", "heat-n", "table-n", "dense-n", "few-caps",
        "negative-cap", "caps-below-one"])
def test_a_statement_that_breaks_a_model_rule_is_a_parse_error_there(
        tmp_path, capsys, body, line, column, rule):
    # The parser applies the models' own rules, so the message is the
    # rule's, placed at the statement, and the CLI exits 1 with it.
    with pytest.raises(cs.CtrlscoreError) as expected:
        rule()
    message = f"line {line}, column {column}: {expected.value}"
    with pytest.raises(cs.ParseError) as info:
        parse_model_text(HEADER + body)
    assert (info.value.line, info.value.column, str(info.value)) == (line, column, message)
    path = tmp_path / "model.csm"
    path.write_text(HEADER + body)
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_missing_payload_rejected():
    with pytest.raises(cs.ParseError):
        parse_model_text("ctrlscore-model v1\nkind dense_lti\nnodes 1\n")
    with pytest.raises(cs.ParseError):
        parse_model_text("ctrlscore-model v1\nkind spectral_table\nnodes 1\n")


def test_negative_table_entry_rejected():
    text = ("ctrlscore-model v1\nkind spectral_table\nnodes 1\nn 1\n"
            "table 1 1\n-0.5\n")
    with pytest.raises(cs.ParseError):
        parse_model_text(text)


def test_caps_must_cover_simplex():
    text = "ctrlscore-model v1\nkind heat_dirichlet\nnodes 1 2\ncaps 0.2 0.2\n"
    with pytest.raises(cs.ParseError):
        parse_model_text(text)


def test_spectral_model_serialization_round_trip():
    model = cs.heat_dirichlet_model([2, 3, 5])
    wrapped = model_file_from_spectral(model, caps=[0.9, 0.9, 0.9])
    reparsed = parse_model_text(dump_model_text(wrapped))
    rebuilt = reparsed.build()
    np.testing.assert_allclose(rebuilt.eigen_table, model.eigen_table,
                               rtol=1e-15)
    assert rebuilt.node_indices == model.node_indices
    assert rebuilt.score_order == model.score_order
    assert reparsed.caps == (0.9, 0.9, 0.9)


@pytest.mark.parametrize("order, code", [(None, 0), (500, 3)])
def test_scoring_a_sparse_table_file_allocates_no_array_of_its_size(
        tmp_path, monkeypatch, capsys, order, code):
    # The 1000 x 1000 array would take 7.6 MiB.  With n = 500 the spectrum
    # check reads the table too, fails, and the eight starts of the
    # non-convex problem disagree.
    path = tmp_path / "diag.csm"
    path.write_text(_diagonal_text(1000))
    loaded = cli._load(str(path))
    monkeypatch.setattr(cli, "_load", lambda _: loaded)
    argv = ["score", str(path), "--kind", "vcs"] + ([] if order is None else ["--n", "500"])
    tracemalloc.start()
    try:
        assert cli.main(argv) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "node  weight" in capsys.readouterr().out
    assert peak < 2**20
