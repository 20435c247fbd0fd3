import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dump_model_text, model_file_from_spectral

import ctrlscore as cs
from ctrlscore import cli, linsys, simplex
from ctrlscore.modelfile import _lines, parse_model_text

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


def _reference_payload(rows, ncols, nonnegative):
    """The README rule: ``ncols`` tokens per row, each finite under
    ``float()`` (and >= 0 in a table); None where it rejects."""
    if any(len(row) != ncols for row in rows):
        return None
    try:
        values = np.array([[float(token) for token in row] for row in rows])
    except ValueError:
        return None
    if not np.isfinite(values).all() or (nonnegative and (values < 0).any()):
        return None
    return values


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_payload_parse_matches_the_float_rule(data):
    """A block parses exactly when every row has ``ncols`` tokens that
    ``float()`` reads as finite, and then to the same bits."""
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
    lines = []
    for row in rows:
        seps = data.draw(st.lists(_SEPARATORS, min_size=len(row) + 1,
                                  max_size=len(row) + 1))
        lines.append(seps[0] + "".join(t + s for t, s in zip(row, seps[1:])))
    if table:
        text = _table_text(ncols, lines)
    else:
        text = ("ctrlscore-model v1\nkind dense_lti\nnodes 1\n"
                f"matrix {nrows}\n" + "".join(line + "\n" for line in lines))

    expected = _reference_payload(rows, ncols, nonnegative=table)
    try:
        parsed = parse_model_text(text)
    except cs.ParseError:
        assert expected is None
        return
    assert expected is not None
    payload = parsed.table if table else parsed.dynamics
    assert payload.dtype == np.float64 and not payload.flags.writeable
    assert np.array_equal(payload.view(np.uint64), expected.view(np.uint64))


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
    # them again after loadtxt fails on a spelling only float() reads.
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


def test_loading_a_large_sparse_table_peaks_near_its_text_and_array(tmp_path):
    # Short tokens, as in a diagonal table: the text is about half the
    # array.  The parse reads one line at a time into one array of the
    # block's size; with the text split into a list of lines and a growing
    # loadtxt result it peaked at 16.8 MiB, for a 3.8 MiB text and a
    # 7.6 MiB array.
    size = 1000
    rows = []
    for k in range(size):
        tokens = ["0.0"] * size
        tokens[k] = repr(1.0 + k / size)
        rows.append(" ".join(tokens))
    text = _table_text(size, rows)
    path = tmp_path / "diag.csm"
    path.write_text(text)
    tracemalloc.start()
    try:
        parsed, _ = cli._load(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.table.shape == (size, size)
    assert peak < len(text) + parsed.table.nbytes + 1.5 * 2**20


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
