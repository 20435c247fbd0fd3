import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrlscore as cs
from ctrlscore.modelfile import dump_model_text, parse_model_text

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
    assert parsed.default_score_order() == 4
    model = parsed.build()
    assert isinstance(model, cs.SpectralModel)


def test_parse_dense():
    parsed = parse_model_text(DENSE_TEXT)
    assert parsed.kind == "dense_lti"
    assert parsed.dynamics == ((-1.0, 1.0), (0.0, -2.0))
    family = parsed.build()
    assert isinstance(family, cs.NodeGramianFamily)
    assert parsed.default_score_order() == 2


def test_parse_table_with_caps():
    parsed = parse_model_text(TABLE_TEXT)
    assert parsed.caps == (0.8, 0.9)
    assert parsed.score_order == 2
    model = parsed.build()
    assert model.mode_count == 3
    np.testing.assert_allclose(parsed.caps_vector(), [0.8, 0.9])


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
    wrapped = cs.model_file_from_spectral(model, caps=[0.9, 0.9, 0.9])
    reparsed = parse_model_text(dump_model_text(wrapped))
    rebuilt = reparsed.build()
    np.testing.assert_allclose(rebuilt.eigen_table, model.eigen_table,
                               rtol=1e-15)
    assert rebuilt.node_indices == model.node_indices
    assert rebuilt.score_order == model.score_order
    assert reparsed.caps == (0.9, 0.9, 0.9)
