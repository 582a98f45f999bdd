import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embcompare import (
    EmbeddingMatrix,
    ParseError,
    align_vocabularies,
    parse_embedding,
    row_normalize,
    write_glove_text,
)
from embcompare.embedding_io import opened
from helpers import make_embedding


def test_opened_closes_paths_and_leaves_handles_open(tmp_path):
    buf = io.StringIO()
    with opened(buf, "w") as fh:
        assert fh is buf
    assert not buf.closed

    path = tmp_path / "out.txt"
    with opened(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("a\r\n")
    assert fh.closed
    assert path.read_bytes() == b"a\r\n"  # newline="" reached open()


def test_parse_glove_identity():
    e = parse_embedding(io.StringIO("a 1.0 0.0\nb 0.0 1.0"))
    assert e.vocab == ("a", "b")
    assert np.array_equal(e.values, np.eye(2))


def test_parse_word2vec_header():
    e = parse_embedding(io.StringIO("2 3\nx 1 2 3\ny 4 5 6"))
    assert e.vocab == ("x", "y")
    assert e.values.shape == (2, 3)
    assert np.array_equal(e.values, [[1, 2, 3], [4, 5, 6]])


def test_parse_bytes_stream():
    e = parse_embedding(io.BytesIO(b"a 1.0 0.0\nb 0.0 1.0\n"))
    assert e.vocab == ("a", "b")


def test_parse_from_path(tmp_path):
    p = tmp_path / "vectors.txt"
    p.write_text("a 1 2\nb 3 4\n")
    e = parse_embedding(p)
    assert e.name == "vectors"
    assert e.n_dims == 2


def test_ragged_rows_error_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_embedding(io.StringIO("a 1 2 3\nb 1 2 3 4"))
    # one value must not be broadcast across the row
    with pytest.raises(ParseError, match="line 2: expected 3 values for 'b', got 1"):
        parse_embedding(io.StringIO("a 1 2 3\nb 7\n"))


def test_duplicate_word_error_names_word():
    with pytest.raises(ParseError, match="'dup'"):
        parse_embedding(io.StringIO("dup 1 2\nother 3 4\ndup 5 6"))


def test_non_finite_value_error():
    with pytest.raises(ParseError, match="non-finite"):
        parse_embedding(io.StringIO("a 1 2\nb nan 4"))


def test_non_numeric_value_error():
    with pytest.raises(ParseError, match="line 1"):
        parse_embedding(io.StringIO("a 1 oops"))


def test_empty_file_error():
    with pytest.raises(ParseError, match="empty"):
        parse_embedding(io.StringIO(""))


def test_header_count_mismatch_error():
    with pytest.raises(ParseError, match="declares 3"):
        parse_embedding(io.StringIO("3 2\na 1 2\nb 3 4"))


def test_huge_header_count_is_checked_not_allocated():
    rows = "".join(f"w{i} " + " ".join(["0.5"] * 300) + "\n" for i in range(2))
    with pytest.raises(ParseError, match="header declares 1000000000 rows"):
        parse_embedding(io.StringIO("1000000000 300\n" + rows))


def test_huge_header_dim_is_checked_not_allocated():
    with pytest.raises(ParseError, match="line 2: expected 1000000000000 values"):
        parse_embedding(io.StringIO("2 1000000000000\na 1 2\nb 3 4\n"))


def test_values_use_python_float_grammar():
    tokens = ["1_000", "-0", "1e-400", "\u0661\u0662", "+.5E1"]
    e = parse_embedding(io.StringIO("a " + " ".join(tokens)))
    assert e.values[0].tolist() == [float(t) for t in tokens] == [1000, 0, 0, 12, 5]
    with pytest.raises(ParseError, match="line 1: non-finite"):
        parse_embedding(io.StringIO("a 1 infinity"))
    with pytest.raises(ParseError, match="line 1: non-numeric"):
        parse_embedding(io.StringIO("a 1 0x10"))


def test_word2vec_hint_requires_header():
    with pytest.raises(ParseError, match="header"):
        parse_embedding(io.StringIO("a 1 2\nb 3 4"), format_hint="word2vec_text")


def test_glove_hint_treats_header_like_row():
    e = parse_embedding(io.StringIO("400000 300\nother 1"), format_hint="glove_text")
    assert e.vocab == ("400000", "other")
    assert e.n_dims == 1


def test_auto_detection_requires_two_positive_integers():
    # three tokens on line one: plain glove data
    e = parse_embedding(io.StringIO("2 3 4\nx 1 2"))
    assert e.vocab == ("2", "x")
    # two tokens but not positive integers: glove data as well
    e = parse_embedding(io.StringIO("up 1\ndown -1"))
    assert e.vocab == ("up", "down")


def test_blank_lines_ignored():
    e = parse_embedding(io.StringIO("a 1 2\n\nb 3 4\n\n"))
    assert e.vocab == ("a", "b")


def test_unknown_format_hint():
    with pytest.raises(ValueError, match="format_hint"):
        parse_embedding(io.StringIO("a 1"), format_hint="binary")


def test_values_are_read_only():
    e = parse_embedding(io.StringIO("a 1 2\nb 3 4"))
    with pytest.raises(ValueError):
        e.values[0, 0] = 9.0


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_glove(seed):
    rng = np.random.default_rng(seed)
    e = make_embedding(rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-3, 3))
    buf = io.StringIO()
    write_glove_text(e, buf)
    again = parse_embedding(io.StringIO(buf.getvalue()), format_hint="glove_text")
    assert again.vocab == e.vocab
    # 6 significant digits declared precision
    assert np.allclose(again.values, e.values, rtol=1e-5, atol=0)


def test_round_trip_via_file(tmp_path):
    e = make_embedding([[1.25, -3.5], [0.5, 2.0]])
    path = tmp_path / "out.txt"
    write_glove_text(e, path)
    again = parse_embedding(path)
    assert np.array_equal(again.values, e.values)  # short decimals are exact


# Words: any non-empty run of encodable, non-whitespace characters.
_words = st.text(
    st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1
)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n_dims=st.integers(1, 6),
    vocab=st.lists(_words, min_size=1, max_size=8, unique=True),
    word2vec=st.booleans(),
)
def test_write_parse_round_trip(data, n_dims, vocab, word2vec):
    values = np.array(
        data.draw(
            st.lists(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False),
                    min_size=n_dims,
                    max_size=n_dims,
                ),
                min_size=len(vocab),
                max_size=len(vocab),
            )
        ),
        dtype=np.float64,
    ).reshape(len(vocab), n_dims)
    buf = io.StringIO()
    if word2vec:
        buf.write(f"{len(vocab)} {n_dims}\n")
    write_glove_text(make_embedding(values, vocab), buf)
    again = parse_embedding(
        io.BytesIO(buf.getvalue().encode("utf-8")),
        format_hint="word2vec_text" if word2vec else "glove_text",
    )
    assert again.vocab == tuple(vocab)
    expected = [[float(f"{v:.6g}") for v in row] for row in values.tolist()]
    assert again.values.tolist() == expected


def test_align_orders_by_left_vocab():
    a = make_embedding([[1, 0], [2, 0], [3, 0]], vocab=("x", "y", "z"))
    b = make_embedding([[30, 1], [10, 1]], vocab=("z", "x"))
    pair = align_vocabularies(a, b)
    assert pair.left.vocab == ("x", "z")
    assert pair.right.vocab == ("x", "z")
    assert pair.shared_count == 2
    assert pair.dropped_left == 1
    assert pair.dropped_right == 0
    assert np.array_equal(pair.left.values[:, 0], [1, 3])
    assert np.array_equal(pair.right.values[:, 0], [10, 30])


def test_align_identical_is_lossless():
    a = make_embedding(np.arange(6.0).reshape(3, 2))
    b = make_embedding(np.arange(6.0).reshape(3, 2) + 1)
    pair = align_vocabularies(a, b)
    assert pair.shared_count == a.n_words
    assert pair.dropped_left == pair.dropped_right == 0
    assert pair.left.values is a.values  # no copy needed


def test_align_disjoint_errors():
    a = make_embedding([[1.0], [2.0]], vocab=("p", "q"))
    b = make_embedding([[1.0], [2.0]], vocab=("r", "s"))
    with pytest.raises(ValueError, match="share no vocabulary"):
        align_vocabularies(a, b)


def test_align_is_idempotent():
    rng = np.random.default_rng(3)
    a = make_embedding(rng.standard_normal((5, 3)), vocab=tuple("abcde"))
    b = make_embedding(rng.standard_normal((4, 3)), vocab=tuple("dcba"))
    pair = align_vocabularies(a, b)
    again = align_vocabularies(pair.left, pair.right)
    assert again.left.vocab == pair.left.vocab
    assert np.array_equal(again.left.values, pair.left.values)
    assert np.array_equal(again.right.values, pair.right.values)
    assert again.dropped_left == again.dropped_right == 0


def test_align_rows_correspond_to_same_word():
    rng = np.random.default_rng(4)
    a = make_embedding(rng.standard_normal((6, 2)), vocab=tuple("abcdef"))
    b = make_embedding(rng.standard_normal((5, 2)), vocab=tuple("fdbca"))
    pair = align_vocabularies(a, b)
    for i, w in enumerate(pair.left.vocab):
        assert np.array_equal(pair.left.values[i], a.values[a.index[w]])
        assert np.array_equal(pair.right.values[i], b.values[b.index[w]])


def test_row_normalize_three_four_five():
    e = make_embedding([[3.0, 4.0], [0.0, 1.0]])
    unit, n_zero = row_normalize(e)
    assert n_zero == 0
    assert np.allclose(unit.values[0], [0.6, 0.8])
    assert np.array_equal(unit.values[1], [0.0, 1.0])


def test_row_normalize_zero_row_flagged():
    e = make_embedding([[0.0, 0.0], [1.0, 0.0]])
    unit, n_zero = row_normalize(e)
    assert n_zero == 1
    assert np.array_equal(unit.values[0], [0.0, 0.0])


def test_row_normalize_unit_row_unchanged():
    e = make_embedding([[1.0, 0.0]], vocab=("w",))
    unit, n_zero = row_normalize(e)
    assert n_zero == 0
    assert np.array_equal(unit.values, e.values)


def test_matrix_validation_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingMatrix(vocab=("a", "a"), values=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="rows"):
        EmbeddingMatrix(vocab=("a",), values=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingMatrix(vocab=("a",), values=[[np.nan]])
    with pytest.raises(ValueError, match="empty"):
        EmbeddingMatrix(vocab=(), values=np.zeros((0, 1)))
    with pytest.raises(ValueError, match="2-D"):
        EmbeddingMatrix(vocab=("a",), values=np.zeros(3))
