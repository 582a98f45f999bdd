import io
import os
import pickle
import re
import signal
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from embcompare import (
    AlignedPair,
    EmbeddingMatrix,
    ParseError,
    align_vocabularies,
    embedding_io,
    parse_embedding,
    row_normalize,
    write_glove_text,
)
from embcompare.analogy_eval import AnalogyParseError, parse_analogy_file, read_answers_csv
from embcompare.embedding_io import opened
from helpers import assert_no_child_left, make_embedding
from oracles import parse_embedding_rowwise, write_glove_text_rowwise


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


@pytest.mark.parametrize("error", [ParseError, AnalogyParseError, ValueError])
def test_opened_names_a_paths_errors_and_keeps_their_type(tmp_path, error):
    path = tmp_path / "in.txt"
    path.write_bytes(b"")
    with pytest.raises(error) as raised:
        with opened(path, "rb"):
            raise error("line 2: bad")
    assert type(raised.value) is error
    assert str(raised.value) == f"{path}: line 2: bad"
    # a handle's errors are its owner's to name
    with pytest.raises(error) as raised:
        with opened(io.BytesIO(), "rb"):
            raise error("line 2: bad")
    assert type(raised.value) is error
    assert str(raised.value) == "line 2: bad"


def test_opened_passes_unicode_errors_through(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xff")
    with pytest.raises(UnicodeDecodeError) as raised:
        with opened(path, "rb") as fh:
            fh.read().decode("utf-8")
    assert str(path) not in str(raised.value)


def test_readers_leave_a_handles_errors_unnamed():
    with pytest.raises(ParseError, match=r"^line 2: non-numeric value in row 'b'$"):
        parse_embedding(io.BytesIO(b"a 1\nb x\n"))
    with pytest.raises(AnalogyParseError, match=r"^line 2: expected 4 words, got 2$"):
        parse_analogy_file(io.StringIO(": c\na b\n"))
    with pytest.raises(ValueError, match=r"^line 2: input is not valid UTF-8$"):
        read_answers_csv(io.BytesIO(b"question_index,a,b,c,d,predicted,status\n0,\xff\n"))


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


@pytest.mark.parametrize("as_path", [str, lambda p: p])
def test_parse_error_from_a_path_names_the_file(tmp_path, as_path):
    p = tmp_path / "bad.txt"
    p.write_text("a 1 2\nb 3 x\n")
    with pytest.raises(ParseError) as got:
        parse_embedding(as_path(p))
    assert str(got.value) == f"{p}: line 2: non-numeric value in row 'b'"
    # a handle has no name to give: the message starts with the line
    with open(p, "rb") as fh, pytest.raises(ParseError) as got:
        parse_embedding(fh)
    assert str(got.value) == "line 2: non-numeric value in row 'b'"


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


def test_auto_names_its_header_guess_when_the_first_row_disagrees():
    # a positive-integer word with one positive-integer value reads as a
    # word2vec header; the rule stays, the error says what was assumed
    buf = io.BytesIO()
    write_glove_text(EmbeddingMatrix(vocab=("5", "w"), values=[[3.0], [1.0]]), buf)
    assert buf.getvalue() == b"5 3\nw 1\n"
    with pytest.raises(ParseError) as exc:
        parse_embedding(io.BytesIO(buf.getvalue()))
    assert str(exc.value) == (
        "line 2: expected 3 values for 'w', got 1 (line 1 was read as a word2vec "
        "'<count> <dim>' header; use format glove_text if it is a row)"
    )
    e = parse_embedding(io.BytesIO(buf.getvalue()), format_hint="glove_text")
    assert e.vocab == ("5", "w")
    # a later row's width error is the row's own
    with pytest.raises(ParseError) as exc:
        parse_embedding(io.StringIO("\n2 3\nw 1 2 3\nv 1\n"))
    assert str(exc.value) == "line 4: expected 3 values for 'v', got 1"


def test_explicit_word2vec_width_error_keeps_its_message():
    with pytest.raises(ParseError) as exc:
        parse_embedding(io.StringIO("5 3\nw 1\n"), format_hint="word2vec_text")
    assert str(exc.value) == "line 2: expected 3 values for 'w', got 1"


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


# Finite doubles, with the edges of %g's output spelled out.
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 1.2345e-310, 2.2250738585072014e-308,
        1.79e308, -1.79e308, 1.7976931348623157e308, 999999.5, 0.000123456789,
    ]),
)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n_dims=st.integers(1, 5),
    vocab=st.lists(_words, min_size=1, max_size=12, unique=True),
    write_rows=st.integers(1, 5),
)
def test_writer_bytes_match_the_rowwise_oracle(data, n_dims, vocab, write_rows):
    values = np.array(
        [data.draw(st.lists(_EDGE_FLOATS, min_size=n_dims, max_size=n_dims))
         for _ in vocab],
        dtype=np.float64,
    )
    e = make_embedding(values, vocab)
    expected = write_glove_text_rowwise(vocab, values.tolist())
    with mock.patch.object(embedding_io, "_WRITE_ROWS", write_rows), \
            tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.txt"
        write_glove_text(e, path)
        assert path.read_bytes() == expected.encode("utf-8")
        raw, text = io.BytesIO(), io.StringIO()
        write_glove_text(e, raw)
        write_glove_text(e, text)
    assert raw.getvalue() == expected.encode("utf-8")
    assert text.getvalue() == expected


def _boundary_values() -> list[float]:
    """Doubles at the edges of the writer's table path, both signs."""
    values = []
    for j in range(-5, 8):  # %g switches notation at 1e-4 and 1e6
        power = 10.0**j
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
    # nearest doubles of decimals half way between two 6-digit ones; from
    # 12345.15 on, the product with 10**k rounds to the tie itself, which
    # rint would round the other way
    values += [0.1234565, 2.5e-05, 99999.95, 999999.5, 100000.5, 9.999995]
    values += [12345.15, 12345.45, 560.6385, 0.1343255, 0.0007009505]
    values += [0.0, 5e-324, 1.2345e-310, 2.2250738585072014e-308, 1e300]
    return values + [-v for v in values]


@pytest.mark.parametrize("write_rows", [1, 256])
def test_writer_bytes_at_the_table_path_boundaries(write_rows):
    edges = _boundary_values()
    rng = np.random.default_rng(0)
    rows = [edges, edges[::-1], rng.permutation(edges).tolist()]
    # rows whose first or last value falls back, around table-path values
    rows += [[0.0, 1.5, -2.25], [1.5, -2.25, 1e300], [5e-324, 0.5, -0.0]]
    rows = [row + [0.5] * (len(edges) - len(row)) for row in rows]
    vocab = [f"w{i}" for i in range(len(rows))]
    e = make_embedding(np.array(rows), vocab)
    buf = io.BytesIO()
    with mock.patch.object(embedding_io, "_WRITE_ROWS", write_rows):
        write_glove_text(e, buf)
    assert buf.getvalue() == write_glove_text_rowwise(vocab, rows).encode("utf-8")


def test_writer_formats_nearly_all_normal_values_from_its_tables():
    # the fallback formats values one at a time in Python; its bytes match
    # the tables', so only its share shows that the table path is taken
    values = np.random.default_rng(5).standard_normal((1000, 100))
    e = make_embedding(values)
    buf = io.BytesIO()
    spy = mock.patch.object(
        embedding_io, "_fallback_cells", wraps=embedding_io._fallback_cells
    )
    with spy as fallback:
        write_glove_text(e, buf)
    formatted = sum(len(call.args[0]) for call in fallback.call_args_list)
    assert formatted <= 0.01 * values.size
    assert buf.getvalue() == write_glove_text_rowwise(e.vocab, values.tolist()).encode()


@pytest.mark.parametrize("word",["", "two words", "nb\xa0sp", "tab\t", "\u3000", "eol\n"])
def test_writer_refuses_words_glove_text_cannot_hold(tmp_path, word):
    e = make_embedding(np.eye(3), vocab=("ok", "fine", word))
    path, text = tmp_path / "out.txt", io.StringIO()
    for dest in (path, text):
        with pytest.raises(ValueError, match=re.escape(repr(word))):
            write_glove_text(e, dest)
    assert not path.exists()  # refused before the file was opened
    assert text.getvalue() == ""


def _blocks(data: bytes, block_bytes: int) -> list[list[bytes]]:
    """The blocks ``parse_embedding`` reads ``data`` in at ``block_bytes``."""
    fh = io.BytesIO(data)
    return list(iter(lambda: fh.readlines(block_bytes), []))


def _parse_in_blocks(data: bytes, block_bytes: int, format_hint: str = "auto"):
    with mock.patch.object(embedding_io, "_BLOCK_BYTES", block_bytes):
        return parse_embedding(io.BytesIO(data), format_hint=format_hint)


# Characters str.split() treats as whitespace; the bare CR is one the C
# reader rejects, which sends its block to the row-by-row re-check.
_SEPARATORS = [
    " ", "   ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", "\u2028", "\u3000", "\r",
]
_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.6g}"),
    st.integers(-999, 999).map(str),
)
# float() accepts the first six (the C reader not the first three); the
# rest are errors
_ODD_TOKENS = [
    "1_000", "\u0661\u0662", "\u0663.\u0665e1", "+.5E1", "-0", "1e-400",
    "1e400", "nan", "-inf", "0x10", "oops", "1,5",
]
_BLOCK_WORDS = st.text(
    st.sampled_from("abcxyz_.12\xe9\xfc\xdf\u4e2d\u0661"), min_size=1, max_size=6
)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n_dims=st.integers(1, 5),
    words=st.lists(_BLOCK_WORDS, min_size=6, max_size=30, unique=True),
    header=st.booleans(),
    blocks_per_file=st.integers(3, 12),
)
def test_blockwise_parse_matches_rowwise_oracle(
    data, n_dims, words, header, blocks_per_file
):
    format_hint = data.draw(
        st.sampled_from(["auto", "word2vec_text" if header else "glove_text"])
    )
    rows = [data.draw(st.lists(_TOKENS, min_size=n_dims, max_size=n_dims)) for _ in words]
    broken: set[int] = set()  # rows whose word gets an invalid UTF-8 byte
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 1, 2]))):
        i = data.draw(st.integers(0, len(words) - 1))
        fault = data.draw(
            st.sampled_from(["odd", "odd", "odd", "short", "long", "dup", "utf8"])
        )
        if fault == "odd" and rows[i]:
            j = data.draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = data.draw(st.sampled_from(_ODD_TOKENS))
        elif fault == "short" and rows[i]:
            rows[i].pop()
        elif fault == "long":
            rows[i].append("0.5")
        elif fault == "dup":
            words[i] = words[data.draw(st.integers(0, len(words) - 1))]
        elif fault == "utf8":
            broken.add(i)

    count = len(words) + data.draw(st.sampled_from([0, 0, 0, 1]))
    lines = [f"{count} {n_dims}\n".encode()] if header else []
    for i, (word, tokens) in enumerate(zip(words, rows)):
        seps = data.draw(
            st.lists(
                st.sampled_from(_SEPARATORS), min_size=len(tokens), max_size=len(tokens)
            )
        )
        line = word + "".join(s + t for s, t in zip(seps, tokens))
        line += data.draw(st.sampled_from(["", " ", "\t", "\u3000"]))
        line += data.draw(st.sampled_from(["\n", "\n", "\r\n"]))
        lines.append((b"\xff" if i in broken else b"") + line.encode("utf-8"))
        if data.draw(st.integers(0, 4)) == 0:
            blank = data.draw(st.sampled_from(["\n", "\r\n", " \t\n", "\u3000\n"]))
            lines.append(blank.encode())
    text = b"".join(lines)
    block_bytes = max(len(text) // blocks_per_file, 1)
    assume(len(_blocks(text, block_bytes)) >= 3)

    try:
        vocab, values = parse_embedding_rowwise(text, format_hint)
    except ValueError as exc:
        with pytest.raises(ParseError) as got:
            _parse_in_blocks(text, block_bytes, format_hint)
        assert str(got.value) == str(exc)
        return
    e = _parse_in_blocks(text, block_bytes, format_hint)
    assert list(e.vocab) == vocab
    assert e.values.tobytes() == np.array(values, dtype=np.float64).tobytes()


def test_clean_blocks_skip_the_row_recheck():
    text = "".join(f"w{i} {i} {i / 7!r} -{i}e-3\n" for i in range(200)).encode()
    assert len(_blocks(text, 256)) > 20
    with mock.patch.object(embedding_io, "_append_rows", side_effect=AssertionError):
        e = _parse_in_blocks(text, 256)
    assert e.vocab == tuple(f"w{i}" for i in range(200))
    assert e.values[:, 1].tolist() == [i / 7 for i in range(200)]


def test_blank_and_header_only_blocks():
    rows = [f"w{i} {i} 2\n" for i in range(5)]
    text = "".join(["5 2\n", "\n" * 40, *rows[:2], " \t\n" * 30, *rows[2:]]).encode()
    blocks = _blocks(text, 32)
    assert blocks[0] == [b"5 2\n"] + [b"\n"] * 28  # the header, then blanks
    assert any(set(b) == {b" \t\n"} for b in blocks)  # a block of blank lines
    e = _parse_in_blocks(text, 32)
    assert e.vocab == tuple(f"w{i}" for i in range(5))
    assert e.values[:, 0].tolist() == list(range(5))


@pytest.fixture(scope="module")
def multi_block_lines():
    """Lines of a 16-dim glove file spanning at least three real-size blocks,
    with a blank line after every seventh row."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal((11_000, 16))
    lines = []
    for i, row in enumerate(values.tolist()):
        lines.append(f"w{i} " + " ".join(map(repr, row)) + "\n")
        if i % 7 == 6:
            lines.append("\n")
    text = "".join(lines).encode()
    assert len(_blocks(text, embedding_io._BLOCK_BYTES)) >= 3
    return lines


@pytest.mark.parametrize(
    "fault, message",
    [
        ("ragged", "expected 16 values for 'w{i}', got 17"),
        ("one_value", "expected 16 values for 'w{i}', got 1"),
        ("non_numeric", "non-numeric value in row 'w{i}'"),
        ("non_finite", "non-finite value in row 'w{i}'"),
        ("utf8", "input is not valid UTF-8"),
        ("duplicate", "duplicate word 'w2' (first seen on line 3)"),
    ],
)
def test_errors_past_the_first_block_name_their_line(multi_block_lines, fault, message):
    lines = [line.encode() for line in multi_block_lines]
    lineno = len(lines) * 3 // 4  # in the third block or later
    if not lines[lineno - 1].strip():
        lineno += 1
    word, *tokens = lines[lineno - 1].split()
    lines[lineno - 1] = b" ".join({
        "ragged": [word, *tokens, b"0.5"],
        "one_value": [word, b"7"],
        "non_numeric": [word, b"oops", *tokens[1:]],
        "non_finite": [word, *tokens[:-1], b"inf"],
        "utf8": [b"w\xe9rd", *tokens],
        "duplicate": [b"w2", *tokens],
    }[fault]) + b"\n"
    text = b"".join(lines)
    blocks = _blocks(text, embedding_io._BLOCK_BYTES)
    assert lineno > len(blocks[0]) + len(blocks[1])
    expected = f"line {lineno}: " + message.format(i=word.decode()[1:])
    with pytest.raises(ParseError) as got:
        parse_embedding(io.BytesIO(text))
    assert str(got.value) == expected
    with pytest.raises(ValueError) as oracle:
        parse_embedding_rowwise(text)
    assert str(oracle.value) == expected


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
    assert pair.left is a and pair.right is b
    # every left word shared, in order, against extra right words:
    # only the right side is restricted
    wider = make_embedding(np.arange(8.0).reshape(4, 2), vocab=(*a.vocab, "extra"))
    pair = align_vocabularies(a, wider)
    assert pair.left is a
    assert pair.right is not wider and pair.right.vocab == a.vocab
    assert np.array_equal(pair.right.values, wider.values[:3])


def test_pairs_come_only_from_align_vocabularies():
    a = make_embedding([[1.0], [2.0]])
    with pytest.raises(TypeError, match="takes no arguments"):
        AlignedPair(a, a)


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


def test_align_walks_left_vocab_without_indexing_it():
    # only the right side's word -> row lookup is needed, and it is local
    # to the align: neither input is left holding a dict of all its words
    a = make_embedding(np.arange(8.0).reshape(4, 2), vocab=tuple("abcd"))
    b = make_embedding(np.arange(6.0).reshape(3, 2), vocab=tuple("dxb"))
    pair = align_vocabularies(a, b)
    assert pair.left.vocab == ("b", "d")
    assert "index" not in a.__dict__
    assert "index" not in b.__dict__


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


def test_converted_input_is_not_copied_again():
    # float32 (gensim's default) converts to a fresh float64 array, which
    # the matrix keeps: one result-sized allocation, not two
    values = np.random.default_rng(0).standard_normal((2000, 500)).astype(np.float32)
    vocab = tuple(f"w{i}" for i in range(2000))
    tracemalloc.start()
    try:
        e = EmbeddingMatrix(vocab, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * e.values.nbytes, peak
    assert np.array_equal(e.values, values)
    assert not e.values.flags.writeable


def test_writeable_float64_input_is_copied_once():
    values = np.arange(12.0).reshape(4, 3)
    e = EmbeddingMatrix(tuple("abcd"), values)
    assert not np.shares_memory(e.values, values)
    values[0, 0] = 99.0  # the caller's array stays the caller's
    assert e.values[0, 0] == 0.0
    # a read-only float64 array is kept as it is
    frozen = np.arange(12.0).reshape(4, 3)
    frozen.flags.writeable = False
    assert EmbeddingMatrix(tuple("abcd"), frozen).values is frozen


# ---------------------------- parse_embedding in two halves (large files)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def no_hang():
    """Fail a test that blocks for more than a minute instead of hanging."""
    def timeout(signum, frame):
        raise TimeoutError("blocked for a minute")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _rows_text(n=80, dims=3, *, header=False, blank=False, crlf=False,
               underscore=False, non_ascii=False, trailing_newline=True) -> bytes:
    """A glove/word2vec text file whose options put each feature in both halves."""
    eol = "\r\n" if crlf else "\n"
    lines = [f"{n} {dims}{eol}"] if header else []
    for i in range(n):
        word = f"w\xe9\u4e2d{i}" if non_ascii else f"w{i}"
        tokens = [f"{(i * 7 + j) % 13 - 6.5!r}" for j in range(dims)]
        if underscore and i % 9 == 4:
            tokens[0] = "1_000"
        lines.append(word + " " + " ".join(tokens) + eol)
        if blank and i % 6 == 2:
            lines.append(" \t" + eol)
    text = "".join(lines)
    return (text if trailing_newline else text.rstrip("\r\n")).encode("utf-8")


@pytest.fixture
def halves(monkeypatch):
    """64-byte blocks, so ``parse_embedding`` splits every test file; returns
    it and the splits it forked."""
    monkeypatch.setattr(embedding_io, "_BLOCK_BYTES", 64)
    forked = []
    real = embedding_io._forked

    def recording(call, label):
        forked.append(label)
        return real(call, label)

    monkeypatch.setattr(embedding_io, "_forked", recording)
    return parse_embedding, forked


def _serial(path: Path) -> EmbeddingMatrix:
    """The reference for a split parse: the whole file in one process."""
    return embedding_io._parse(path, "auto", path.stem)


@needs_fork
@pytest.mark.parametrize("options", [
    {},
    {"header": True},
    {"blank": True},
    {"crlf": True},
    {"underscore": True},
    {"non_ascii": True},
    {"trailing_newline": False},
    {"header": True, "blank": True, "crlf": True, "non_ascii": True,
     "underscore": True, "trailing_newline": False},
])
def test_parse_halves_equals_a_serial_parse(tmp_path, halves, options, no_hang):
    parse_halves, forked = halves
    path = tmp_path / "emb.txt"
    path.write_bytes(_rows_text(**options))
    got = parse_halves(path)
    assert forked == [path]
    assert_no_child_left()
    expected = _serial(path)
    assert got.vocab == expected.vocab
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.name == expected.name == "emb"
    assert not got.values.flags.writeable


@needs_fork
def test_parse_halves_with_the_midpoint_in_the_last_line(tmp_path, halves, no_hang):
    # the cut falls at the end of the file, so the child's half is empty
    parse_halves, forked = halves
    path = tmp_path / "emb.txt"
    path.write_bytes(b"short" + b" 0" * 100 + b"\nlong" + b" -0.123456789" * 100 + b"\n")
    got = parse_halves(path)
    assert forked == [path]
    assert got.vocab == ("short", "long")
    assert got.values.tobytes() == _serial(path).values.tobytes()


def test_parse_halves_parses_a_small_file_in_one_process(tmp_path, halves):
    parse_halves, forked = halves
    path = tmp_path / "small.txt"
    path.write_bytes(_rows_text(n=5))
    assert parse_halves(path).vocab == _serial(path).vocab
    assert forked == []


def test_parse_halves_reads_a_handle_in_one_process(tmp_path, halves):
    parse_halves, forked = halves
    path = tmp_path / "emb.txt"
    path.write_bytes(_rows_text())
    with open(path, "rb") as fh:
        assert parse_halves(fh).vocab == _serial(path).vocab
    assert forked == []


def _fault(text: bytes, fault: str) -> bytes:
    lines = text.split(b"\n")
    head, tail = len(lines) // 4, len(lines) * 3 // 4  # one in each half
    if fault == "duplicate_across":
        lines[tail] = lines[head].split()[0] + b" " + b" ".join(lines[tail].split()[1:])
    elif fault == "duplicate_in_tail":
        lines[tail] = lines[tail - 1].split()[0] + b" " + b" ".join(lines[tail].split()[1:])
    elif fault == "utf8_in_tail":
        lines[tail] = b"\xff" + lines[tail]
    elif fault == "non_numeric_in_head":
        lines[head] = lines[head].split()[0] + b" oops" + lines[head][-8:]
    elif fault == "ragged_in_tail":
        lines[tail] += b" 0.5"
    elif fault == "wider_tail":
        # every row from the split on ends "x.5" -> "x 5": one more value, and
        # the same length, so the split stays put and the tail parses alone
        split = text.index(b"\n", len(text) // 2) + 1
        return text[:split] + text[split:].replace(b".5\n", b" 5\n")
    elif fault == "header_count":
        lines[0] = b"81 3"
    return b"\n".join(lines)


@needs_fork
@pytest.mark.parametrize("fault", [
    "duplicate_across", "duplicate_in_tail", "utf8_in_tail", "non_numeric_in_head",
    "ragged_in_tail", "wider_tail", "header_count",
])
def test_parse_halves_errors_match_a_serial_parse(tmp_path, halves, fault, no_hang):
    parse_halves, forked = halves
    path = tmp_path / "bad.txt"
    path.write_bytes(_fault(_rows_text(header=fault == "header_count"), fault))
    with pytest.raises(ParseError) as serial:
        _serial(path)
    with pytest.raises(ParseError) as got:
        parse_halves(path)
    # the serial parse names the file itself, as parse_embedding does
    assert str(serial.value).startswith(f"{path}: ")
    assert str(got.value) == str(serial.value)
    assert forked == [path]
    assert_no_child_left()


@needs_fork
def test_parse_halves_survives_a_child_that_sends_nothing(tmp_path, halves, monkeypatch, no_hang):
    parse_halves, forked = halves
    path = tmp_path / "emb.txt"
    path.write_bytes(_rows_text())
    monkeypatch.setattr(embedding_io, "_tail_rows", lambda *args: os._exit(3))
    got = parse_halves(path)
    assert forked == [path]
    assert_no_child_left()
    assert got.values.tobytes() == _serial(path).values.tobytes()


def test_parse_halves_missing_file_raises_as_parse_embedding(tmp_path):
    path = tmp_path / "missing.txt"
    with pytest.raises(FileNotFoundError) as serial:
        _serial(path)
    with pytest.raises(FileNotFoundError) as got:
        parse_embedding(path)
    assert str(got.value) == str(serial.value)


def test_parse_halves_without_fork_parses_serially(tmp_path, halves, monkeypatch):
    parse_halves, forked = halves
    path = tmp_path / "emb.txt"
    path.write_bytes(_rows_text())
    if hasattr(os, "fork"):
        monkeypatch.delattr(os, "fork")
    calls = []
    real = embedding_io._parse

    def recording(source, format_hint, name):
        calls.append(source)
        return real(source, format_hint, name)

    monkeypatch.setattr(embedding_io, "_parse", recording)
    got = parse_halves(path)
    assert (calls, forked) == ([path], [])
    assert got.values.tobytes() == _serial(path).values.tobytes()


@needs_fork
def test_parse_halves_survives_a_child_cut_off_mid_matrix(tmp_path, halves, monkeypatch, no_hang):
    # the tail's header arrives but its values stop short: no hang, no
    # partial matrix, and the serial parse gives the same matrix
    parse_halves, forked = halves
    path = tmp_path / "emb.txt"
    path.write_bytes(_rows_text(header=True))
    real_dump = pickle.dump

    def dump_then_die(obj, pipe):
        real_dump(obj, pipe)
        if isinstance(obj, tuple):
            pipe.write(b"\0" * 100)  # of the tail's 936 bytes of values
            pipe.flush()
            os._exit(0)

    monkeypatch.setattr(embedding_io.pickle, "dump", dump_then_die)
    got = parse_halves(path)
    assert forked == [path]
    assert_no_child_left()
    expected = _serial(path)
    assert got.vocab == expected.vocab
    assert got.values.tobytes() == expected.values.tobytes()


@needs_fork
def test_parse_halves_interrupted_parent_does_not_wait_on_a_blocked_child(
    tmp_path, halves, monkeypatch, no_hang
):
    # the tail's values (640 KB) overfill the pipe, so the child blocks on
    # write until the parent's read end closes and the write fails
    parse_halves, forked = halves
    path = tmp_path / "emb.txt"
    path.write_bytes(_rows_text(n=4000, dims=40))
    real = embedding_io._read

    def interrupted_after_the_head(fh, format_hint, end=None):
        got = real(fh, format_hint, end)
        if end is not None:  # the parent's half; the child reads to the end
            raise KeyboardInterrupt
        return got

    monkeypatch.setattr(embedding_io, "_read", interrupted_after_the_head)
    with pytest.raises(KeyboardInterrupt):
        parse_halves(path)
    assert forked == [path]
    assert_no_child_left()


# ------------------------------------------------------ _at_once (synth's writer)


@needs_fork
def test_at_once_child_that_sends_nothing_fails_cleanly(tmp_path, no_hang):
    right = tmp_path / "right.txt"
    with pytest.raises(ChildProcessError, match=re.escape("left.txt: ")):
        embedding_io._at_once(lambda: os._exit(3), right.touch, "left.txt")
    assert right.exists()
    assert_no_child_left()
