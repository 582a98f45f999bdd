"""Reading, validating and aligning text-format word embeddings.

Two on-disk formats are supported:

* ``glove_text``    -- one record per line: ``<word> <v1> ... <vD>``
* ``word2vec_text`` -- same records preceded by a ``<count> <dim>`` header

Files are UTF-8.  Values are parsed as 64-bit floats with Python's
``float()`` grammar (so ``1_000`` is accepted).  The header's row count is
checked against the rows read, never trusted.  Words are compared
byte-exact (no case folding, no Unicode normalization).

Parsing is blockwise: about 1 MiB of lines at a time is converted by one
``np.loadtxt`` call (numpy's C reader) and checked as a whole.  A block that
fails any check is re-read row by row, which either accepts it (tokens such
as ``1_000`` that ``float()`` takes and the C reader does not) or raises the
first error with its line number.  Memory is the matrix (in a buffer that
doubles as it fills and is trimmed once) plus one block.

Writing gives each value exactly the bytes of ``" %.6g"``, built blockwise
by numpy from six-digit integers and small digit tables (:func:`_g6_rows`).

Text I/O goes on two cores through one fork helper, :func:`_forked`:
:func:`parse_embedding` reads a large file in two halves, the second in a
child (:func:`_joined_halves`; ``compare`` reads its left file first), and
``synth`` writes its two files at once (:func:`_at_once`).
:func:`write_glove_text` never forks.
"""
from __future__ import annotations

import csv
import io
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import repeat
from pathlib import Path
from typing import (
    IO,
    BinaryIO,
    Callable,
    Iterable,
    Iterator,
    NoReturn,
    Sequence,
)

import numpy as np

# Rows per chunk of the covariance pass.  A constant, so the accumulation
# order (and the result, bit for bit at a given BLAS thread count) is fixed.
_COVARIANCE_CHUNK = 2048

# Lines per bulk conversion in parse_embedding: about this many bytes of them.
_BLOCK_BYTES = 1 << 20

# parse_embedding splits only files of more than this many blocks.
_SPLIT_BLOCKS = 4

# Rows per formatted block in write_glove_text.
_WRITE_ROWS = 256

_FORMATS = ("auto", "word2vec_text", "glove_text")


class ParseError(ValueError):
    """An embedding file violates its declared format."""


class NumericalError(RuntimeError):
    """A linear-algebra step failed or produced out-of-range results."""


@contextmanager
def opened(target: str | Path | IO, mode: str, **kwargs) -> Iterator[IO]:
    """``open(target, mode, **kwargs)`` for a path; an open handle as is.

    A path is closed on exit; a handle passed in is left open for its owner.
    For a path, a ``ValueError`` raised in the block is raised again, of the
    same type, with ``"<path>: "`` before its message, so every reader's
    errors name their file; a handle's are left unnamed.  ``UnicodeError``,
    which cannot be rebuilt from a message, passes through as it is.
    """
    if not isinstance(target, (str, Path)):
        yield target
        return
    with open(target, mode, **kwargs) as fh:
        try:
            yield fh
        except UnicodeError:
            raise
        except ValueError as exc:
            raise type(exc)(f"{target}: {exc}") from None


def write_csv_rows(dest: str | Path | IO, header: Sequence, rows: Iterable) -> None:
    """Write ``header`` then ``rows`` as UTF-8 CSV (``\\r\\n`` line ends)."""
    with opened(dest, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_only(value, dtype=None) -> np.ndarray:
    """``value`` as a read-only array (of ``dtype``, if given), for a frozen
    result type to keep.

    It is copied only where it may still share memory with a writeable array
    of the caller's, which stays writeable; a converted array (float32 input,
    say) or one the caller already made read-only is kept as is.
    """
    array = np.asarray(value, dtype=dtype)
    if array.flags.writeable and np.may_share_memory(array, value):
        array = array.copy()
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A vocabulary plus one dense row vector per word.

    ``values`` has shape ``(len(vocab), n_dims)``; it is converted to
    float64 and made read-only by :func:`read_only`, so instances can be
    shared freely between threads.
    """

    vocab: tuple[str, ...]
    values: np.ndarray
    name: str = "embedding"

    def __post_init__(self):
        vocab = tuple(self.vocab)
        values = read_only(self.values, np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if values.shape[1] < 1:
            raise ValueError("embedding must have at least one dimension")
        if len(vocab) != values.shape[0]:
            raise ValueError(
                f"vocabulary has {len(vocab)} words but values has "
                f"{values.shape[0]} rows"
            )
        if len(vocab) == 0:
            raise ValueError("vocabulary is empty")
        if len(set(vocab)) != len(vocab):
            seen: set[str] = set()
            for w in vocab:
                if w in seen:
                    raise ValueError(f"duplicate word {w!r} in vocabulary")
                seen.add(w)
        if not np.isfinite(values).all():
            raise ValueError("embedding contains non-finite values")
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "values", values)

    @property
    def n_words(self) -> int:
        return len(self.vocab)

    @property
    def n_dims(self) -> int:
        return self.values.shape[1]

    @cached_property
    def index(self) -> dict[str, int]:
        """Word -> row lookup, built on first use."""
        return {w: i for i, w in enumerate(self.vocab)}


class AlignedPair:
    """Two embeddings paired row by row over their shared vocabulary.

    Every pair is made by :func:`align_vocabularies`.  A pair holds both
    matrices as given (``left`` and ``right``) and, per side, the read-only
    indices of the shared words' rows, in ``left``'s order.
    :attr:`covariance` and :attr:`constant_columns` read the shared rows
    through the indices, so no copy of them is ever built.
    ``dropped_left`` / ``dropped_right`` count each side's unpaired rows.
    Instances are immutable.
    """

    def _pair_rows(
        self, a: EmbeddingMatrix, b: EmbeddingMatrix, a_rows: np.ndarray, b_rows: np.ndarray
    ) -> None:
        """Pair ``a``'s rows ``a_rows`` with ``b``'s rows ``b_rows``."""
        a_rows.flags.writeable = b_rows.flags.writeable = False
        self.__dict__.update(
            left=a, right=b, _rows=(a_rows, b_rows),
            dropped_left=a.n_words - a_rows.size, dropped_right=b.n_words - b_rows.size,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"AlignedPair is immutable: cannot set {name!r}")

    @property
    def shared_count(self) -> int:
        return self._rows[0].size

    @cached_property
    def covariance(self) -> np.ndarray:
        """Joint population (1/n) covariance of ``[left | right]``, built on first use.

        With ``d = left.n_dims``, blocks ``[:d, :d]``, ``[d:, d:]`` and ``[:d, d:]``
        are the left, right and cross covariances.  Two-pass (Chan, Golub &
        LeVeque, 1979): column means, then ``Z.T @ Z`` per row chunk of the
        centred ``Z = [left | right]`` over the shared rows.  Each chunk of
        them is read from both sides by index into one reused buffer, so no
        N-sized copy is ever made; see :meth:`_moments`.  Raises
        :class:`NumericalError` when a side's values are too large for its
        sums or products to stay finite in float64.
        """
        return self._moments[0]

    @property
    def constant_columns(self) -> np.ndarray:
        """Per column of ``[left | right]``: whether its max equals its min
        over the shared rows.  From the same pass as :attr:`covariance`."""
        return self._moments[1]

    @property
    def _columns(self) -> tuple[slice, slice]:
        """The left and right sides' columns in ``[left | right]``."""
        d = self.left.n_dims
        return slice(None, d), slice(d, None)

    def _chunks(self, buf: np.ndarray) -> Iterator[np.ndarray]:
        """Each run of up to ``_COVARIANCE_CHUNK`` shared rows as ``[left | right]``,
        read into ``buf[1:]`` (row 0 is left to the caller)."""
        sides = (self.left, self.right)
        for start in range(0, self.shared_count, _COVARIANCE_CHUNK):
            stop = min(start + _COVARIANCE_CHUNK, self.shared_count)
            chunk = buf[1 : stop - start + 1]
            for side, rows, cols in zip(sides, self._rows, self._columns):
                # gather, then copy: faster than np.take into strided columns
                chunk[:, cols] = side.values[rows[start:stop]]
            yield chunk

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """``(covariance, constant_columns)``, to the bit as read from copies
        of the shared rows.

        A first pass over the chunks sums the columns and tracks their max
        and min.  Each chunk is reduced below the running sums in ``buf[0]``,
        so every column is summed row by row from 0.0, as ``mean(axis=0)``
        sums a matrix of two or more columns; a one-column side, which numpy
        sums pairwise, is read whole.  The covariance pass then centres each
        chunk in place.  Overflow is not warned about but checked: non-finite
        sums or covariance raise :class:`NumericalError` naming the side.
        """
        n, sides = self.shared_count, (self.left, self.right)
        width = sum(side.n_dims for side in sides)
        buf = np.empty((min(n, _COVARIANCE_CHUNK) + 1, width))
        total = np.zeros(width)
        hi, lo = np.full(width, -np.inf), np.full(width, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            for chunk in self._chunks(buf):
                buf[0] = total
                np.add.reduce(buf[: len(chunk) + 1], axis=0, out=total)
                np.maximum(hi, chunk.max(axis=0), out=hi)
                np.minimum(lo, chunk.min(axis=0), out=lo)
            mean = total / n
            for side, rows, cols in zip(sides, self._rows, self._columns):
                if side.n_dims == 1:
                    mean[cols] = side.values[rows].mean(axis=0)
            self._check_finite(mean, "column sums overflow")
            cov = np.zeros((width, width))
            product = np.empty_like(cov)
            for chunk in self._chunks(buf):
                chunk -= mean
                np.matmul(chunk.T, chunk, out=product)
                cov += product
        cov /= n
        self._check_finite(cov, "covariance overflows")
        constant = hi == lo
        cov.flags.writeable = constant.flags.writeable = False
        return cov, constant

    def _check_finite(self, moments: np.ndarray, what: str) -> None:
        """Raise :class:`NumericalError` naming the first side whose entries
        of ``moments`` (its columns, or its rows of a covariance) are not finite."""
        for name, cols in zip(("left", "right"), self._columns):
            if not np.isfinite(moments[cols]).all():
                raise NumericalError(
                    f"{name} {what} float64: its values are too large"
                )


def _decoded(
    text: bytes | str, lineno: int, error: type[ValueError], any_line_end: bool = False
) -> str:
    """``text``, whose first line is line ``lineno``, as a str; invalid UTF-8
    raises ``error`` naming the line it is on.  A str is returned as is.

    Lines end at ``\\n``; with ``any_line_end``, as the CSV reader counts
    them, ``\\r\\n``, ``\\r`` and ``\\n`` each end one line.
    """
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = text[: exc.start]
            lineno += head.count(b"\n")
            if any_line_end:
                lineno += head.count(b"\r") - head.count(b"\r\n")
            raise error(f"line {lineno}: input is not valid UTF-8") from None
    return text


def _looks_like_header(parts: list[str]) -> bool:
    if len(parts) != 2:
        return False
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return count > 0 and dim > 0


def _first_line(
    parts: list[str], lineno: int, format_hint: str
) -> tuple[tuple[int, int] | None, int]:
    """``(header or None, n_dims)`` from the file's first non-blank line."""
    if format_hint == "word2vec_text" or (
        format_hint == "auto" and _looks_like_header(parts)
    ):
        if not _looks_like_header(parts):
            raise ParseError(
                f"line {lineno}: expected '<count> <dim>' header, got {parts!r}"
            )
        header = (int(parts[0]), int(parts[1]))
        return header, header[1]
    if len(parts) < 2:
        raise ParseError(f"line {lineno}: row has a word but no values")
    return None, len(parts) - 1


def _reserve(values: np.ndarray, rows: int, n_dims: int) -> None:
    """Grow the row buffer in place to a power-of-two capacity of ``rows`` or more.

    Only rows already read are counted, never the header (outside input).
    No view of the buffer outlives a statement, so the realloc is safe.
    """
    if rows > len(values):
        values.resize((1 << (rows - 1).bit_length(), n_dims), refcheck=False)


def _append_block(
    start: int, lines: list, n_dims: int, values: np.ndarray, seen: dict[str, int]
) -> bool:
    """Append a block of lines (the first is line ``start``) in one ``np.loadtxt``.

    Returns False, with nothing appended, when the block has anything the
    row-by-row re-check must look at: invalid UTF-8, a word with no values,
    a token numpy's C reader rejects, the wrong width, a non-finite value or
    a duplicate word.
    """
    words: dict[str, int] = {}
    rests: list[str] = []
    try:
        for lineno, line in enumerate(lines, start):
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            parts = line.split(None, 1)
            if parts:
                word, rest = parts
                words[word] = lineno
                rests.append(rest)
    except ValueError:  # UnicodeDecodeError, or a word with no values
        return False
    if not rests:  # loadtxt warns on empty input
        return True
    if len(words) != len(rests) or not seen.keys().isdisjoint(words):
        return False
    try:
        # no usecols: it would silently drop extra columns
        rows = np.loadtxt(rests, comments=None, ndmin=2)
    except ValueError:
        return False
    if rows.shape != (len(rests), n_dims) or not np.isfinite(rows).all():
        return False
    n = len(seen)
    _reserve(values, n + len(rests), n_dims)
    values[n : n + len(rests)] = rows
    seen.update(words)
    return True


def _append_rows(
    start: int,
    lines: list,
    n_dims: int,
    values: np.ndarray,
    seen: dict[str, int],
    header_note: str = "",
) -> None:
    """Append a block row by row, raising the first :class:`ParseError` in it.

    Values follow Python's ``float()`` grammar, so this also accepts what
    the C reader rejects (``1_000``, non-ASCII digits).  ``header_note``
    ends the error of a first row whose width disagrees with the header.
    """
    for lineno, line in enumerate(lines, start):
        parts = _decoded(line, lineno, ParseError).split()
        if not parts:
            continue
        word = parts[0]
        if len(parts) - 1 != n_dims:  # before the assignment, which broadcasts
            raise ParseError(
                f"line {lineno}: expected {n_dims} values for {word!r}, "
                f"got {len(parts) - 1}{'' if seen else header_note}"
            )
        n = len(seen)
        _reserve(values, n + 1, n_dims)
        try:
            values[n] = parts[1:]  # Python's float() grammar
        except ValueError:
            raise ParseError(
                f"line {lineno}: non-numeric value in row {word!r}"
            ) from None
        if not np.isfinite(values[n]).all():
            raise ParseError(f"line {lineno}: non-finite value in row {word!r}")
        if word in seen:
            raise ParseError(
                f"line {lineno}: duplicate word {word!r} "
                f"(first seen on line {seen[word]})"
            )
        seen[word] = lineno


def parse_embedding(source: str | Path | IO, format_hint: str = "auto") -> EmbeddingMatrix:
    """Parse a text embedding file into a validated :class:`EmbeddingMatrix`.

    ``format_hint`` is one of ``auto``, ``word2vec_text`` or ``glove_text``.
    In ``auto`` mode the file is treated as word2vec_text exactly when its
    first line parses as two positive integers.  Duplicate words, ragged
    rows, non-finite values and empty files are all hard errors; a
    :class:`ParseError` from a path starts with that path (:func:`opened`).
    The matrix is named after a path's stem, or ``embedding`` for a handle.

    A path of more than ``_SPLIT_BLOCKS`` blocks (4 MiB) is parsed in two
    halves, the second in a forked child (:func:`_joined_halves`).  Any
    failure of the split parse is answered by a serial parse of the whole
    file, which raises the usual error with the usual line number.  Handles,
    smaller files and systems without ``os.fork`` are parsed serially.
    """
    if format_hint not in _FORMATS:
        raise ValueError(f"unknown format_hint {format_hint!r}")
    is_path = isinstance(source, (str, Path))
    name = Path(source).stem if is_path else "embedding"
    if is_path:
        try:
            joined = _joined_halves(source, format_hint, name)
        except Exception:
            joined = None
        if joined is not None:
            return joined
    return _parse(source, format_hint, name)


def _parse(source: str | Path | IO, format_hint: str, name: str) -> EmbeddingMatrix:
    """:func:`parse_embedding` itself, in one process."""
    with opened(source, "rb") as fh:
        header, n_dims, values, seen = _read(fh, format_hint)
        return _finish(header, n_dims, values, tuple(seen), name)


def _blocks(fh: IO, end: int | None = None) -> Iterator[list]:
    """``fh.readlines(_BLOCK_BYTES)`` blocks, stopping at byte ``end`` (a line start)."""
    while lines := fh.readlines(_BLOCK_BYTES):
        if end is not None and (extra := fh.tell() - end) > 0:
            while extra > 0:
                extra -= len(lines.pop())
            if lines:
                yield lines
            return
        yield lines


def _read(
    fh: IO, format_hint: str, end: int | None = None
) -> tuple[tuple[int, int] | None, int, np.ndarray, dict[str, int]]:
    """``(header, n_dims, values, seen)`` for the rows of ``fh`` up to ``end``.

    ``seen`` maps each word to its line, in file order; its length is the
    number of leading ``values`` rows that hold data.  Every row is checked,
    the file as a whole is not (:func:`_finish` does that).
    """
    # Rows go straight into one buffer that doubles when full.  It starts
    # empty and the header never sizes it (the header is outside input).
    values = np.empty(0)
    seen: dict[str, int] = {}  # word -> line; insertion order is the vocab
    header: tuple[int, int] | None = None
    n_dims = 0  # 0 until the first non-blank line is read
    header_note = ""  # set when auto took a row-like first line as the header
    start = 1
    for lines in _blocks(fh, end):
        block_start, start = start, start + len(lines)
        if not n_dims:
            for lineno, line in enumerate(lines, block_start):
                parts = _decoded(line, lineno, ParseError).split()
                if parts:
                    break
            else:
                continue
            header, n_dims = _first_line(parts, lineno, format_hint)
            if header is not None:
                lines = lines[lineno + 1 - block_start :]
                block_start = lineno + 1
                if format_hint == "auto":
                    header_note = (
                        f" (line {lineno} was read as a word2vec '<count> <dim>' "
                        "header; use format glove_text if it is a row)"
                    )
        if not _append_block(block_start, lines, n_dims, values, seen):
            _append_rows(block_start, lines, n_dims, values, seen, header_note)
    return header, n_dims, values, seen


def _finish(
    header: tuple[int, int] | None,
    n_dims: int,
    values: np.ndarray,
    vocab: tuple[str, ...],
    name: str,
) -> EmbeddingMatrix:
    """Check the file as a whole, then trim and freeze ``values`` in place."""
    if not n_dims:
        raise ParseError("empty embedding file")
    if not vocab:
        raise ParseError("embedding file has a header but no rows")
    if header is not None and header[0] != len(vocab):
        raise ParseError(
            f"header declares {header[0]} rows but file contains {len(vocab)}"
        )
    values.resize((len(vocab), n_dims), refcheck=False)
    values.flags.writeable = False
    return EmbeddingMatrix(vocab=vocab, values=values, name=name)


def _joined_halves(
    path: str | Path, format_hint: str, name: str
) -> EmbeddingMatrix | None:
    """:func:`parse_embedding`'s split parse; ``None`` where it does not split.

    The file is cut at the first line start after its midpoint.  The parent
    parses the lines before the cut, the child the lines after it (as
    ``glove_text``, so the width comes from its first row), and the parent
    reads the child's rows straight into its own buffer, so the copy in
    flight is half a matrix.  A width that differs, a word in both halves,
    a header count that disagrees or a child that ends without a whole
    result raises.
    """
    size = os.path.getsize(path)
    if not hasattr(os, "fork") or size <= _SPLIT_BLOCKS * _BLOCK_BYTES:
        return None
    with open(path, "rb") as fh:
        fh.seek(size // 2)
        fh.readline()
        split = fh.tell()
        fh.seek(0)
        with _forked(partial(_tail_rows, path, split), path) as receive:
            header, n_dims, values, seen = _read(fh, format_hint, end=split)
            tail_vocab, tail_dims = receive()
            if tail_vocab and tail_dims != n_dims:
                raise ParseError("the two halves differ in width")
            n = len(seen)
            values.resize((n + len(tail_vocab), n_dims), refcheck=False)
            receive(values[n:])
    # a word in both halves fails EmbeddingMatrix's duplicate check
    return _finish(header, n_dims, values, tuple(seen) + tail_vocab, name)


def _tail_rows(
    path: str | Path, start: int
) -> tuple[tuple[tuple[str, ...], int], np.ndarray]:
    """The child's half of :func:`_joined_halves`: ``((vocab, n_dims), rows)``
    for the rows from byte ``start`` on.

    Its line numbers count from ``start``, but its errors are never shown:
    the parent answers any of them with a serial parse.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        _, n_dims, values, seen = _read(fh, "glove_text")
    values.resize((len(seen), n_dims), refcheck=False)
    return (tuple(seen), n_dims), values


def _at_once(left: Callable[[], None], right: Callable[[], None], label) -> None:
    """Run ``right()`` here and ``left()`` in a forked child meanwhile.

    ``synth`` writes its two files this way.  The left call's error wins
    when both fail, as if they had run in order.  Without ``os.fork`` they
    do run in order.
    """
    if not hasattr(os, "fork"):
        left()
        right()
        return
    with _forked(lambda: (left(), None), label) as receive:
        try:
            right()
        except Exception:
            receive()  # raises the left call's error, if any
            raise
        receive()


@contextmanager
def _forked(
    call: Callable[[], tuple[object, np.ndarray | None]], label
) -> Iterator[Callable[..., object]]:
    """Run ``call()`` in a forked child; yield ``receive`` for its result.

    numpy's C reader and Python's ``%`` formatting hold the GIL, so a second
    thread would not help; a forked child works on the second core and
    needs no fresh interpreter.  OpenBLAS's fork handler stops its thread
    pool, so the process forks with one thread (Python 3.12 warns on a fork
    with more).  ``call()`` returns ``(head, rows)``: the child sends back
    the pickled exception it raised, or the pickled ``head`` followed by
    ``rows`` raw when they are an ndarray, then ends in ``os._exit``.

    ``receive()`` raises the child's exception or returns its ``head``;
    ``receive(into)`` then reads the raw rows into the array ``into``.
    A child that sends no whole result raises :class:`ChildProcessError`
    naming ``label``.  The child is always reaped on exit; the pipe is
    closed first, so a child blocked on writing gets EPIPE and ends.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)  # else a parent that stops reading never gives EPIPE
        _send(write_fd, call)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            yield partial(_receive, pipe, label)
    finally:
        os.waitpid(pid, 0)


def _send(fd: int, call: Callable[[], tuple[object, np.ndarray | None]]) -> NoReturn:
    """The child's side of :func:`_forked`; always ends in ``os._exit``."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            try:
                head, rows = call()
            except Exception as exc:
                pickle.dump(exc, pipe)
            else:
                pickle.dump(head, pipe)
                if isinstance(rows, np.ndarray):
                    pipe.write(np.ascontiguousarray(rows).data)
        status = 0
    finally:
        os._exit(status)


def _receive(pipe: BinaryIO, label, into: np.ndarray | None = None):
    """Read the head of a result of :func:`_send`, returning it or raising
    its exception; or, given ``into``, fill it from the raw rows after it."""
    lost = ChildProcessError(f"{label}: the process handling it ended without a result")
    if into is not None:
        if pipe.readinto(into.data) != into.nbytes:
            raise lost
        return None
    try:
        head = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise lost from None
    if isinstance(head, Exception):
        raise head
    return head


def write_glove_text(e: EmbeddingMatrix, dest: str | Path | IO) -> None:
    """Serialize in glove_text format: each value as exactly ``" %.6g"``.

    Rows are formatted as UTF-8 bytes, ``_WRITE_ROWS`` at a time, and written
    to a path or binary handle as such; any other handle (``StringIO``, say)
    gets them decoded.  The values of a block are formatted by numpy array
    operations (:func:`_g6_rows`); the few that fall back to Python's
    ``%.6g`` are zeros, subnormals, values outside ``[1e-4, 1e6)``, values
    that round up to 1e6 and those within 1e-9 of a tie at the sixth
    digit.  A block takes about 120 bytes of working memory per value (9 MB
    for 256 rows of 300).  A word the format cannot hold (empty, or
    containing whitespace as ``str.split`` sees it) raises ``ValueError``
    naming it before anything is written.
    """
    for word in e.vocab:
        if word.split() != [word]:
            raise ValueError(
                f"cannot write word {word!r} as glove_text: "
                "a word must be non-empty with no whitespace"
            )
    words = [word.encode("utf-8") for word in e.vocab]
    with opened(dest, "wb") as out:
        binary = isinstance(out, (io.RawIOBase, io.BufferedIOBase))
        for start in range(0, e.n_words, _WRITE_ROWS):
            stop = start + _WRITE_ROWS
            rows = _g6_rows(e.values[start:stop]).split(b"\n")
            block = b"".join([word + row + b"\n" for word, row in zip(words[start:stop], rows)])
            out.write(block if binary else block.decode("utf-8"))


@cache
def _g6_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(pow10, heads, highs, lows)``: the lookup tables of :func:`_g6_rows`.

    A value ``±mi * 10**-k``, with ``mi`` of six digits and ``k`` in 0..9,
    is written as a head (space, sign and, for ``k >= 6``, ``0.`` and
    ``k - 6`` zeros), the text of mi's high three digits and that of its low
    three.  Each entry is that text in ASCII, NUL where a zero is stripped
    or no ``.`` is written, in the bytes of a little-endian uint64: ``heads``
    by ``k + 10 * negative``, ``highs`` (bytes 0-3) by ``2000 * k +
    1000 * (low digits are 000) + high`` and ``lows`` (bytes 4-7) by
    ``1000 * k + low``.  Built on first use, 0.24 MB.
    """
    g = np.arange(1000)
    digits = np.stack([g // 100, g // 10 % 10, g % 10], axis=1) + ord("0")
    # nonzero_from[g, j]: digit j of g, or one after it, is not zero
    nonzero_from = np.cumsum(digits[:, ::-1] != ord("0"), axis=1)[:, ::-1] > 0

    def group(whole: int, strip: bool, point: bool) -> np.ndarray:
        """4-byte texts: the first ``whole`` digits, a slot that holds ``.``
        if ``point`` and a digit follows, then the other digits, their
        trailing zeros stripped if ``strip``."""
        kept = np.ones(digits.shape, bool)
        if strip:
            kept[:, whole:] = nonzero_from[:, whole:]
        text = np.zeros((1000, 4), np.uint8)
        text[:, :whole] = digits[:, :whole]
        text[:, whole + 1 :] = np.where(kept, digits, 0)[:, whole:]
        if point:
            text[:, whole] = np.where(kept[:, whole:].any(axis=1), ord("."), 0)
        return text

    highs = np.zeros((10, 2, 1000, 8), np.uint8)
    lows = np.zeros((10, 1000, 8), np.uint8)
    for k in range(10):
        point = 6 - k  # digits of mi before the point
        for strip in (0, 1):
            highs[k, strip, :, :4] = group(min(max(point, 0), 3), strip, 0 < point < 3)
        lows[k, :, 4:] = group(min(max(point - 3, 0), 3), True, 0 <= point - 3 < 3)
    heads = [
        b" " + sign + (b"0." + b"0" * (k - 6) if k >= 6 else b"")
        for sign in (b"", b"-")
        for k in range(10)
    ]
    return (
        10.0 ** np.arange(10),
        np.frombuffer(b"".join(h.ljust(8, b"\0") for h in heads), "<u8"),
        highs.view("<u8").ravel(),
        lows.view("<u8").ravel(),
    )


def _g6_rows(x: np.ndarray) -> bytes:
    """The rows of ``x``, each value as ``b" %.6g" % v``, each row ended by ``\\n``.

    A value of ``|v| >= 1e-4`` has ``k = 5 - floor(log10|v|)``, clipped to
    0..9, ``m = |v| * 10**k`` (one correctly rounded product, within 6e-11
    of the exact one) and ``mi = rint(m)``.  When ``1e5 <= mi < 1e6`` and
    ``m`` is more than 1e-9 from a tie, ``mi * 10**-k`` is %g's rounding of
    ``|v|`` to six digits in fixed notation, and the value's 16-byte cell is
    filled from the tables of :func:`_g6_tables`.  A log10 that rounds
    across a power of ten only moves ``mi`` out of range, or onto 100000
    where %g rounds up too.  Any other value (zero, below 1e-4, 1e6 and up
    after rounding, near a tie) gets Python's ``%.6g``, at most 14 bytes,
    in its cell.  One ``bytes.translate`` deletes the NUL padding.
    """
    pow10, heads, highs, lows = _g6_tables()
    a = np.abs(x)
    fast = a >= 1e-4
    a[~fast] = 1.0  # keeps log10 finite
    e = np.log10(a)
    np.floor(e, out=e)
    np.clip(e, -4, 5, out=e)
    k = 5 - e.astype(np.int64)
    m = a * pow10.take(k)
    mi = np.rint(m)
    tie = np.abs(np.abs(m - mi) - 0.5)
    # six digits, as the tables need; 1e6 and up is %g's exponent notation
    fast &= (mi >= 1e5) & (mi < 1e6) & (tie > 1e-9)
    mi[~fast] = 1e5  # keeps the cast and the table indices in range
    low = mi.astype(np.int64)
    high = low // 1000
    low -= 1000 * high
    high += 2000 * k + 1000 * (low == 0)
    cells = np.zeros((x.shape[0], x.shape[1] + 1, 2), "<u8")
    cells[:, -1, 0] = ord("\n")
    values = cells[:, :-1]
    values[..., 0] = heads.take(k + 10 * (x < 0))
    word = highs.take(high)
    word |= lows.take(low + 1000 * k)
    values[..., 1] = word
    slow = ~fast
    if slow.any():
        values[slow] = _fallback_cells(x[slow])
    return cells.tobytes().translate(None, b"\0")


def _fallback_cells(values: np.ndarray) -> np.ndarray:
    """``b" %.6g" % v`` for each of ``values``, NUL-padded into 16-byte cells."""
    text = b"".join([(b" %.6g" % v).ljust(16, b"\0") for v in values.tolist()])
    return np.frombuffer(text, "<u8").reshape(-1, 2)


def align_vocabularies(a: EmbeddingMatrix, b: EmbeddingMatrix) -> AlignedPair:
    """Pair both embeddings over their shared vocabulary, in ``a``'s order.

    The only way to make an :class:`AlignedPair`.  Raises ``ValueError``
    when the vocabularies are disjoint.  No values are copied: the pair's
    ``left`` and ``right`` are ``a`` and ``b`` themselves (they are
    immutable), and it holds the rows each side shares, by index.
    """
    # one walk over a's words: each word's row in b, or -1 where b lacks it.
    # The lookup is local, not b.index: that would stay cached on b, which
    # compare keeps alive to the end, and nothing reads it after this.
    b_index = {w: i for i, w in enumerate(b.vocab)}
    b_rows = np.fromiter(
        map(b_index.get, a.vocab, repeat(-1)), dtype=np.intp, count=a.n_words
    )
    a_rows = np.flatnonzero(b_rows >= 0)
    if not a_rows.size:
        raise ValueError(
            f"embeddings {a.name!r} and {b.name!r} share no vocabulary"
        )
    pair = AlignedPair.__new__(AlignedPair)
    pair._pair_rows(a, b, a_rows, b_rows[a_rows])
    return pair


def row_normalize(e: EmbeddingMatrix) -> tuple[EmbeddingMatrix, int]:
    """Scale every row to unit Euclidean norm.

    All-zero rows cannot be normalized; they are left untouched and their
    count is returned alongside the new matrix.
    """
    norms = np.linalg.norm(e.values, axis=1)
    zero = norms == 0.0
    n_zero = int(zero.sum())
    safe = np.where(zero, 1.0, norms)
    values = e.values / safe[:, None]
    values.flags.writeable = False  # fresh: EmbeddingMatrix need not copy it
    return EmbeddingMatrix(vocab=e.vocab, values=values, name=e.name), n_zero
