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

``compare`` reads its two files at once (:func:`_parse_pair`): the left one
in a forked child, which sends the matrix back down a pipe, and the right
one in the parent.
"""
from __future__ import annotations

import csv
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, BinaryIO, Iterable, Iterator, NoReturn, Sequence

import numpy as np

# Rows per chunk of the covariance pass.  A constant, so the accumulation
# order (and the result, bit for bit at a given BLAS thread count) is fixed.
_COVARIANCE_CHUNK = 2048

# Lines per bulk conversion in parse_embedding: about this many bytes of them.
_BLOCK_BYTES = 1 << 20


class ParseError(ValueError):
    """An embedding file violates its declared format."""


@contextmanager
def opened(target: str | Path | IO, mode: str, **kwargs) -> Iterator[IO]:
    """``open(target, mode, **kwargs)`` for a path; an open handle as is.

    A path is closed on exit; a handle passed in is left open for its owner.
    """
    if isinstance(target, (str, Path)):
        with open(target, mode, **kwargs) as fh:
            yield fh
    else:
        yield target


def write_csv_rows(dest: str | Path | IO, header: Sequence, rows: Iterable) -> None:
    """Write ``header`` then ``rows`` as UTF-8 CSV (``\\r\\n`` line ends)."""
    with opened(dest, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A vocabulary plus one dense row vector per word.

    ``values`` has shape ``(len(vocab), n_dims)`` and is made read-only on
    construction so instances can be shared freely between threads.
    """

    vocab: tuple[str, ...]
    values: np.ndarray
    name: str = "embedding"

    def __post_init__(self):
        vocab = tuple(self.vocab)
        values = np.asarray(self.values, dtype=np.float64)
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
        if values.flags.writeable:
            values = values.copy()
            values.flags.writeable = False
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


@dataclass(frozen=True)
class AlignedPair:
    """Two embeddings restricted to a shared vocabulary in identical row order."""

    left: EmbeddingMatrix
    right: EmbeddingMatrix
    dropped_left: int = 0
    dropped_right: int = 0

    def __post_init__(self):
        if self.left.vocab != self.right.vocab:
            raise ValueError("left and right vocabularies differ")

    @property
    def shared_count(self) -> int:
        return len(self.left.vocab)

    @cached_property
    def covariance(self) -> np.ndarray:
        """Joint population (1/n) covariance of ``[left | right]``, built on first use.

        With ``d = left.n_dims``, blocks ``[:d, :d]``, ``[d:, d:]`` and ``[:d, d:]``
        are the left, right and cross covariances.  Two-pass (Chan, Golub &
        LeVeque, 1979): column means, then ``Z.T @ Z`` per row chunk of the
        centred ``Z = [left | right]``, so no N-sized copy is ever made.
        """
        x, y = self.left.values, self.right.values
        mean = np.concatenate([x.mean(axis=0), y.mean(axis=0)])
        cov = np.zeros((mean.size, mean.size))
        for start in range(0, self.shared_count, _COVARIANCE_CHUNK):
            rows = slice(start, start + _COVARIANCE_CHUNK)
            chunk = np.hstack([x[rows], y[rows]])
            chunk -= mean
            cov += chunk.T @ chunk
        cov /= self.shared_count
        cov.flags.writeable = False
        return cov


def _decoded(line: bytes | str, lineno: int, error: type[ValueError]) -> str:
    if isinstance(line, bytes):
        try:
            return line.decode("utf-8")
        except UnicodeDecodeError:
            raise error(f"line {lineno}: input is not valid UTF-8") from None
    return line


def split_lines(
    source: str | Path | IO, error: type[ValueError] = ParseError
) -> Iterator[tuple[int, list[str]]]:
    """``(line number, whitespace-split tokens)`` for every non-blank line.

    Paths are read as bytes and decoded line by line, so invalid UTF-8 is
    reported as ``error`` naming its line; open handles may yield bytes or str.
    """
    with opened(source, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = _decoded(line, lineno, error).split()
            if parts:
                yield lineno, parts


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
    start: int, lines: list, n_dims: int, values: np.ndarray, seen: dict[str, int]
) -> None:
    """Append a block row by row, raising the first :class:`ParseError` in it.

    Values follow Python's ``float()`` grammar, so this also accepts what
    the C reader rejects (``1_000``, non-ASCII digits).
    """
    for lineno, line in enumerate(lines, start):
        parts = _decoded(line, lineno, ParseError).split()
        if not parts:
            continue
        word = parts[0]
        if len(parts) - 1 != n_dims:  # before the assignment, which broadcasts
            raise ParseError(
                f"line {lineno}: expected {n_dims} values for {word!r}, "
                f"got {len(parts) - 1}"
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


def parse_embedding(
    source: str | Path | IO,
    format_hint: str = "auto",
    name: str | None = None,
) -> EmbeddingMatrix:
    """Parse a text embedding file into a validated :class:`EmbeddingMatrix`.

    ``format_hint`` is one of ``auto``, ``word2vec_text`` or ``glove_text``.
    In ``auto`` mode the file is treated as word2vec_text exactly when its
    first line parses as two positive integers.  Duplicate words, ragged
    rows, non-finite values and empty files are all hard errors.
    """
    if format_hint not in ("auto", "word2vec_text", "glove_text"):
        raise ValueError(f"unknown format_hint {format_hint!r}")
    if name is None:
        name = Path(source).stem if isinstance(source, (str, Path)) else "embedding"

    # Rows go straight into one buffer that doubles when full.  It starts
    # empty and the header never sizes it (the header is outside input).
    values = np.empty(0)
    seen: dict[str, int] = {}  # word -> line; insertion order is the vocab
    header: tuple[int, int] | None = None
    n_dims = 0  # 0 until the first non-blank line is read
    with opened(source, "rb") as fh:
        start = 1
        while lines := fh.readlines(_BLOCK_BYTES):
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
            if not _append_block(block_start, lines, n_dims, values, seen):
                _append_rows(block_start, lines, n_dims, values, seen)

    if not n_dims:
        raise ParseError("empty embedding file")
    if not seen:
        raise ParseError("embedding file has a header but no rows")
    if header is not None and header[0] != len(seen):
        raise ParseError(
            f"header declares {header[0]} rows but file contains {len(seen)}"
        )
    values.resize((len(seen), n_dims), refcheck=False)
    values.flags.writeable = False
    return EmbeddingMatrix(vocab=tuple(seen), values=values, name=name)


def _parse_pair(
    left: str | Path, right: str | Path, format_hint: str = "auto"
) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
    """``parse_embedding`` of both files, the left one in a forked child.

    numpy's C reader holds the GIL, so a second thread would not help; a
    forked child parses ``left`` on the second core while the parent parses
    ``right``, and needs no fresh interpreter.  OpenBLAS's fork handler
    stops its thread pool, so the process forks with one thread (Python
    3.12 warns on a fork with more).  The child sends back either
    the pickled exception or the pickled ``(vocab, name, shape)`` followed by
    the raw values, which the parent reads into a new array.  The left
    file's error wins when both files fail; a child that sends no result
    raises :class:`ChildProcessError` naming ``left``.  Without ``os.fork``
    the two parses run in order.
    """
    if not hasattr(os, "fork"):
        return parse_embedding(left, format_hint), parse_embedding(right, format_hint)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)  # else a parent that stops reading never gives EPIPE
        _parse_to_pipe(write_fd, left, format_hint)
    os.close(write_fd)
    try:
        # closed on any exit, so a child blocked on write gets EPIPE and exits
        with open(read_fd, "rb") as pipe:
            try:
                right_matrix = parse_embedding(right, format_hint)
            except Exception:
                _receive(pipe, left)  # raises the left file's error, if any
                raise
            return _receive(pipe, left), right_matrix
    finally:
        os.waitpid(pid, 0)


def _parse_to_pipe(fd: int, source: str | Path, format_hint: str) -> NoReturn:
    """The child's side of :func:`_parse_pair`; always ends in ``os._exit``."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            try:
                e = parse_embedding(source, format_hint)
            except Exception as exc:
                pickle.dump(exc, pipe)
            else:
                pickle.dump((e.vocab, e.name, e.values.shape), pipe)
                pipe.write(e.values.data)
        status = 0
    finally:
        os._exit(status)


def _receive(pipe: BinaryIO, source: str | Path) -> EmbeddingMatrix:
    """Read one result of :func:`_parse_to_pipe`: a matrix, or raise its error."""
    try:
        head = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        head = None
    if isinstance(head, Exception):
        raise head
    if head is not None:
        vocab, name, shape = head
        values = np.empty(shape)
        if pipe.readinto(values.data) == values.nbytes:
            values.flags.writeable = False
            return EmbeddingMatrix(vocab=vocab, values=values, name=name)
    raise ChildProcessError(f"{source}: the process parsing it ended without a result")


def write_glove_text(e: EmbeddingMatrix, dest: str | Path | IO) -> None:
    """Serialize in glove_text format with 6 significant digits."""
    fmt = " %.6g" * e.n_dims + "\n"
    with opened(dest, "w", encoding="utf-8") as out:
        for word, row in zip(e.vocab, e.values):
            out.write(word + fmt % tuple(row.tolist()))


def align_vocabularies(a: EmbeddingMatrix, b: EmbeddingMatrix) -> AlignedPair:
    """Restrict both embeddings to their shared vocabulary, in ``a``'s order.

    Raises ``ValueError`` when the vocabularies are disjoint.  When the
    vocabularies already agree element-for-element the input matrices are
    reused without copying (they are immutable).
    """
    if a.vocab == b.vocab:
        return AlignedPair(left=a, right=b)

    b_index = b.index
    shared = [w for w in a.vocab if w in b_index]
    if not shared:
        raise ValueError(
            f"embeddings {a.name!r} and {b.name!r} share no vocabulary"
        )
    a_rows = np.fromiter((a.index[w] for w in shared), dtype=np.intp, count=len(shared))
    b_rows = np.fromiter((b_index[w] for w in shared), dtype=np.intp, count=len(shared))
    vocab = tuple(shared)
    # fresh arrays, frozen here so EmbeddingMatrix keeps them without a copy
    a_values, b_values = a.values[a_rows], b.values[b_rows]
    a_values.flags.writeable = b_values.flags.writeable = False
    left = EmbeddingMatrix(vocab=vocab, values=a_values, name=a.name)
    right = EmbeddingMatrix(vocab=vocab, values=b_values, name=b.name)
    return AlignedPair(
        left=left,
        right=right,
        dropped_left=a.n_words - len(shared),
        dropped_right=b.n_words - len(shared),
    )


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
