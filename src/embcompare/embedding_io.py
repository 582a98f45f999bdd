"""Reading, validating and aligning text-format word embeddings.

Two on-disk formats are supported:

* ``glove_text``    -- one record per line: ``<word> <v1> ... <vD>``
* ``word2vec_text`` -- same records preceded by a ``<count> <dim>`` header

Files are UTF-8.  Values are parsed as 64-bit floats with Python's
``float()`` grammar (so ``1_000`` is accepted).  The header's row count is
checked against the rows read, never trusted.  Words are compared
byte-exact (no case folding, no Unicode normalization).
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

# Rows per chunk of the covariance pass.  A constant, so the accumulation
# order (and the result, bit for bit at a given BLAS thread count) is fixed.
_COVARIANCE_CHUNK = 2048


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
    shared_count: int
    dropped_left: int = 0
    dropped_right: int = 0

    def __post_init__(self):
        if self.left.vocab != self.right.vocab:
            raise ValueError("left and right vocabularies differ")
        if self.shared_count != len(self.left.vocab) or self.shared_count < 1:
            raise ValueError("shared_count does not match the vocabularies")

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


def split_lines(
    source: str | Path | IO, error: type[ValueError] = ParseError
) -> Iterator[tuple[int, list[str]]]:
    """``(line number, whitespace-split tokens)`` for every non-blank line.

    Paths are read as bytes and decoded line by line, so invalid UTF-8 is
    reported as ``error`` naming its line; open handles may yield bytes or str.
    """
    with opened(source, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError:
                    raise error(f"line {lineno}: input is not valid UTF-8") from None
            parts = line.split()
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

    lines = split_lines(source)
    first = next(lines, None)
    if first is None:
        raise ParseError("empty embedding file")
    lineno, parts = first
    header: tuple[int, int] | None = None
    if format_hint == "word2vec_text" or (
        format_hint == "auto" and _looks_like_header(parts)
    ):
        if not _looks_like_header(parts):
            raise ParseError(
                f"line {lineno}: expected '<count> <dim>' header, got {parts!r}"
            )
        header = (int(parts[0]), int(parts[1]))
        n_dims = header[1]
    else:
        n_dims = len(parts) - 1
        if n_dims < 1:
            raise ParseError(f"line {lineno}: row has a word but no values")
        lines = chain([first], lines)

    # Rows go straight into one buffer that doubles when full.  It starts
    # empty and the header never sizes it (the header is outside input):
    # only a row that passed the width check can grow it.
    values = np.empty(0)
    seen: dict[str, int] = {}  # word -> line; insertion order is the vocab
    for n, (lineno, parts) in enumerate(lines):
        word = parts[0]
        if len(parts) - 1 != n_dims:  # before the assignment, which broadcasts
            raise ParseError(
                f"line {lineno}: expected {n_dims} values for {word!r}, "
                f"got {len(parts) - 1}"
            )
        if n == len(values):
            # no view of the buffer outlives a statement, so realloc is safe
            values.resize((max(2 * n, 1), n_dims), refcheck=False)
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

    if not seen:
        raise ParseError("embedding file has a header but no rows")
    if header is not None and header[0] != len(seen):
        raise ParseError(
            f"header declares {header[0]} rows but file contains {len(seen)}"
        )
    values.resize((len(seen), n_dims), refcheck=False)
    values.flags.writeable = False
    return EmbeddingMatrix(vocab=tuple(seen), values=values, name=name)


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
        return AlignedPair(left=a, right=b, shared_count=len(a.vocab))

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
        shared_count=len(shared),
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
