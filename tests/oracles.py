"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different computational route from the
library: brute-force enumeration and a dynamic program over row subsets
instead of the assignment solver, QR-based canonical correlations instead
of covariance whitening, plain textbook
formulas instead of vectorized kernels, and exact Fraction arithmetic on an
explicit coincidence matrix for the agreement coefficient, a
textbook line-at-a-time ``str.split`` + ``float()`` parse of text embeddings,
a one-``str``-row-at-a-time ``%`` writer of them,
analogy answers scored one question at a time instead of in blocks, and
scipy's ``gaussian_kde`` for the windowed numpy KDE, and scipy's
compiled ``connected_components`` for the tie pass's Tarjan labelling.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def pearson_textbook(x, y) -> float:
    """Direct evaluation of cov(x, y) / (sigma_x * sigma_y)."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y)) / n
    sx = (sum((xi - mx) ** 2 for xi in x) / n) ** 0.5
    sy = (sum((yi - my) ** 2 for yi in y) / n) ** 0.5
    return cov / (sx * sy)


def correlation_matrix_naive(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.empty((x.shape[1], y.shape[1]))
    for i in range(x.shape[1]):
        for j in range(y.shape[1]):
            out[i, j] = pearson_textbook(x[:, i].tolist(), y[:, j].tolist())
    return out


def brute_force_assignment(weights: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exhaustive search over all permutations.

    Returns the lexicographically smallest permutation among those achieving
    the maximum total, and that exact maximum (both computed with the same
    column-order gather-and-sum as the solver reports).
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    cols = np.arange(n)
    best_total = None
    best_perms: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(n)):
        total = w[list(perm), cols].sum()
        if best_total is None or total > best_total:
            best_total = total
            best_perms = [perm]
        elif total == best_total:
            best_perms.append(perm)
    return min(best_perms), float(best_total)


def lexicographic_assignment_by_fixing(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Lexicographically smallest maximum-weight assignment, column by column.

    Fixes column 0, 1, ... to the smallest row that still admits the
    optimal total, re-solving the whole problem with scipy for every
    candidate.  Shares no tie-handling code with the library; exact only
    for integer weights, whose totals have no rounding.
    """
    from scipy.optimize import linear_sum_assignment

    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    forbid = 2 * n * (np.abs(w).max() + 1)  # worse than any unforced assignment

    def best_with(fixed: dict[int, int]) -> float:
        cost = -w.copy()
        for col, row in fixed.items():
            cost[row, :] = forbid
            cost[:, col] = forbid
            cost[row, col] = -w[row, col]
        rows, cols = linear_sum_assignment(cost)
        return float(-cost[rows, cols].sum())

    optimum = best_with({})
    fixed: dict[int, int] = {}
    for col in range(n):
        used = set(fixed.values())
        fixed[col] = next(
            row for row in range(n)
            if row not in used and best_with({**fixed, col: row}) == optimum
        )
    return np.array([fixed[c] for c in range(n)]), optimum


def max_assignment_totals(grids: np.ndarray) -> np.ndarray:
    """Exact maximum assignment totals of a batch of square integer grids.

    A dynamic program over the subsets of used rows: column ``k`` takes one
    of the rows left free by the best assignment of columns ``0..k-1``.
    Integer arithmetic throughout, so every total is exact; O(2^n * n^2)
    per grid, for ``n`` up to about 16.
    """
    t = np.asarray(grids, dtype=np.int64)
    batch, n = t.shape[:2]
    masks = np.arange(1 << n)
    used = np.array([bin(m).count("1") for m in masks])
    best = np.full((1 << n, batch), np.iinfo(np.int64).min // 2)  # [used rows, grid]
    best[0] = 0
    for k in range(n):
        for r in range(n):
            free = masks[(used == k) & (masks & (1 << r) == 0)]
            nxt = free | (1 << r)
            best[nxt] = np.maximum(best[nxt], best[free] + t[:, r, k])
    return best[-1]


def strong_components(arcs: np.ndarray) -> np.ndarray:
    """Strong-component labels of the graph with an arc ``c -> c'`` wherever
    ``arcs[c, c']``, from ``scipy.sparse.csgraph.connected_components``
    (compiled Pearce's algorithm on a sparse array) instead of the
    library's Python Tarjan over successor lists.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    return connected_components(csr_array(arcs), connection="strong")[1]


def gaussian_kde_scipy(vals, xs) -> np.ndarray:
    """scipy's ``gaussian_kde(bw_method="silverman")`` evaluated at ``xs``.

    scipy takes the bandwidth from a weighted covariance and its Cholesky
    factor, and sums the kernel over every value in compiled code; the
    library sums a windowed numpy expression over sorted values.
    """
    from scipy.stats import gaussian_kde

    return gaussian_kde(np.asarray(vals, dtype=np.float64), bw_method="silverman")(xs)


def reference_cca_correlations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Canonical correlations via QR of the centered data matrices.

    No covariance matrix is ever formed, so this shares no code path with
    an eigendecomposition-whitening implementation.  Assumes both sides
    have full column rank (true for the random fixtures it checks).
    """
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    qx, _ = np.linalg.qr(xc)
    qy, _ = np.linalg.qr(yc)
    s = np.linalg.svd(qx.T @ qy, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def aligned(a, b) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The words embeddings ``a`` and ``b`` share, in ``a``'s order, and each
    side's rows for them, as copies found by plain dict lookups."""
    a_rows = {w: i for i, w in enumerate(a.vocab)}
    b_rows = {w: i for i, w in enumerate(b.vocab)}
    words = [w for w in a.vocab if w in b_rows]
    x = a.values[[a_rows[w] for w in words]]
    y = b.values[[b_rows[w] for w in words]]
    return words, x, y


def moments_by_copy(
    x: np.ndarray, y: np.ndarray, chunk: int
) -> tuple[np.ndarray, np.ndarray]:
    """Joint covariance and constant-column flags of two aligned copies.

    The route ``compare`` took while it copied the shared rows: column means
    of each whole side, then ``c.T @ c`` over ``chunk``-row slices of the
    centred ``np.hstack``, and a column is constant where its max is its min.
    """
    mean = np.concatenate([x.mean(axis=0), y.mean(axis=0)])
    cov = np.zeros((mean.size, mean.size))
    for start in range(0, x.shape[0], chunk):
        rows = slice(start, start + chunk)
        c = np.hstack([x[rows], y[rows]])
        c -= mean
        cov += c.T @ c
    cov /= x.shape[0]
    constant = np.concatenate([v.max(axis=0) == v.min(axis=0) for v in (x, y)])
    return cov, constant


def _positive_int(token: str) -> bool:
    try:
        return int(token) > 0
    except ValueError:
        return False


def parse_embedding_rowwise(
    data: bytes, format_hint: str = "auto"
) -> tuple[list[str], list[list[float]]]:
    """Textbook parse of a text embedding: one line at a time, ``float()`` per token.

    Lines end at ``\\n`` only.  Returns ``(vocab, rows)``, or raises
    ``ValueError`` with the package's ``ParseError`` message for the first
    bad line.
    """
    vocab: list[str] = []
    rows: list[list[float]] = []
    first_seen: dict[str, int] = {}
    declared = n_dims = None
    header_note = ""
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"line {lineno}: input is not valid UTF-8") from None
        parts = line.split()
        if not parts:
            continue
        if n_dims is None:
            header = len(parts) == 2 and all(_positive_int(p) for p in parts)
            if format_hint == "word2vec_text" or (format_hint == "auto" and header):
                if not header:
                    raise ValueError(
                        f"line {lineno}: expected '<count> <dim>' header, got {parts!r}"
                    )
                declared, n_dims = int(parts[0]), int(parts[1])
                if format_hint == "auto":
                    header_note = (
                        f" (line {lineno} was read as a word2vec '<count> <dim>' "
                        "header; use format glove_text if it is a row)"
                    )
                continue
            n_dims = len(parts) - 1
            if n_dims == 0:
                raise ValueError(f"line {lineno}: row has a word but no values")
        word, tokens = parts[0], parts[1:]
        if len(tokens) != n_dims:
            raise ValueError(
                f"line {lineno}: expected {n_dims} values for {word!r}, "
                f"got {len(tokens)}{'' if vocab else header_note}"
            )
        try:
            row = [float(t) for t in tokens]
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value in row {word!r}"
            ) from None
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"line {lineno}: non-finite value in row {word!r}")
        if word in first_seen:
            raise ValueError(
                f"line {lineno}: duplicate word {word!r} "
                f"(first seen on line {first_seen[word]})"
            )
        first_seen[word] = lineno
        vocab.append(word)
        rows.append(row)
    if n_dims is None:
        raise ValueError("empty embedding file")
    if not vocab:
        raise ValueError("embedding file has a header but no rows")
    if declared is not None and declared != len(vocab):
        raise ValueError(
            f"header declares {declared} rows but file contains {len(vocab)}"
        )
    return vocab, rows


def write_glove_text_rowwise(vocab, values) -> str:
    """glove_text as one ``str`` per row: the word, then ``" %.6g"`` per value."""
    fmt = " %.6g" * len(values[0]) + "\n"
    return "".join(word + fmt % tuple(row) for word, row in zip(vocab, values))


def alpha_coincidence_matrix(a, b) -> Fraction:
    """Agreement coefficient from an explicit label-by-label coincidence matrix.

    Each item rated by both contributes both ordered pairs.  Observed
    disagreement is the off-diagonal mass over the matrix total; expected
    disagreement comes from the marginal label counts.  Exact rationals
    throughout.
    """
    usable = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    labels = sorted({v for pair in usable for v in pair})
    pos = {v: i for i, v in enumerate(labels)}
    size = len(labels)
    matrix = [[0] * size for _ in range(size)]
    for x, y in usable:
        matrix[pos[x]][pos[y]] += 1
        matrix[pos[y]][pos[x]] += 1
    n = 2 * len(usable)
    observed = Fraction(
        sum(matrix[i][j] for i in range(size) for j in range(size) if i != j), n
    )
    marginals = [sum(row) for row in matrix]
    expected = Fraction(
        sum(
            marginals[i] * marginals[j]
            for i in range(size)
            for j in range(size)
            if i != j
        ),
        n * (n - 1),
    )
    if expected == 0:
        return Fraction(1)
    return 1 - observed / expected


def cosine_ranking(values: np.ndarray, target: np.ndarray) -> list[int]:
    """Row indices sorted by decreasing cosine similarity to ``target``."""
    sims = []
    for i, row in enumerate(values):
        denom = np.linalg.norm(row) * np.linalg.norm(target)
        sims.append((row @ target) / denom if denom else 0.0)
    return sorted(range(len(sims)), key=lambda i: (-sims[i], i))


def analogy_answers_bruteforce(vocab, values, questions) -> list[tuple[str | None, float]]:
    """3CosAdd answers, one question at a time, with each answer's margin.

    Rows are scaled to unit length (all-zero rows stay zero).  Each question
    scores every row with ``values @ (b - a + c)``, drops a, b and c, and
    takes the first highest-scoring row.  Returns ``(word, gap)`` per
    question, where gap is the best score minus the runner-up's (inf with
    one candidate); ``(None, inf)`` when a, b or c is out of vocabulary or
    no candidate is left.
    """
    index = {w: i for i, w in enumerate(vocab)}
    values = np.asarray(values, dtype=np.float64)
    norms = np.sqrt((values**2).sum(axis=1))
    unit = values / np.where(norms == 0.0, 1.0, norms)[:, None]
    answers: list[tuple[str | None, float]] = []
    for q in questions:
        if not {q.a, q.b, q.c} <= index.keys():
            answers.append((None, math.inf))
            continue
        ia, ib, ic = index[q.a], index[q.b], index[q.c]
        scores = unit @ (unit[ib] - unit[ia] + unit[ic])
        candidates = [i for i in range(len(vocab)) if i not in (ia, ib, ic)]
        if not candidates:
            answers.append((None, math.inf))
            continue
        ranked = sorted(candidates, key=lambda i: (-scores[i], i))
        gap = scores[ranked[0]] - scores[ranked[1]] if len(ranked) > 1 else math.inf
        answers.append((vocab[ranked[0]], float(gap)))
    return answers
