"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different computational route from the
library: brute-force enumeration instead of the assignment solver, QR-based
canonical correlations instead of covariance whitening, plain textbook
formulas instead of vectorized kernels, and exact Fraction arithmetic on an
explicit coincidence matrix for the agreement coefficient.
"""
from __future__ import annotations

import itertools
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
