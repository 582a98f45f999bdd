"""One-to-one dimension matching by exact maximum-weight assignment.

The score of a matching ``a`` is the mean of the matched correlations
``kappa[a_d, d]``; the solver finds the permutation maximizing that mean.
The maximization is run as a minimization of ``max_entry - w`` through
``scipy.sparse.csgraph.min_weight_full_bipartite_matching`` (LAPJVsp,
Jonker & Volgenant 1987), O(D^3) on the dense grid.  The tie pass imports
``scipy.sparse.csgraph`` anyway, so ``scipy.optimize`` is never loaded.

Decided grids skip the solver.  When each column's maximum sits in a row
of its own and beats the column's second-largest entry by more than the
tie pass's tolerance (the column-reduction certificate of Jonker &
Volgenant), the column maxima are the unique optimum of both the plain sum
and the solver's cost, so that permutation is the solver's result and is
returned with no scipy module loaded.  Reruns that keep their dimensions
aligned (permuted, sign-flipped under ``use_abs``, lightly perturbed) give
such grids; a mixed grid fails the check in O(D^2) and goes to the solver.

Tie handling: among equal-weight optima the lexicographically smallest
assignment is returned, so reports are reproducible across platforms and
do not depend on which optimum the solver lands on.  The tie pass needs
dual potentials, which the solver does not return; they are recovered from
its optimal assignment as shortest-path distances over the columns
(Bellman-Ford), and every optimum is then a perfect matching on the edges
those potentials make tight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .column_stats import CorrelationMatrix
from .embedding_io import read_only


@dataclass(frozen=True)
class Matching:
    """Optimal one-to-one assignment of left dimensions to right dimensions.

    ``assignment[d]`` is the left dimension matched to right dimension ``d``
    (0-based).  ``matched_correlations`` holds the signed correlation at each
    matched position, in right-dimension order; ``zeta_1to1`` is their mean.

    When the matching was computed on absolute correlations,
    ``abs_objective`` is True and ``zeta_abs_1to1``, the mean of
    ``|matched_correlations|``, is reported beside ``zeta_1to1`` (None
    otherwise).
    """

    assignment: np.ndarray
    matched_correlations: np.ndarray
    abs_objective: bool = False

    def __post_init__(self):
        a = read_only(self.assignment, np.intp)
        if sorted(a.tolist()) != list(range(a.shape[0])):
            raise ValueError("assignment is not a permutation")
        object.__setattr__(self, "assignment", a)
        object.__setattr__(
            self, "matched_correlations", read_only(self.matched_correlations)
        )

    @property
    def zeta_1to1(self) -> float:
        return float(self.matched_correlations.mean())

    @property
    def zeta_abs_1to1(self) -> float | None:
        if not self.abs_objective:
            return None
        return float(np.abs(self.matched_correlations).mean())

    def to_json_dict(self) -> dict:
        d = {
            "assignment": [int(i) for i in self.assignment],
            "matched_correlations": [float(v) for v in self.matched_correlations],
            "zeta_1to1": self.zeta_1to1,
        }
        if self.abs_objective:
            d["zeta_abs_1to1"] = self.zeta_abs_1to1
        return d


def _tight_edges(cost: np.ndarray, col_to_row: np.ndarray) -> np.ndarray:
    """Edges of zero reduced cost under dual potentials certifying the
    optimal assignment ``col_to_row`` (``s`` below).

    The column potential ``v[j]`` is the shortest distance to column ``j``
    from a virtual source joined to every column by a 0-weight arc, over
    arcs ``j' -> j`` of weight ``cost[s(j'), j] - cost[s(j'), j']``; the row
    potentials follow as ``u[s(j)] = cost[s(j), j] - v[j]``.  An optimal
    ``s`` leaves no negative cycle, so Bellman-Ford settles within D rounds;
    each round relaxes only from the columns whose distance just dropped.
    The tightness test uses a small relative tolerance to absorb float dust.
    """
    n = cost.shape[0]
    arcs = cost[col_to_row]
    arcs -= np.diag(arcs)[:, None]
    v = np.zeros(n)
    changed = np.arange(n)
    for _ in range(n):
        best = (v[changed, None] + arcs[changed]).min(axis=0)
        changed = np.flatnonzero(best < v)
        if changed.size == 0:
            break
        v[changed] = best[changed]
    # reduced cost of edge (s(j'), j) is arcs[j', j] + v[j'] - v[j]
    tight = np.empty((n, n), dtype=bool)
    tight[col_to_row] = arcs + v[:, None] - v <= 1e-9 * max(1.0, np.abs(cost).max())
    return tight


def _augment(
    col: int,
    tight_rows: list[np.ndarray],
    col_of_row: np.ndarray,
    row_of_col: np.ndarray,
    blocked: np.ndarray,
) -> bool:
    """Find an alternating path re-matching ``col``; rewires in place.

    Depth-first over an explicit stack, so the path length is not bounded
    by the recursion limit.  Rows in ``blocked`` are never taken, and every
    row the search visits is added to it.
    """
    cols = [col]
    taken: list[int] = []  # taken[k] is the row cols[k] moves to
    stack = [iter(tight_rows[col])]
    while stack:
        r = next((r for r in stack[-1] if not blocked[r]), None)
        if r is None:
            stack.pop()
            cols.pop()
            if taken:
                taken.pop()
            continue
        blocked[r] = True
        taken.append(r)
        if col_of_row[r] < 0:
            col_of_row[taken] = cols
            row_of_col[cols] = taken
            return True
        cols.append(col_of_row[r])
        stack.append(iter(tight_rows[cols[-1]]))
    return False


def _components(tight: np.ndarray, row_of_col: np.ndarray, n_fixed: int) -> np.ndarray:
    """Strong-component labels of the graph with an arc ``c -> c'`` wherever
    column ``c`` can take column ``c'``'s row over a tight edge.

    Columns below ``n_fixed`` keep their rows, so no arc enters them.  A
    tight edge lies on some optimal assignment exactly when it joins two
    columns of one component.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    graph = tight[row_of_col].T
    graph[:, :n_fixed] = False
    return connected_components(csr_array(graph), connection="strong")[1]


def _lexicographically_smallest(
    weights: np.ndarray, col_to_row: np.ndarray, tight: np.ndarray
) -> np.ndarray:
    """Among assignments of equal total weight, prefer the lexicographically
    smallest one.

    Any perfect matching on tight edges is optimal (complementary
    slackness), so we greedily rebuild the matching column by column,
    always taking the smallest row whose column shares the current
    column's strong component.  Fixing a column can split its component;
    a failed re-match recomputes the stale labels.  If the tolerance let a
    near-tie through, the exact total-weight comparison at the end rejects
    the refined matching.
    """
    n = tight.shape[0]
    labels = _components(tight, col_to_row, 0)
    if np.bincount(labels).max() == 1:
        return col_to_row

    tight_rows = [np.flatnonzero(tight[:, j]) for j in range(n)]
    row_of_col = col_to_row.copy()
    col_of_row = np.empty(n, dtype=np.intp)
    col_of_row[row_of_col] = np.arange(n)
    fixed_rows = np.zeros(n, dtype=bool)

    for d in range(n):
        for r in tight_rows[d]:
            if r >= row_of_col[d]:
                break
            displaced = col_of_row[r]
            if fixed_rows[r] or labels[displaced] != labels[d]:
                continue
            blocked = fixed_rows | (labels[col_of_row] != labels[d])
            blocked[r] = True
            freed = row_of_col[d]
            # tentatively give row r to column d and re-match the column
            # that loses it (the freed row is the only available one)
            col_of_row[freed] = -1
            col_of_row[r] = d
            row_of_col[d] = r
            if _augment(displaced, tight_rows, col_of_row, row_of_col, blocked):
                break
            # revert
            col_of_row[r] = displaced
            col_of_row[freed] = d
            row_of_col[d] = freed
            labels = _components(tight, row_of_col, d)
        fixed_rows[row_of_col[d]] = True

    cols = np.arange(n)
    if (
        weights[row_of_col, cols].sum() >= weights[col_to_row, cols].sum()
        and row_of_col.tolist() <= col_to_row.tolist()
    ):
        return row_of_col
    return col_to_row


def max_weight_assignment(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact maximum-weight perfect assignment on a square matrix.

    Returns ``(assignment, total_weight)`` where ``assignment[d]`` is the row
    matched to column ``d`` and the permutation maximizes
    ``sum(weights[assignment[d], d])``.

    Optimality is exact for the cost the solver minimises, ``w.max() - w``
    with each exact zero lifted to ``2**-1074`` (csgraph drops stored
    zeros, which would remove those edges).  That cost rounds differently
    from the plain sum of ``w``, so on weights whose sums round (a 0.1-step
    grid, say) ``total_weight`` can trail the brute-force plain-sum maximum
    by at most ``n**2 * eps * max|w| + n * 2**-1074``, with ``n`` the matrix
    size and ``eps`` the float64 machine epsilon.  Known issue: with scipy
    1.17.1 the solver never returns on some matrices with exact float ties
    (one 12x12 matrix of values on a 0.1 step ran past 10 s), and nothing
    bounds the solve.

    A decided matrix, one whose column maxima lie in distinct rows and each
    exceed their column's second-largest entry by more than
    ``1e-9 * max(1, w.max() - w.min())``, returns the column maxima: the
    solver's result, found without loading scipy.  Every other matrix,
    ``n == 1`` included, goes to the solver.

    Raises ``ValueError`` naming the range when ``w.max() - w.min()``
    overflows float64 (``[[1.7e308, 0], [0, -1.7e308]]``).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {w.shape}")
    if w.shape[0] == 0:
        raise ValueError("weight matrix is empty")
    if not np.isfinite(w).all():
        raise ValueError("weight matrix contains non-finite entries")
    lo, hi = float(w.min()), float(w.max())
    if not math.isfinite(hi - lo):
        raise ValueError(f"weight range [{lo!r}, {hi!r}] is wider than float64 can hold")

    n = w.shape[0]
    cols, rows = np.arange(n), w.argmax(axis=0)
    tol = 1e-9 * max(1.0, hi - lo)  # the tie pass's tolerance (_tight_edges)
    decided = (  # at n == 1 the runner-up is the maximum itself, so never decided
        np.unique(rows).size == n
        and (w[rows, cols] - np.partition(w, n - 2, axis=0)[n - 2] > tol).all()
    )
    assignment = rows if decided else _solved(w)
    return assignment, float(w[assignment, cols].sum())


def _solved(w: np.ndarray) -> np.ndarray:
    """The lexicographically smallest optimum of ``max_weight_assignment``'s
    validated ``w``, found by LAPJVsp and the tie pass."""
    from scipy.sparse import csr_array  # slow imports: load on use
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    cost = w.max() - w
    lifted = csr_array(np.where(cost == 0, np.finfo(np.float64).smallest_subnormal, cost))
    col_to_row = np.argsort(min_weight_full_bipartite_matching(lifted)[1])  # rows come sorted
    return _lexicographically_smallest(w, col_to_row, _tight_edges(cost, col_to_row))


def one_to_one_score(kappa: CorrelationMatrix, use_abs: bool = False) -> Matching:
    """Best one-to-one dimension matching for a square correlation grid.

    With ``use_abs`` the assignment maximizes ``|kappa|`` (dimensions are
    equivalent up to sign flips); the signed matched values are still
    reported, with the absolute ones alongside.
    """
    values = kappa.values
    if values.shape[0] != values.shape[1]:
        raise ValueError(
            f"correlation matrix is {values.shape[0]}x{values.shape[1]}; "
            "one-to-one matching needs a square grid -- truncate or pad "
            "the embeddings explicitly before matching"
        )
    target = np.abs(values) if use_abs else values
    assignment, _ = max_weight_assignment(target)
    return Matching(
        assignment=assignment,
        matched_correlations=values[assignment, np.arange(values.shape[1])],
        abs_objective=use_abs,
    )
