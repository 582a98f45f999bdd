import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embcompare import alignment
from embcompare import (
    align_vocabularies,
    correlation_matrix,
    max_weight_assignment,
    one_to_one_score,
)
from embcompare.column_stats import CorrelationMatrix
from embcompare.synthgen import (
    SynthSpec,
    derive_pair,
    random_embedding,
    random_permutation,
    random_sign_mask,
)
from helpers import make_embedding, run_python
from oracles import (
    brute_force_assignment,
    lexicographic_assignment_by_fixing,
    max_assignment_totals,
)


def test_identity_dominant_weights():
    assignment, total = max_weight_assignment(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert assignment.tolist() == [0, 1]
    assert total == 2.0


def test_anti_diagonal_weights():
    assignment, total = max_weight_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert assignment.tolist() == [1, 0]
    assert total == 2.0


def test_single_dimension():
    assignment, total = max_weight_assignment(np.array([[-3.0]]))
    assert assignment.tolist() == [0]
    assert total == -3.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_exact_against_brute_force(n):
    rng = np.random.default_rng(n)
    for _ in range(30):
        w = rng.standard_normal((n, n))
        assignment, total = max_weight_assignment(w)
        perm, best = brute_force_assignment(w)
        assert total == best
        assert tuple(assignment.tolist()) == perm


@pytest.mark.parametrize("seed", range(8))
def test_lexicographic_tie_breaking(seed):
    # small integer weights force many exactly-tied optima
    rng = np.random.default_rng(seed)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        w = rng.integers(0, 3, size=(n, n)).astype(float)
        assignment, total = max_weight_assignment(w)
        perm, best = brute_force_assignment(w)
        assert total == best
        assert tuple(assignment.tolist()) == perm


def test_plain_sum_total_within_rounding_bound():
    # scipy is exact for the cost w.max() - w, whose sums round differently
    # from the plain sum of w; on a 0.1-step grid the reported total can
    # trail the plain-sum maximum, but by no more than n^2 * eps * max|w|
    grid = np.array([-0.2, -0.1, 0.0, 0.1, 0.2, 0.3])
    rng = np.random.default_rng(2016)
    eps = np.finfo(np.float64).eps
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        w = grid[rng.integers(0, grid.size, size=(n, n))]
        _, total = max_weight_assignment(w)
        _, best = brute_force_assignment(w)
        assert best - total <= n * n * eps * np.abs(w).max()


@pytest.mark.parametrize("seed", range(4))
def test_lexicographic_ties_beyond_brute_force_sizes(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(10):
        n = int(rng.integers(8, 30))
        w = rng.integers(0, int(rng.integers(2, 5)), size=(n, n)).astype(float)
        w[:, rng.choice(n, n // 4, replace=False)] = 0.0  # tied zero block
        w[rng.choice(n, n // 4, replace=False), :] = 0.0
        assignment, total = max_weight_assignment(w)
        expected, best = lexicographic_assignment_by_fixing(w)
        assert total == best
        assert assignment.tolist() == expected.tolist()


def test_long_tied_cycle():
    # two optimal matchings that differ on one alternating cycle through
    # every row: column j takes original row j or row j + 1 (mod n)
    n = 1500
    w = np.zeros((n, n))
    cols = np.arange(n)
    w[cols, cols] = 1.0
    w[(cols + 1) % n, cols] = 1.0
    perm = np.random.default_rng(0).permutation(n)
    w = w[perm]  # row i of w is original row perm[i]
    position = np.argsort(perm)  # where each original row ended up
    first, second = position[cols], position[(cols + 1) % n]
    expected = first if first.tolist() < second.tolist() else second
    assignment, total = max_weight_assignment(w)
    assert total == n
    assert assignment.tolist() == expected.tolist()


def test_degenerate_columns_fill_in_ascending_order():
    # 50 live dimensions under a planted permutation, plus 10 constant
    # columns on each side at different positions; kappa zeroes the
    # constant rows and columns, so their block is one big tie
    rng = np.random.default_rng(21)
    n_live, n_dead, rows = 50, 10, 2000
    live = random_embedding(rows, n_live, seed=21).values
    plant = rng.permutation(n_live)
    dims = n_live + n_dead
    left_dead = np.sort(rng.choice(dims, n_dead, replace=False))
    right_dead = np.sort(rng.choice(dims, n_dead, replace=False))
    left_live = np.setdiff1d(np.arange(dims), left_dead)
    right_live = np.setdiff1d(np.arange(dims), right_dead)
    left = np.full((rows, dims), 0.25)
    right = np.full((rows, dims), -3.0)
    left[:, left_live] = live
    right[:, right_live] = live[:, plant]
    vocab = [f"w{i}" for i in range(rows)]
    kappa = correlation_matrix(
        align_vocabularies(make_embedding(left, vocab), make_embedding(right, vocab))
    )
    assert kappa.degenerate_left == tuple(left_dead)
    assert kappa.degenerate_right == tuple(right_dead)

    assignment = one_to_one_score(kappa).assignment
    assert assignment[right_live].tolist() == left_live[plant].tolist()
    assert assignment[right_dead].tolist() == left_dead.tolist()


def test_all_equal_weights_pick_identity():
    assignment, total = max_weight_assignment(np.ones((4, 4)))
    assert assignment.tolist() == [0, 1, 2, 3]
    assert total == 4.0


def test_negative_weights_supported():
    w = np.array([[-1.0, -5.0], [-5.0, -2.0]])
    assignment, total = max_weight_assignment(w)
    assert assignment.tolist() == [0, 1]
    assert total == -3.0


def test_input_validation():
    with pytest.raises(ValueError, match="square"):
        max_weight_assignment(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        max_weight_assignment(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="empty"):
        max_weight_assignment(np.zeros((0, 0)))


def test_weight_range_wider_than_float64_is_rejected():
    # max - w would overflow to inf and reach the solver as an infinite cost
    with pytest.raises(ValueError, match=r"weight range \[-1\.7e\+308, 1\.7e\+308\]"):
        max_weight_assignment(np.array([[1.7e308, 0.0], [0.0, -1.7e308]]))


def test_weights_whose_sums_overflow_are_rejected():
    # 2,000 seeded 5x5 grids of 8e307 times 0, +-0.5 or +-1: the range fits in
    # float64, but a total or a tie-pass distance over 5 entries does not.
    # Unguarded, 1,810 returned an infinite total, 1,854 warned, and 2 (grid
    # 6 first) returned an assignment that was not optimal.
    rng = np.random.default_rng(0)
    grids = [rng.choice([0, 0.5, -0.5, 1, -1], size=(5, 5)) for _ in range(2000)]
    perms = np.array(list(itertools.permutations(range(5))))
    cols = np.arange(5)
    for kappa in grids:
        w = 8e307 * kappa
        lo, hi = float(w.min()), float(w.max())
        with pytest.raises(ValueError, match=re.escape(f"weight range [{lo!r}, {hi!r}]")):
            max_weight_assignment(w)
        # the largest scale the guard admits, 5 * (1.79e307 - -1.79e307) being
        # finite: an optimum of the grid, with a finite total and no warning
        assignment, total = max_weight_assignment(1.79e307 * kappa)
        assert math.isfinite(total)
        assert kappa[assignment, cols].sum() == kappa[perms, cols].sum(axis=1).max()


@pytest.mark.parametrize("grid, loaded", [
    ("[[1.0, 1.0], [1.0, 0.0]]", "['scipy', 'scipy.optimize']"),  # tied: the solver route
    ("[[1.0, 0.0], [0.0, 1.0]]", "[]"),  # decided by its column maxima
], ids=["undecided", "decided"])
def test_only_an_undecided_grid_loads_scipy(grid, loaded):
    probe = (
        "import sys, numpy as np\n"
        "from embcompare.alignment import max_weight_assignment\n"
        f"max_weight_assignment(np.array({grid}))\n"
        "print([m for m in ('scipy', 'scipy.optimize') if m in sys.modules])\n"
    )
    assert run_python(probe).strip() == loaded


# A 0.1-step grid on which scipy's sparse LAPJV (min_weight_full_bipartite_matching,
# scipy 1.17.1) never returned; grid 748 of the seeded batch below is another.
TIED_GRID_TIMES_10 = [
    [0, 6, 0, 5, 1, 3, 2, 4, 1, 1, 4, 1], [4, 4, 4, 0, 0, 3, 0, 2, 2, 1, 3, 2],
    [2, 5, 2, 2, 2, 3, 3, 1, 2, 1, 1, 2], [1, 1, 3, 1, 0, 7, 6, 2, 3, 6, 0, 2],
    [2, 2, 3, 1, 1, 1, 1, 1, 5, 1, 4, 5], [2, 1, 3, 1, 5, 3, 1, 0, 4, 3, 2, 5],
    [4, 2, 0, 2, 2, 2, 3, 2, 2, 0, 2, 2], [1, 3, 3, 3, 3, 4, 2, 2, 1, 3, 1, 2],
    [1, 3, 1, 1, 5, 3, 1, 1, 2, 2, 1, 4], [1, 2, 2, 2, 1, 1, 0, 3, 2, 5, 1, 3],
    [3, 1, 3, 3, 0, 2, 4, 3, 4, 8, 8, 1], [5, 2, 2, 1, 3, 1, 3, 3, 0, 1, 1, 2],
]


def test_tied_grids_return_within_rounding_bound(tmp_path):
    # the solve runs in a child process: a hang fails by timeout
    rng = np.random.default_rng(7)
    ints = np.concatenate([
        np.array([TIED_GRID_TIMES_10], dtype=float),
        np.abs(np.rint(10 * rng.standard_normal((3000, 12, 12)))),
    ])
    grids, totals = tmp_path / "grids.npy", tmp_path / "totals.npy"
    np.save(grids, ints / 10)
    probe = (
        "import sys, numpy as np\n"
        "from embcompare.alignment import max_weight_assignment\n"
        "np.save(sys.argv[2], [max_weight_assignment(w)[1] for w in np.load(sys.argv[1])])\n"
    )
    run_python(probe, str(grids), str(totals), timeout=60)
    exact = max_assignment_totals(ints) / 10
    bound = 12 * 12 * np.finfo(np.float64).eps * ints.max(axis=(1, 2)) / 10
    assert (np.abs(np.load(totals) - exact) <= bound).all()


def test_tie_pass_labels_strong_components_once(monkeypatch):
    # fixing columns splits components, but the edges the first labelling
    # keeps still hold every later optimum, so no relabel is needed
    calls = []
    components = alignment._components

    def spy(*args):
        calls.append(args)
        return components(*args)

    monkeypatch.setattr(alignment, "_components", spy)
    rng = np.random.default_rng(0)
    half_steps = np.abs(np.rint(2 * rng.standard_normal((40, 40)))) / 2
    for w in (np.array(TIED_GRID_TIMES_10) / 10, half_steps):
        calls.clear()
        assignment, total = max_weight_assignment(w)
        expected, best = lexicographic_assignment_by_fixing(w)
        assert assignment.tolist() == expected.tolist()
        assert total == best
        assert len(calls) == 1


def test_tie_pass_searches_only_the_optimal_edges(monkeypatch):
    # 15 edges are tight here, but only 7 lie on some optimum; the
    # re-match searches see exactly those 7
    w = np.array([[1, 1, 1, 1, 2], [1, 1, 1, 1, 2], [0, 1, 1, 2, 2],
                  [0, 2, 2, 1, 0], [1, 0, 2, 2, 2]], dtype=float)
    searched = []
    augment = alignment._augment

    def spy(col, target, tight_rows, *rest):
        searched.append([list(rows) for rows in tight_rows])
        return augment(col, target, tight_rows, *rest)

    monkeypatch.setattr(alignment, "_augment", spy)
    perms = list(itertools.permutations(range(5)))
    totals = [w[perm, range(5)].sum() for perm in perms]
    optima = [perm for perm, total in zip(perms, totals) if total == max(totals)]
    assert max_weight_assignment(w)[0].tolist() == list(min(optima))
    assert searched
    for rows in searched:
        assert rows == [sorted({perm[c] for perm in optima}) for c in range(5)]


def test_large_tied_zero_block_returns_in_time(tmp_path):
    # half the rows and half the columns are zero, so most edges are tight
    # and the grid has a vast number of optima; re-match searches over every
    # tight edge, each candidate row searched afresh, took 10 s here on
    # 2 vCPUs against 1 s.  The solve runs in a child process: a hang or a
    # search that blows up fails by timeout
    rng = np.random.default_rng(11)
    n = 1000
    w = 0.05 * np.abs(rng.standard_normal((n, n)))
    w[rng.choice(n, n // 2, replace=False)] = 0.0
    w[:, rng.choice(n, n // 2, replace=False)] = 0.0
    probe = (
        "import sys, numpy as np\n"
        "from embcompare.alignment import max_weight_assignment\n"
        "np.save(sys.argv[2], max_weight_assignment(np.load(sys.argv[1]))[0])\n"
    )
    grid, out = tmp_path / "grid.npy", tmp_path / "assignment.npy"
    np.save(grid, w)
    run_python(probe, grid, out, timeout=20)
    assignment = np.load(out)
    from scipy.optimize import linear_sum_assignment

    cols = np.arange(n)
    assert sorted(assignment.tolist()) == cols.tolist()
    best = w[linear_sum_assignment(w, maximize=True)].sum()
    bound = n * n * np.finfo(np.float64).eps * w.max()
    assert abs(w[assignment, cols].sum() - best) <= bound


def _dominant_grid(seed: int, n: int, gaps, signs=None) -> tuple[np.ndarray, np.ndarray]:
    """A grid in [-0.5, 0.5] whose column ``d`` has its largest entry in row
    ``rows[d]``, ``gaps[d]`` above the column's next entry; ``signs`` flips
    entries afterwards.  Returns the grid and ``rows``."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-0.5, 0.5, (n, n))
    rows = rng.permutation(n)
    for d, gap in enumerate(gaps):
        w[rows[d], d] = -1.0  # below every other entry: the max is the runner-up
        w[rows[d], d] = w[:, d].max() + gap
    if signs is not None:
        w *= signs
    return w, rows


@pytest.fixture
def solver_calls(monkeypatch):
    """The grids ``max_weight_assignment`` hands to the solver route."""
    calls = []

    def spy(w):
        calls.append(w)
        return solved(w)

    solved = alignment._solved
    monkeypatch.setattr(alignment, "_solved", spy)
    return calls


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    use_abs=st.booleans(),
    data=st.data(),
)
def test_column_maxima_certificate_matches_the_solver(seed, n, use_abs, data):
    # gaps around the tolerance 1e-9 * max(1, hi - lo), hi - lo up to 1.5
    gap = st.sampled_from([0.0, 1e-12, 5e-10, 1e-9, 1.5e-9, 2e-9, 1e-8, 1e-4, 0.3])
    # one gap for every column, or one per column
    gaps = data.draw(
        st.one_of(gap.map(lambda g: [g] * n), st.lists(gap, min_size=n, max_size=n)),
        label="gaps",
    )
    signs = None
    if use_abs:  # dimensions equivalent up to sign: the grid is matched on |w|
        signs = np.where(np.random.default_rng(seed + 1).random((n, n)) < 0.5, -1.0, 1.0)
    grid, _ = _dominant_grid(seed, n, gaps, signs)
    w = np.abs(grid) if use_abs else grid
    assignment, total = max_weight_assignment(w)
    expected = alignment._solved(w)
    assert assignment.tolist() == expected.tolist()
    assert total == float(w[expected, np.arange(n)].sum())


def test_decided_grid_never_reaches_the_solver(monkeypatch):
    def no_solver(w):
        raise AssertionError("the solver ran on a decided grid")

    monkeypatch.setattr(alignment, "_solved", no_solver)
    w, rows = _dominant_grid(3, 40, [0.1] * 40)
    assignment, total = max_weight_assignment(w)
    assert assignment.tolist() == rows.tolist()
    assert total == float(w[rows, np.arange(40)].sum())
    # a permuted, sign-flipped, noisy rerun, matched on |kappa|
    base = random_embedding(800, 12, seed=5)
    perm = random_permutation(12, 6)
    spec = SynthSpec((perm, random_sign_mask(12, 7)), 0.2, seed=8)
    matching = one_to_one_score(correlation_matrix(derive_pair(base, spec)), use_abs=True)
    assert matching.assignment.tolist() == perm.order.tolist()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_decided_grid_against_brute_force(n, solver_calls):
    for seed in range(20):
        w, rows = _dominant_grid(seed, n, np.linspace(1e-6, 0.2, n))
        assignment, total = max_weight_assignment(w)
        perm, best = brute_force_assignment(w)
        assert tuple(assignment.tolist()) == perm == tuple(rows.tolist())
        assert total == best
    assert solver_calls == []


@pytest.mark.parametrize(
    "w",
    [
        [[0.7]],
        # column 0's maximum is tied between rows 0 and 1
        [[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
        # the maxima of columns 0 and 1 are both in row 0
        [[2.0, 1.5], [0.0, 1.0]],
        # each column's maximum beats the other entry by exactly
        # 1e-9 * max(1, hi - lo) = 1e-9
        [[1e-9, 0.0], [0.0, 1e-9]],
        [[0.0, 1e-9], [1e-9, 0.0]],
    ],
    ids=["one_dimension", "tied_maximum", "shared_row", "gap_at_tolerance",
         "gap_at_tolerance_anti_diagonal"],
)
def test_undecided_grids_take_the_solver_route(w, solver_calls):
    w = np.array(w)
    assignment, total = max_weight_assignment(w)
    perm, best = brute_force_assignment(w)
    assert tuple(assignment.tolist()) == perm
    assert total == best
    assert len(solver_calls) == 1


def test_gap_one_ulp_past_the_tolerance_is_decided(solver_calls):
    top = np.nextafter(1e-9, 1.0)
    assignment, _ = max_weight_assignment(np.array([[0.0, top], [top, 0.0]]))
    assert assignment.tolist() == [1, 0]
    assert solver_calls == []


def test_one_to_one_requires_square():
    kappa = CorrelationMatrix(values=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="truncate or pad"):
        one_to_one_score(kappa)


def test_self_comparison_scores_one():
    e = random_embedding(500, 8, seed=5)
    kappa = correlation_matrix(align_vocabularies(e, e))
    matching = one_to_one_score(kappa)
    assert matching.assignment.tolist() == list(range(8))
    assert matching.zeta_1to1 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_permutation_recovery(seed):
    base = random_embedding(800, 12, seed=seed)
    perm = random_permutation(12, seed=seed + 50)
    spec = SynthSpec((perm,), noise_sigma=0.0, seed=seed)
    matching = one_to_one_score(correlation_matrix(derive_pair(base, spec)))
    assert matching.assignment.tolist() == spec.permutation.tolist()
    assert matching.zeta_1to1 == pytest.approx(1.0, abs=1e-9)


def test_matched_values_come_from_kappa():
    rng = np.random.default_rng(9)
    kappa = CorrelationMatrix(values=np.clip(rng.standard_normal((6, 6)) * 0.4, -1, 1))
    matching = one_to_one_score(kappa)
    expected = kappa.values[matching.assignment, np.arange(6)]
    assert np.array_equal(matching.matched_correlations, expected)
    assert matching.zeta_1to1 == pytest.approx(expected.mean(), abs=1e-12)


def test_zeta_at_least_mean_diagonal():
    rng = np.random.default_rng(10)
    for _ in range(20):
        kappa = CorrelationMatrix(
            values=np.clip(rng.standard_normal((7, 7)) * 0.4, -1, 1)
        )
        matching = one_to_one_score(kappa)
        assert matching.zeta_1to1 >= np.diag(kappa.values).mean() - 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), data=st.data())
def test_matching_follows_permutations_and_ignores_signs(seed, n, data):
    # a Gaussian grid has a unique optimum with probability 1, so the solver
    # has no tie to break and the assignment must move with the grid
    w = np.random.default_rng(seed).standard_normal((n, n))
    rows = np.array(data.draw(st.permutations(range(n)), label="rows"), dtype=np.intp)
    cols = np.array(data.draw(st.permutations(range(n)), label="cols"), dtype=np.intp)
    assignment, total = max_weight_assignment(w)
    moved, moved_total = max_weight_assignment(w[rows][:, cols])
    # column d of the moved grid is column cols[d] of w, matched to row
    # assignment[cols[d]] of w, which is row argsort(rows)[that] of the moved grid
    assert moved.tolist() == np.argsort(rows)[assignment[cols]].tolist()
    # the same n values summed in another order: each rounded sum is within
    # (n - 1) * eps/2 * sum|values| of the exact one
    bound = n * np.finfo(np.float64).eps * np.abs(w[assignment, np.arange(n)]).sum()
    assert abs(moved_total - total) <= bound

    kappa = CorrelationMatrix(values=np.tanh(w))
    signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
    row_signs, col_signs = np.array(data.draw(signs)), np.array(data.draw(signs))
    flipped = CorrelationMatrix(values=row_signs[:, None] * kappa.values * col_signs)
    before = one_to_one_score(kappa, use_abs=True)
    after = one_to_one_score(flipped, use_abs=True)
    assert after.assignment.tolist() == before.assignment.tolist()
    assert after.zeta_abs_1to1 == before.zeta_abs_1to1


def test_abs_mode_recovers_sign_flips():
    base = random_embedding(600, 10, seed=42)
    flip = random_sign_mask(10, seed=43)
    assert flip.mask.any()
    pair = derive_pair(base, SynthSpec((flip,), 0.0, seed=44))
    kappa = correlation_matrix(pair)

    signed = one_to_one_score(kappa)
    assert signed.zeta_1to1 < 1.0  # flipped dimensions correlate at -1

    absolute = one_to_one_score(kappa, use_abs=True)
    assert absolute.abs_objective
    assert absolute.assignment.tolist() == list(range(10))
    assert absolute.zeta_abs_1to1 == pytest.approx(1.0, abs=1e-9)
    # signed values still reported, with flips showing as -1
    flipped = absolute.matched_correlations[flip.mask]
    assert np.allclose(flipped, -1.0, atol=1e-9)


def test_monotone_noise_degradation():
    medians = []
    for sigma in (0.0, 0.5, 2.0):
        zetas = []
        for seed in range(5):
            base = random_embedding(1500, 10, seed=700 + seed)
            pair = derive_pair(base, SynthSpec((), noise_sigma=sigma, seed=800 + seed))
            zetas.append(one_to_one_score(correlation_matrix(pair)).zeta_1to1)
        medians.append(np.median(zetas))
    assert medians[0] >= medians[1] >= medians[2]


def test_matching_json_dict():
    kappa = CorrelationMatrix(values=np.array([[0.9, 0.1], [0.2, 0.8]]))
    matching = one_to_one_score(kappa)
    doc = json.loads(json.dumps(matching.to_json_dict()))
    assert doc["assignment"] == [0, 1]
    assert doc["zeta_1to1"] == pytest.approx(0.85)
