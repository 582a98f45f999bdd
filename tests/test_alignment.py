import json

import numpy as np
import pytest

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
from helpers import make_embedding
from oracles import brute_force_assignment, lexicographic_assignment_by_fixing


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
    pair, truth = derive_pair(
        base, SynthSpec(800, 12, (perm,), noise_sigma=0.0, seed=seed)
    )
    matching = one_to_one_score(correlation_matrix(pair))
    assert matching.assignment.tolist() == truth.permutation.tolist()
    assert matching.zeta_1to1 == pytest.approx(1.0, abs=1e-9)


def test_matched_values_come_from_kappa():
    rng = np.random.default_rng(9)
    kappa = CorrelationMatrix(values=np.clip(rng.standard_normal((6, 6)) * 0.4, -1, 1))
    matching = one_to_one_score(kappa)
    expected = kappa.values[matching.assignment, np.arange(6)]
    assert np.array_equal(matching.matched_correlations, expected)
    assert matching.zeta_1to1 == pytest.approx(expected.mean(), abs=1e-12)
    assert np.all(np.diff(matching.sorted_matched()) <= 0)


def test_zeta_at_least_mean_diagonal():
    rng = np.random.default_rng(10)
    for _ in range(20):
        kappa = CorrelationMatrix(
            values=np.clip(rng.standard_normal((7, 7)) * 0.4, -1, 1)
        )
        matching = one_to_one_score(kappa)
        assert matching.zeta_1to1 >= np.diag(kappa.values).mean() - 1e-12


def test_abs_mode_recovers_sign_flips():
    base = random_embedding(600, 10, seed=42)
    flip = random_sign_mask(10, seed=43)
    assert flip.mask.any()
    pair, _ = derive_pair(base, SynthSpec(600, 10, (flip,), 0.0, seed=44))
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
            pair, _ = derive_pair(
                base, SynthSpec(1500, 10, (), noise_sigma=sigma, seed=800 + seed)
            )
            zetas.append(one_to_one_score(correlation_matrix(pair)).zeta_1to1)
        medians.append(np.median(zetas))
    assert medians[0] >= medians[1] >= medians[2]


def test_matching_json_and_csv(tmp_path):
    kappa = CorrelationMatrix(values=np.array([[0.9, 0.1], [0.2, 0.8]]))
    matching = one_to_one_score(kappa)
    doc = json.loads(json.dumps(matching.to_json_dict()))
    assert doc["assignment"] == [0, 1]
    assert doc["zeta_1to1"] == pytest.approx(0.85)

    csv_path = tmp_path / "matched.csv"
    matching.write_matched_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "rank,correlation"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == 0.9
