import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embcompare import (
    AlignedPair,
    EmbeddingMatrix,
    align_vocabularies,
    cca_fit,
    correlation_matrix,
)
from embcompare.alignment import one_to_one_score
from embcompare.cca import CcaResult, NumericalError
from embcompare.synthgen import (
    SynthSpec,
    derive_pair,
    random_embedding,
    random_invertible,
    random_permutation,
    random_sign_mask,
)
from helpers import make_embedding
from oracles import reference_cca_correlations


def _self_pair(e):
    return align_vocabularies(e, e)


def test_self_pair_all_correlations_one():
    e = random_embedding(400, 12, seed=1)
    result = cca_fit(_self_pair(e))
    assert result.k == 12
    assert np.allclose(result.correlations, 1.0, atol=1e-6)
    assert result.zeta_cca == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_invertible_mixing_keeps_correlations_one(seed):
    base = random_embedding(1000, 15, seed=seed)
    mix = random_invertible(15, seed=seed + 30)
    pair = derive_pair(base, SynthSpec((mix,), 0.0, seed=seed))
    result = cca_fit(pair)
    assert np.allclose(result.correlations, 1.0, atol=1e-6)
    assert result.zeta_cca == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_matches_qr_reference_oracle(seed):
    left = random_embedding(2000, 15, seed=900 + seed)
    right = random_embedding(2000, 15, seed=950 + seed)
    pair = align_vocabularies(left, right)
    result = cca_fit(pair, regularization=0.0)
    oracle = reference_cca_correlations(left.values, right.values)
    assert np.allclose(result.correlations, oracle, atol=1e-6)


# Reordering rows changes only the order of the covariance sums (within and
# across the 2048-row chunks), so both scores move by rounding alone: under
# 1e-15 on pairs of up to 5000 x 12.
REORDER_TOL = 1e-12


@settings(max_examples=25, deadline=None)
@given(
    n_rows=st.integers(200, 5000),
    n_dims=st.integers(2, 12),
    sigma=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**20),
)
def test_scores_invariant_under_shared_row_reordering(n_rows, n_dims, sigma, seed):
    base = random_embedding(n_rows, n_dims, seed=seed)
    spec = SynthSpec(
        (random_permutation(n_dims, seed + 1), random_sign_mask(n_dims, seed + 2)),
        sigma,
        seed=seed + 3,
    )
    pair = derive_pair(base, spec)
    order = np.random.default_rng(seed).permutation(n_rows)

    def reordered(e):
        return EmbeddingMatrix(tuple(e.vocab[i] for i in order), e.values[order], e.name)

    shuffled = AlignedPair(left=reordered(pair.left), right=reordered(pair.right))
    before = one_to_one_score(correlation_matrix(pair), use_abs=True)
    after = one_to_one_score(correlation_matrix(shuffled), use_abs=True)
    assert after.assignment.tolist() == before.assignment.tolist()
    assert after.zeta_1to1 == pytest.approx(before.zeta_1to1, abs=REORDER_TOL)
    assert after.zeta_abs_1to1 == pytest.approx(before.zeta_abs_1to1, abs=REORDER_TOL)
    assert cca_fit(shuffled).zeta_cca == pytest.approx(
        cca_fit(pair).zeta_cca, abs=REORDER_TOL
    )


def _ridge_bias_bound(pair, result):
    """How far the ridge can pull the correlations below their unridged
    values: each side's ridge r shrinks them by a factor of at least
    1 - r / (2 * lambda_min) of that side's auto-covariance."""
    dx = pair.left.n_dims
    cov = pair.covariance
    return sum(
        ridge / (2.0 * np.linalg.eigvalsh(block).min())
        for ridge, block in (
            (result.regularization_left, cov[:dx, :dx]),
            (result.regularization_right, cov[dx:, dx:]),
        )
    )


def _max_condition(pair):
    dx = pair.left.n_dims
    cov = pair.covariance
    return max(np.linalg.cond(cov[:dx, :dx]), np.linalg.cond(cov[dx:, dx:]))


# Without a ridge, mixing moves the correlations by rounding alone: at most
# 1.8 * cond * eps over 1500 random pairs of up to 3000 x 12, where cond is
# the largest condition number of the four auto-covariances (up to 1.6e8).
MIXING_ROUNDING = 10.0 * np.finfo(np.float64).eps


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(200, 3000),
    n_dims=st.integers(2, 12),
    sigma=st.floats(0.0, 1.0),
    mixed_side=st.sampled_from(["left", "right", "both"]),
    seed=st.integers(0, 2**20),
)
def test_correlations_invariant_under_invertible_mixing(
    n_rows, n_dims, sigma, mixed_side, seed
):
    pair = derive_pair(
        random_embedding(n_rows, n_dims, seed=seed),
        SynthSpec((random_invertible(n_dims, seed + 1),), sigma, seed=seed + 2),
    )

    def mixed(e, mix_seed):
        values = random_invertible(n_dims, mix_seed).apply(e.values)
        return EmbeddingMatrix(e.vocab, values, e.name)

    left, right = pair.left, pair.right
    if mixed_side in ("left", "both"):
        left = mixed(left, seed + 3)
    if mixed_side in ("right", "both"):
        right = mixed(right, seed + 4)
    remixed = AlignedPair(left=left, right=right)

    before, after = cca_fit(pair), cca_fit(remixed)
    assert after.k == before.k == n_dims
    tolerance = (
        _ridge_bias_bound(pair, before)
        + _ridge_bias_bound(remixed, after)
        + MIXING_ROUNDING * max(_max_condition(pair), _max_condition(remixed))
    )
    assert np.abs(after.correlations - before.correlations).max() <= tolerance


def test_rectangular_pair_supported():
    rng = np.random.default_rng(7)
    left = make_embedding(rng.standard_normal((300, 8)), name="L")
    right = make_embedding(rng.standard_normal((300, 5)), name="R")
    result = cca_fit(align_vocabularies(left, right))
    assert result.k == 5
    oracle = reference_cca_correlations(left.values, right.values)
    assert np.allclose(result.correlations, oracle, atol=1e-6)


def test_exchange_symmetry():
    left = random_embedding(800, 10, seed=20)
    right = random_embedding(800, 10, seed=21)
    forward = cca_fit(align_vocabularies(left, right), regularization=0.0)
    backward = cca_fit(align_vocabularies(right, left), regularization=0.0)
    assert np.allclose(forward.correlations, backward.correlations, atol=1e-9)


@pytest.mark.parametrize("scalar", [0.5, 2.0])
def test_scale_invariance(scalar):
    left = random_embedding(600, 8, seed=30)
    right = random_embedding(600, 8, seed=31)
    scaled = make_embedding(scalar * right.values, vocab=right.vocab)
    base_zero = cca_fit(align_vocabularies(left, right), regularization=0.0)
    scaled_zero = cca_fit(align_vocabularies(left, scaled), regularization=0.0)
    assert np.allclose(base_zero.correlations, scaled_zero.correlations, atol=1e-9)

    base_auto = cca_fit(align_vocabularies(left, right))
    scaled_auto = cca_fit(align_vocabularies(left, scaled))
    assert np.allclose(base_auto.correlations, scaled_auto.correlations, atol=1e-6)


def test_leading_correlation_dominates_kappa():
    left = random_embedding(500, 9, seed=40)
    right = random_embedding(500, 9, seed=41)
    pair = align_vocabularies(left, right)
    kappa = correlation_matrix(pair)
    result = cca_fit(pair, regularization=0.0)
    assert result.correlations[0] >= np.abs(kappa.values).max() - 1e-6


@pytest.mark.parametrize("sigma", [0.2, 1.0, 3.0])
def test_cca_relaxes_one_to_one(sigma):
    base = random_embedding(1200, 12, seed=50)
    pair = derive_pair(base, SynthSpec((), sigma, seed=51))
    zeta_one = one_to_one_score(correlation_matrix(pair)).zeta_1to1
    result = cca_fit(pair, regularization=0.0)
    assert result.zeta_cca >= zeta_one - 1e-6


def test_result_validation():
    with pytest.raises(ValueError, match="descending"):
        CcaResult(
            correlations=np.array([0.1, 0.9]),
            regularization_left=0.0,
            regularization_right=0.0,
        )
    with pytest.raises(ValueError, match="outside"):
        CcaResult(
            correlations=np.array([1.5]),
            regularization_left=0.0,
            regularization_right=0.0,
        )


def test_singular_covariance_at_zero_ridge_errors():
    rng = np.random.default_rng(70)
    col = rng.standard_normal(200)
    values = np.column_stack([col, col, rng.standard_normal(200)])
    dup = make_embedding(values, name="dup")
    other = make_embedding(rng.standard_normal((200, 3)), name="ok")
    with pytest.raises(NumericalError, match="positive ridge"):
        cca_fit(align_vocabularies(dup, other), regularization=0.0)
    # the default relative ridge handles the same pair by dropping the
    # null direction of the duplicated column
    with pytest.warns(UserWarning, match="dropping"):
        result = cca_fit(align_vocabularies(dup, other))
    assert result.k == 2
    # an explicit ridge well above the null eigenvalue keeps all directions
    assert cca_fit(align_vocabularies(dup, other), regularization=1e-6).k == 3


def test_tiny_ridge_drops_null_directions():
    rng = np.random.default_rng(71)
    col = rng.standard_normal(300)
    values = np.column_stack([col, col, rng.standard_normal(300)])
    dup = make_embedding(values, name="dup")
    other = make_embedding(rng.standard_normal((300, 3)), name="ok")
    with pytest.warns(UserWarning, match="dropping"):
        result = cca_fit(align_vocabularies(dup, other), regularization=1e-300)
    assert result.k == 2


def test_warns_when_rows_do_not_exceed_dims():
    rng = np.random.default_rng(72)
    left = make_embedding(rng.standard_normal((6, 8)), name="wide")
    right = make_embedding(rng.standard_normal((6, 8)), name="wide2")
    # 6 rows cannot support 8 dimensions; the rank-deficient covariance
    # also triggers the direction-drop warning
    with pytest.warns(UserWarning) as records:
        cca_fit(align_vocabularies(left, right))
    messages = [str(r.message) for r in records]
    assert any("unreliable" in m for m in messages)
    assert any("dropping" in m for m in messages)


def test_negative_regularization_rejected():
    e = random_embedding(50, 4, seed=73)
    for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite number >= 0"):
            cca_fit(_self_pair(e), regularization=bad)


def test_json_serialization():
    e = random_embedding(300, 5, seed=74)
    result = cca_fit(_self_pair(e), regularization=0.25)
    doc = json.loads(json.dumps(result.to_json_dict()))
    assert doc["k"] == 5
    assert doc["regularization"] == 0.25
    assert len(doc["correlations"]) == 5
    assert doc["zeta_cca"] == pytest.approx(np.mean(doc["correlations"]))
