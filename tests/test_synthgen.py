import json

import numpy as np
import pytest

from embcompare import (
    align_vocabularies,
    cca_fit,
    correlation_matrix,
    one_to_one_score,
    random_embedding,
)
from embcompare.synthgen import (
    Linear,
    Permutation,
    SignFlip,
    SynthSpec,
    derive_pair,
    random_invertible,
    random_permutation,
    random_sign_mask,
)
from oracles import brute_force_assignment, correlation_matrix_naive


def test_same_seed_is_bit_identical():
    a = random_embedding(100, 8, seed=123)
    b = random_embedding(100, 8, seed=123)
    assert np.array_equal(a.values, b.values)
    assert a.vocab == b.vocab


def test_different_seeds_differ():
    a = random_embedding(100, 8, seed=1)
    b = random_embedding(100, 8, seed=2)
    assert not np.array_equal(a.values, b.values)


def test_vocabulary_format():
    e = random_embedding(3, 2, seed=0)
    assert e.vocab == ("w000001", "w000002", "w000003")


def test_column_means_concentrate():
    e = random_embedding(100_000, 10, seed=7)
    assert np.abs(e.values.mean(axis=0)).max() < 0.02


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        random_embedding(1, 5, seed=0)
    with pytest.raises(ValueError):
        random_embedding(10, 0, seed=0)
    for sigma in (-0.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite number >= 0"):
            SynthSpec(noise_sigma=sigma)


def test_transform_width_must_match_base():
    base = random_embedding(50, 5, seed=0)
    narrow = (
        Permutation(order=np.arange(3)),
        SignFlip(mask=np.ones(3, dtype=bool)),
        Linear(matrix=np.eye(3)),
    )
    for step in narrow:
        kind = type(step).__name__
        with pytest.raises(ValueError, match=rf"step 1 \({kind}\) is 3 wide but base has 5"):
            derive_pair(base, SynthSpec((Permutation(order=np.arange(5)), step)))
    with pytest.raises(ValueError, match=r"step 0 \(Linear\) is 7 wide but base has 5"):
        derive_pair(base, SynthSpec((Linear(matrix=np.eye(7)),)))
    with pytest.raises(ValueError, match=r"mask must be 1-D, got shape \(5, 5\)"):
        SignFlip(mask=np.ones((5, 5), dtype=bool))


def test_singular_mixing_matrix_rejected():
    with pytest.raises(ValueError, match="singular"):
        Linear(matrix=np.ones((3, 3)))


def test_identity_transform_closure():
    base = random_embedding(500, 6, seed=10)
    spec = SynthSpec()
    pair = derive_pair(base, spec)
    assert spec.noise_sigma == 0.0
    assert one_to_one_score(correlation_matrix(pair)).zeta_1to1 == pytest.approx(
        1.0, abs=1e-9
    )
    assert cca_fit(pair).zeta_cca == pytest.approx(1.0, abs=1e-6)


def test_permutation_closure():
    base = random_embedding(600, 9, seed=11)
    perm = random_permutation(9, seed=12)
    spec = SynthSpec((perm,))
    pair = derive_pair(base, spec)
    assert spec.permutation is not None
    matching = one_to_one_score(correlation_matrix(pair))
    assert matching.assignment.tolist() == spec.permutation.tolist()
    assert matching.zeta_1to1 == pytest.approx(1.0, abs=1e-9)


def test_sign_flip_closure_with_abs():
    base = random_embedding(600, 8, seed=13)
    flip = random_sign_mask(8, seed=14)
    spec = SynthSpec((flip,))
    pair = derive_pair(base, spec)
    assert spec.sign_mask is not None
    matching = one_to_one_score(correlation_matrix(pair), use_abs=True)
    assert matching.zeta_abs_1to1 == pytest.approx(1.0, abs=1e-9)


def test_linear_closure():
    base = random_embedding(2000, 5, seed=15)
    mix = random_invertible(5, seed=16)
    spec = SynthSpec((mix,))
    pair = derive_pair(base, spec)
    assert spec.mixing is not None

    result = cca_fit(pair, regularization=0.0)
    assert np.allclose(result.correlations, 1.0, atol=1e-6)

    # the one-to-one score is generally below 1 for mixed columns; it must
    # agree with the naive-correlation + enumeration oracle
    matching = one_to_one_score(correlation_matrix(pair))
    naive = correlation_matrix_naive(pair.left.values, pair.right.values)
    perm, total = brute_force_assignment(naive)
    assert matching.zeta_1to1 < 1.0 - 1e-3
    assert matching.zeta_1to1 == pytest.approx(total / 5, abs=1e-9)
    assert tuple(matching.assignment.tolist()) == perm


def test_composed_transforms_apply_in_order():
    base = random_embedding(300, 4, seed=17)
    perm = Permutation(order=np.array([1, 0, 3, 2]))
    flip = SignFlip(mask=np.array([True, False, False, False]))
    spec = SynthSpec((perm, flip))
    pair = derive_pair(base, spec)
    expected = base.values[:, [1, 0, 3, 2]] * np.array([-1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(pair.right.values, expected)
    assert len(spec.to_json_dict()["steps"]) == 2


def test_noise_stream_is_deterministic_and_separate():
    base = random_embedding(200, 5, seed=18)
    pair_a = derive_pair(base, SynthSpec((), 0.5, seed=99))
    pair_b = derive_pair(base, SynthSpec((), 0.5, seed=99))
    assert np.array_equal(pair_a.right.values, pair_b.right.values)
    # the noise must not replay the base draw even with the same seed
    pair_c = derive_pair(base, SynthSpec((), 0.5, seed=18))
    noise = pair_c.right.values - base.values
    assert not np.allclose(noise / 0.5, base.values)


def test_noise_ordering():
    medians = []
    for sigma in (0.1, 1.0):
        zetas = []
        for seed in range(5):
            base = random_embedding(1000, 8, seed=300 + seed)
            pair = derive_pair(base, SynthSpec((), sigma, seed=400 + seed))
            zetas.append(cca_fit(pair).zeta_cca)
        medians.append(np.median(zetas))
    assert medians[0] >= medians[1]


def test_ground_truth_json():
    mix = random_invertible(3, seed=21)
    doc = json.loads(SynthSpec((mix,), 0.25, seed=22).to_json())
    assert doc["noise_sigma"] == 0.25
    assert doc["seed"] == 22
    assert doc["steps"][0]["kind"] == "linear"
    assert np.allclose(np.array(doc["steps"][0]["matrix"]), mix.matrix)


def test_pair_left_is_base():
    base = random_embedding(50, 3, seed=23)
    pair = derive_pair(base, SynthSpec())
    assert pair.left is base
    assert pair.shared_count == 50


def test_permutation_validation():
    with pytest.raises(ValueError, match="permutation"):
        Permutation(order=np.array([0, 0, 1]))
