"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every tolerance is pinned here; none are calibrated at runtime.
"""
import functools
import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from embcompare import (
    align_vocabularies,
    answer_question,
    cca_fit,
    correlation_matrix,
    evaluate,
    krippendorff_alpha,
    max_weight_assignment,
    one_to_one_score,
    random_embedding,
    row_normalize,
)
from embcompare.analogy_eval import AnalogyQuestion
from embcompare.synthgen import (
    SynthSpec,
    derive_pair,
    random_invertible,
    random_permutation,
)
from helpers import exclusion_fixture, grid_fixture
from oracles import alpha_coincidence_matrix, cosine_ranking, reference_cca_correlations

NOISE_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {label}: PASS", flush=True)
            return result

        return inner

    return wrap


@criterion("01 matching optimality vs brute force")
def test_criterion_01_matching_optimality():
    start = time.perf_counter()
    for n in (5, 6, 7):
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        cols = np.arange(n)
        rng = np.random.default_rng(n * 1000)
        for _ in range(100):
            w = rng.standard_normal((n, n))
            assignment, total = max_weight_assignment(w)
            brute = w[perms, cols].sum(axis=1).max()
            assert total == brute
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion("02 permutation recovery at 5000x50")
def test_criterion_02_permutation_recovery():
    for seed in range(20):
        base = random_embedding(5000, 50, seed=seed)
        perm = random_permutation(50, seed=seed + 10_000)
        spec = SynthSpec((perm,), noise_sigma=0.0, seed=seed)
        matching = one_to_one_score(correlation_matrix(derive_pair(base, spec)))
        assert matching.assignment.tolist() == spec.permutation.tolist()
        assert abs(matching.zeta_1to1 - 1.0) <= 1e-9


@criterion("03 CCA invariance under invertible mixing")
def test_criterion_03_cca_invariance():
    for seed in range(20):
        base = random_embedding(5000, 50, seed=seed)
        mix = random_invertible(50, seed=seed + 20_000)
        pair = derive_pair(base, SynthSpec((mix,), 0.0, seed=seed))
        result = cca_fit(pair)  # default regularization
        assert result.k == 50
        assert np.abs(result.correlations - 1.0).max() <= 1e-6
        assert abs(result.zeta_cca - 1.0) <= 1e-6


@criterion("04 CCA matches independent reference oracle")
def test_criterion_04_cca_cross_check():
    for seed in range(5):
        left = random_embedding(10_000, 20, seed=seed + 30_000)
        right = random_embedding(10_000, 20, seed=seed + 40_000)
        pair = align_vocabularies(left, right)
        result = cca_fit(pair, regularization=0.0)
        oracle = reference_cca_correlations(left.values, right.values)
        assert result.correlations.shape == oracle.shape
        assert np.abs(result.correlations - oracle).max() <= 1e-6


@criterion("05 relaxation ordering zeta_cca >= zeta_1to1")
def test_criterion_05_relaxation_ordering():
    # suite scale note: with many dimensions relative to rows the sample
    # estimates can flip this ordering by far more than float jitter
    # (the matching runs on diagonally normalized correlations, CCA on
    # covariance-whitened ones); at 10000x10 the ordering holds with the
    # 1e-6 slack absorbing residual sampling noise
    transforms = {
        "identity": lambda seed: (),
        "permutation": lambda seed: (random_permutation(10, seed),),
        "linear": lambda seed: (random_invertible(10, seed),),
    }
    for name, build in transforms.items():
        for sigma in NOISE_GRID[1:]:
            for seed in range(4):
                base = random_embedding(10_000, 10, seed=seed + 50_000)
                pair = derive_pair(base, SynthSpec(build(seed + 60_000), sigma, seed=seed))
                zeta_one = one_to_one_score(correlation_matrix(pair)).zeta_1to1
                zeta_many = cca_fit(pair, regularization=0.0).zeta_cca
                assert zeta_many >= zeta_one - 1e-6, (name, sigma, seed)


@criterion("06 random-baseline scores stay near zero")
def test_criterion_06_random_baseline():
    for seed in range(10):
        left = random_embedding(10_000, 50, seed=seed + 70_000)
        right = random_embedding(10_000, 50, seed=seed + 80_000)
        pair = align_vocabularies(left, right)
        zeta_one = one_to_one_score(correlation_matrix(pair)).zeta_1to1
        assert zeta_one < 0.1
        oracle_mean = reference_cca_correlations(left.values, right.values).mean()
        zeta_many = cca_fit(pair).zeta_cca
        assert zeta_many <= oracle_mean + 0.02


@criterion("07 alpha equals hand-computed oracles")
def test_criterion_07_krippendorff_alpha():
    fixtures = [
        # (run a, run b, exact alpha from the coincidence-matrix arithmetic)
        (("X", "Y"), ("X", "Y"), Fraction(1)),  # perfect agreement
        (("X", "X", "Y", "Y"), ("X", "Y", "Y", "Y"), Fraction(8, 15)),
        (("X", "Y"), ("Y", "X"), Fraction(-1, 2)),
        (("X", "X", "X", "Y"), ("X", "X", "X", "X"), Fraction(0)),
        (("X", "Y", "Z", "X"), ("X", "Z", "Z", "X"), Fraction(12, 19)),
        (("X", "X"), ("X", "X"), Fraction(1)),  # degenerate: one label only
        (("X", None, "Y"), ("X", "X", "Y"), Fraction(1)),  # skip excluded
    ]
    for a, b, expected in fixtures:
        assert alpha_coincidence_matrix(a, b) == expected
        got = krippendorff_alpha(list(a), list(b)).alpha
        assert abs(got - float(expected)) <= 1e-12, (a, b)


@criterion("08 analogy accuracy and query-word exclusion")
def test_criterion_08_analogy_correctness():
    emb, questions = grid_fixture()
    report = evaluate(emb, questions)
    assert report.total.accuracy == 1.0
    assert report.total.answered == len(questions)

    emb, question, expected = exclusion_fixture()
    target = (
        emb.values[emb.index[question.b]]
        - emb.values[emb.index[question.a]]
        + emb.values[emb.index[question.c]]
    )
    ranking = [emb.vocab[i] for i in cosine_ranking(emb.values, target)]
    assert ranking[0] == question.c  # the unexcluded argmax would be c
    unit, _ = row_normalize(emb)
    assert answer_question(unit, question).predicted == expected


@criterion("09 monotone noise response")
def test_criterion_09_monotone_noise():
    one_medians, cca_medians = [], []
    for sigma in NOISE_GRID:
        ones, manys = [], []
        for seed in range(20):
            base = random_embedding(2000, 20, seed=1000 + seed)
            pair = derive_pair(base, SynthSpec((), sigma, seed=2000 + seed))
            kappa = correlation_matrix(pair)
            ones.append(one_to_one_score(kappa).zeta_1to1)
            manys.append(cca_fit(pair, regularization=0.0).zeta_cca)
        one_medians.append(np.median(ones))
        cca_medians.append(np.median(manys))
    assert all(a >= b for a, b in zip(one_medians, one_medians[1:])), one_medians
    assert all(a >= b for a, b in zip(cca_medians, cca_medians[1:])), cca_medians

    alpha_medians = []
    for sigma in NOISE_GRID:
        alphas = []
        for seed in range(20):
            base = random_embedding(300, 25, seed=3000 + seed)
            rng = np.random.Generator(np.random.Philox(4000 + seed))
            questions = [
                AnalogyQuestion(
                    a=base.vocab[i], b=base.vocab[j], c=base.vocab[k],
                    d=base.vocab[m], category="synthetic",
                )
                for i, j, k, m in (
                    rng.choice(300, size=4, replace=False) for _ in range(150)
                )
            ]
            pair = derive_pair(base, SynthSpec((), sigma, seed=5000 + seed))
            base_answers = [r.predicted for r in evaluate(base, questions).answers]
            noisy_answers = [
                r.predicted for r in evaluate(pair.right, questions).answers
            ]
            alphas.append(krippendorff_alpha(base_answers, noisy_answers).alpha)
        alpha_medians.append(np.median(alphas))
    assert all(a >= b for a, b in zip(alpha_medians, alpha_medians[1:])), alpha_medians


@criterion("10 byte-identical reports across thread counts")
def test_criterion_10_determinism(tmp_path):
    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "embcompare", *map(str, argv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    cli(
        "synth", "--rows", "600", "--dims", "12", "--seed", "9",
        "--transform", "linear", "--sigma", "0.4",
        "--out-left", left, "--out-right", right,
    )
    reports = []
    for threads in ("1", "8"):
        out = tmp_path / f"report_{threads}.json"
        cli(
            "compare", left, right, "--no-timestamp", "--kde",
            "--threads", threads, "--out", out,
        )
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    json.loads(reports[0])  # well-formed JSON


@criterion("11 full-scale smoke test within budget")
def test_criterion_11_scale_smoke():
    start = time.perf_counter()
    left = random_embedding(400_000, 300, seed=90_000)
    right = random_embedding(400_000, 300, seed=90_001)
    pair = align_vocabularies(left, right)
    kappa = correlation_matrix(pair)
    assert kappa.values.shape == (300, 300)
    matching = one_to_one_score(kappa)
    assert matching.zeta_1to1 < 0.1  # independent runs: near-zero baseline
    result = cca_fit(pair)
    assert result.k == 300
    assert np.isfinite(result.zeta_cca)
    assert result.zeta_cca >= matching.zeta_1to1 - 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
