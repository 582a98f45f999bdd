import json
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embcompare import (
    AlignedPair,
    NumericalError,
    align_vocabularies,
    cca_fit,
    correlation_matrix,
    histogram,
)
from embcompare import cca, embedding_io
from embcompare.column_stats import KDE_POINTS, CorrelationMatrix
from embcompare.embedding_io import EmbeddingMatrix
from embcompare.embedding_io import _COVARIANCE_CHUNK
from embcompare.synthgen import random_embedding
from helpers import blas_threads_at, make_embedding, needs_blas_pin, run_python
from oracles import aligned, correlation_matrix_naive, gaussian_kde_scipy, moments_by_copy


def _pair(left_values, right_values):
    return align_vocabularies(
        make_embedding(left_values, name="L"), make_embedding(right_values, name="R")
    )


@pytest.mark.parametrize(
    "rows",
    [2, _COVARIANCE_CHUNK - 1, _COVARIANCE_CHUNK, _COVARIANCE_CHUNK + 1,
     2 * _COVARIANCE_CHUNK + 3],
)
def test_covariance_matches_numpy(rows):
    rng = np.random.default_rng(rows)
    left = rng.standard_normal((rows, 3)) + 5.0
    right = rng.standard_normal((rows, 4)) * 2.0 - 1.0
    expected = np.cov(np.hstack([left, right]).T, bias=True)
    assert np.allclose(_pair(left, right).covariance, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "scale_left, scale_right, problem",
    [
        (1e160, 1e160, "left covariance overflows float64"),
        (1e160, 1.0, "left covariance overflows float64"),
        (1.0, 1e160, "right covariance overflows float64"),
        # 40 positive values near 2e307 sum past the float64 maximum
        (2e307, 1.0, "left column sums overflow float64"),
    ],
    ids=["both", "left", "right", "sums"],
)
def test_covariance_overflow_is_a_numerical_error(scale_left, scale_right, problem):
    # numpy's overflow warnings are errors here, so none may come first
    rng = np.random.default_rng(8)
    values = 1.0 + np.abs(rng.standard_normal((40, 3)))
    pair = _pair(values * scale_left, values[:, ::-1] * scale_right)
    with pytest.raises(NumericalError, match=problem):
        correlation_matrix(pair)
    with pytest.raises(NumericalError, match=problem):
        cca_fit(pair)
    assert cca.NumericalError is NumericalError


# sha256 of the covariance and of the CCA correlations of a seeded pair of
# n x d sides; with "serial", the BLAS lookup finds nothing, so nothing is
# pinned and the chunks run in turn; with "oversubscribed", the pair is
# compared at 4 and then at 8 BLAS threads, set at run time, where
# OPENBLAS_NUM_THREADS would be capped at the core count.  The inputs need
# no BLAS to make.
_BITS_PROBE = (
    "import hashlib, sys\n"
    "import numpy as np\n"
    "from embcompare import align_vocabularies, cca_fit, embedding_io\n"
    "from embcompare.embedding_io import EmbeddingMatrix\n"
    "n, d, route = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]\n"
    "if route == 'serial':\n"
    "    embedding_io._blas_threads = lambda: None\n"
    "rng = np.random.default_rng(3)\n"
    "base = rng.standard_normal((n, d))\n"
    "mixed = np.roll(base, 1, axis=1) * 2.0 + 0.5 * rng.standard_normal((n, d))\n"
    "vocab = tuple(f'w{i}' for i in range(n))\n"
    "for threads in [4, 8] if route == 'oversubscribed' else [None]:\n"
    "    if threads:\n"
    "        get, set_ = embedding_io._blas_threads()\n"
    "        set_(threads)\n"
    "        assert get() == threads, get()\n"
    "    pair = align_vocabularies(EmbeddingMatrix(vocab, base), EmbeddingMatrix(vocab, mixed))\n"
    "    for bits in (pair.covariance, cca_fit(pair).correlations):\n"
    "        print(hashlib.sha256(bits.tobytes()).hexdigest())\n"
)


@needs_blas_pin
@pytest.mark.parametrize("dims", [50, 151])
def test_covariance_and_cca_bits_do_not_depend_on_blas_threads(dims):
    # on 2 threads, BLAS's own split of the 100- and 302-column products moved
    # the covariance's last bits, and eigh's moved CCA's
    one, two = (
        run_python(_BITS_PROBE, 10000, dims, "pinned", blas_threads=threads)
        for threads in (1, 2)
    )
    assert one == two


@needs_blas_pin
@pytest.mark.parametrize("dims", [50, 151])
def test_covariance_and_cca_bits_at_more_blas_threads_than_cores(dims):
    # the pass runs its two tasks and CCA its one thread at 4 and 8 BLAS
    # threads too, whatever the core count
    one = run_python(_BITS_PROBE, 10000, dims, "pinned", blas_threads=1)
    assert run_python(_BITS_PROBE, 10000, dims, "oversubscribed") == one * 2


@needs_blas_pin
def test_serial_path_gives_the_one_thread_bits():
    # where no BLAS thread count can be set, the pass runs its chunks in turn;
    # on one BLAS thread that gives the bits the pinned tasks give on two
    serial = run_python(_BITS_PROBE, 10000, 151, "serial", blas_threads=1)
    assert serial == run_python(_BITS_PROBE, 10000, 151, "pinned", blas_threads=2)


def _spy_on_products(monkeypatch, blas_threads, fail_at=None):
    """Record ``(BLAS threads, thread id)`` in every task of the covariance
    pass; the task for chunk ``fail_at`` raises instead."""
    seen = []
    product = AlignedPair._product

    def spy(pair, start, *args):
        seen.append((blas_threads(), threading.get_ident()))
        if start == fail_at:
            raise RuntimeError("task failed")
        return product(pair, start, *args)

    monkeypatch.setattr(AlignedPair, "_product", spy)
    return seen


@pytest.mark.parametrize("blas_count", [2, 8])
def test_moments_pass_runs_one_thread_tasks_and_restores_the_count(monkeypatch, blas_count):
    # two tasks on any BLAS thread count, switching threads every
    # microsecond: a chunk read into a buffer still in use would move the
    # covariance's bits
    rng = np.random.default_rng(10)
    a, b = _partial_pair(rng, 6 * _COVARIANCE_CHUNK + 5, 120, 80, extra_left=7, extra_right=11)
    with blas_threads_at(1):
        expected = align_vocabularies(a, b).covariance  # the chunks in turn
    running, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blas_threads_at(blas_count) as blas_threads:
            seen = _spy_on_products(monkeypatch, blas_threads)
            pair = align_vocabularies(a, b)
            correlation_matrix(pair)
            assert blas_threads() == blas_count
    finally:
        sys.setswitchinterval(interval)
    assert pair.covariance.tobytes() == expected.tobytes()
    assert [threads for threads, _ in seen] == [1] * 7
    tasks = {ident for _, ident in seen}
    assert threading.get_ident() not in tasks and len(tasks) <= 2
    assert threading.active_count() == running  # the pool is joined


@needs_blas_pin
def test_pinned_blocks_restore_the_count_when_the_last_one_closes():
    # blocks that nest or overlap in two threads stay on one thread until
    # the last of them closes, whichever thread opened the first, and each
    # yields the count from before the first
    get = embedding_io._blas_threads()[0]
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def second():
        first_in.wait()
        with embedding_io._one_blas_thread() as threads:
            second_in.set()
            first_out.wait()
            seen.append((threads, get()))

    with blas_threads_at(2):
        other = threading.Thread(target=second)
        other.start()
        with embedding_io._one_blas_thread() as threads:
            with embedding_io._one_blas_thread() as inner:
                seen.append((inner, get()))
            seen.append((threads, get()))
            first_in.set()
            second_in.wait()
        seen.append((None, get()))  # the other thread's block is still open
        first_out.set()
        other.join()
        seen.append((None, get()))
    assert seen == [(2, 1), (2, 1), (None, 1), (2, 1), (None, 2)]


def test_moments_pass_restores_the_count_when_it_raises(monkeypatch):
    # two chunks, so the products that overflow are made in pool threads,
    # where numpy's overflow warnings (errors here) must stay off too
    rng = np.random.default_rng(11)
    values = 1.0 + np.abs(rng.standard_normal((_COVARIANCE_CHUNK + 40, 3)))
    running = threading.active_count()
    with blas_threads_at(2) as blas_threads:
        with pytest.raises(NumericalError, match="left covariance overflows"):
            correlation_matrix(_pair(values * 1e160, values))
        assert blas_threads() == 2
        # a task that fails inside the pool
        _spy_on_products(monkeypatch, blas_threads, fail_at=_COVARIANCE_CHUNK)
        a, b = _partial_pair(rng, 3 * _COVARIANCE_CHUNK, 3, 3, 0, 0)
        with pytest.raises(RuntimeError, match="task failed"):
            correlation_matrix(align_vocabularies(a, b))
        assert blas_threads() == 2
    assert threading.active_count() == running


def test_kappa_and_cca_share_one_covariance_pass(monkeypatch):
    calls = []
    build = AlignedPair.covariance.func

    def counting(pair):
        calls.append(pair)
        return build(pair)

    monkeypatch.setattr(AlignedPair.covariance, "func", counting)
    rng = np.random.default_rng(9)
    pair = _pair(rng.standard_normal((50, 4)), rng.standard_normal((50, 3)))
    correlation_matrix(pair)
    cca_fit(pair)
    assert len(calls) == 1


def _partial_pair(rng, n, dx, dy, extra_left, extra_right):
    """Sources sharing ``n`` words: each side has dropped words of its own
    at random rows, and the right side lists its words in a shuffled order.
    Values sit on a large offset, so a change in summation order shows."""
    shared = [f"s{i}" for i in range(n)]
    vocabs = (
        shared + [f"l{i}" for i in range(extra_left)],
        shared + [f"r{i}" for i in range(extra_right)],
    )
    sources = []
    for vocab, d, name in ((vocabs[0], dx, "L"), (vocabs[1], dy, "R")):
        order = rng.permutation(len(vocab))
        values = rng.standard_normal((len(vocab), d)) * 1e3 + rng.standard_normal(d) * 1e6
        sources.append(EmbeddingMatrix(tuple(vocab[i] for i in order), values, name))
    return sources


def _identical_pair(rng, n, dx, dy):
    """Sources over equal vocabulary tuples, in one order."""
    a, b = _partial_pair(rng, n, dx, dy, 0, 0)
    return a, EmbeddingMatrix(tuple(list(a.vocab)), b.values, b.name)


def _assert_moments_as_by_copy(a, b):
    _, x, y = aligned(a, b)
    cov, constant = moments_by_copy(x, y, _COVARIANCE_CHUNK)
    pair = align_vocabularies(a, b)
    assert pair.covariance.tobytes() == cov.tobytes()
    assert pair.constant_columns.tolist() == constant.tolist()
    assert pair.left is a and pair.right is b  # the inputs, never copies
    return pair


@pytest.mark.parametrize(
    "n", [1, 2, _COVARIANCE_CHUNK - 1, _COVARIANCE_CHUNK, _COVARIANCE_CHUNK + 1,
          3 * _COVARIANCE_CHUNK + 5],
)
def test_covariance_by_index_is_bitwise_the_copy_route(n):
    rng = np.random.default_rng(n)
    a, b = _partial_pair(rng, n, 5, 4, extra_left=7, extra_right=11)
    _assert_moments_as_by_copy(a, b)
    # the same words in both orders, so nothing is dropped
    _assert_moments_as_by_copy(*_partial_pair(rng, n, 3, 3, 0, 0))
    # the same words in one order, with a one-column side
    _assert_moments_as_by_copy(*_identical_pair(rng, n, 4, 1))


def test_constant_columns_are_read_over_the_shared_rows_only():
    rng = np.random.default_rng(5)
    a, b = _partial_pair(rng, 3000, 4, 3, extra_left=9, extra_right=5)
    shared = np.array([w.startswith("s") for w in a.vocab])
    left = a.values.copy()
    left[:, 0] = -0.0  # mean 0.0, and every centred entry stays -0.0
    left[:, 2] = np.where(shared, 3.5, 7.0)  # constant only where shared
    a = EmbeddingMatrix(a.vocab, left, a.name)
    right = b.values.copy()
    right[:, 1] = np.where([w.startswith("s") for w in b.vocab], -2.25, 1.0)
    b = EmbeddingMatrix(b.vocab, right, b.name)
    pair = _assert_moments_as_by_copy(a, b)
    assert np.flatnonzero(pair.constant_columns).tolist() == [0, 2, 5]
    kappa = correlation_matrix(pair)
    assert kappa.degenerate_left == (0, 2)
    assert kappa.degenerate_right == (1,)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2 * _COVARIANCE_CHUNK + 10),
    dx=st.integers(1, 4),
    dy=st.integers(1, 4),
    extra_left=st.integers(0, 40),
    extra_right=st.integers(0, 40),
    seed=st.integers(0, 2**20),
    identical=st.booleans(),
)
def test_covariance_by_index_property(n, dx, dy, extra_left, extra_right, seed, identical):
    rng = np.random.default_rng(seed)
    if identical:
        _assert_moments_as_by_copy(*_identical_pair(rng, n, dx, dy))
    else:
        _assert_moments_as_by_copy(*_partial_pair(rng, n, dx, dy, extra_left, extra_right))


def _kappa_and_cca_peak(n, d):
    """Peak bytes traced while a partially overlapping pair of n x d sides
    is aligned and both kappa and CCA are computed."""
    rng = np.random.default_rng(6)
    a, b = _partial_pair(rng, n, d, d, extra_left=2_000, extra_right=2_000)
    tracemalloc.start()
    try:
        pair = align_vocabularies(a, b)
        correlation_matrix(pair)
        cca_fit(pair)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kappa_and_cca_by_index_allocate_less_than_one_aligned_side():
    n, d = 20_000, 32
    peak = _kappa_and_cca_peak(n, d)
    assert peak < n * d * 8, peak


def test_kappa_and_cca_allocate_no_more_on_more_blas_threads():
    # the pass multiplies at most two chunks at once, whatever the count
    n, d = 20_000, 32
    with blas_threads_at(2):
        two = _kappa_and_cca_peak(n, d)
    with blas_threads_at(8):
        eight = _kappa_and_cca_peak(n, d)
    assert eight < n * d * 8, eight
    assert eight <= two * 1.05, (two, eight)


def test_correlation_matrix_self_has_unit_diagonal():
    rng = np.random.default_rng(0)
    e = make_embedding(rng.standard_normal((50, 6)))
    kappa = correlation_matrix(align_vocabularies(e, e))
    assert np.allclose(np.diag(kappa.values), 1.0, atol=1e-12)
    # flattened self-comparison contains D entries equal to 1
    assert (np.abs(kappa.values.ravel() - 1.0) <= 1e-12).sum() == 6


def test_correlation_matrix_matches_naive_oracle():
    rng = np.random.default_rng(1)
    left = rng.standard_normal((30, 4))
    right = rng.standard_normal((30, 5))
    kappa = correlation_matrix(_pair(left, right))
    assert kappa.values.shape == (4, 5)
    assert np.allclose(
        kappa.values, correlation_matrix_naive(left, right), atol=1e-12
    )


def test_correlation_matrix_transpose_symmetry():
    rng = np.random.default_rng(2)
    left = rng.standard_normal((40, 3))
    right = rng.standard_normal((40, 6))
    forward = correlation_matrix(_pair(left, right))
    backward = correlation_matrix(_pair(right, left))
    assert np.allclose(forward.values.T, backward.values, atol=1e-12)


def test_correlation_matrix_column_permutation():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((60, 5))
    perm = [3, 0, 4, 1, 2]
    self_kappa = correlation_matrix(_pair(values, values))
    permuted_kappa = correlation_matrix(_pair(values[:, perm], values))
    assert np.allclose(permuted_kappa.values, self_kappa.values[perm, :], atol=1e-12)


def test_correlation_matrix_random_pair_is_weak():
    # sampling distribution of rho at n=1000 keeps every |entry| small
    a = random_embedding(1000, 10, seed=100)
    b = random_embedding(1000, 10, seed=200)
    kappa = correlation_matrix(align_vocabularies(a, b))
    assert np.abs(kappa.values).max() < 0.15


@st.composite
def _relabelling(draw):
    """For 1 to 6 columns: a permutation, and per column a sign, a positive
    scale and a shift."""
    d = draw(st.integers(min_value=1, max_value=6))
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=d, max_size=d))
    scales = draw(st.lists(st.floats(0.01, 100.0), min_size=d, max_size=d))
    shifts = draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    return perm, np.array(signs), np.array(scales), np.array(shifts)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=3, max_value=40),
    left_side=_relabelling(),
    right_side=_relabelling(),
)
def test_kappa_equivariant_under_permutation_and_sign_flip(
    seed, rows, left_side, right_side
):
    # a positive per-column scale and shift leave every entry unchanged
    (perm_l, sign_l, scale_l, shift_l) = left_side
    (perm_r, sign_r, scale_r, shift_r) = right_side
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((rows, len(perm_l)))
    right = rng.standard_normal((rows, len(perm_r)))
    base = correlation_matrix(_pair(left, right)).values
    moved = correlation_matrix(
        _pair(
            left[:, perm_l] * sign_l * scale_l + shift_l,
            right[:, perm_r] * sign_r * scale_r + shift_r,
        )
    ).values
    expected = np.outer(sign_l, sign_r) * base[np.ix_(perm_l, perm_r)]
    assert np.allclose(moved, expected, rtol=0, atol=1e-12)


def test_correlation_matrix_flags_degenerate_columns():
    left = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    right = np.array([[1.0, 4.0], [5.0, 2.0], [2.0, 0.0]])
    kappa = correlation_matrix(_pair(left, right))
    assert kappa.degenerate_left == (1,)
    assert kappa.degenerate_right == ()
    assert np.array_equal(kappa.values[1], [0.0, 0.0])

    # the mean of three 0.1s is not exactly 0.1: a variance test would see
    # rounding noise here instead of a constant column
    left = np.array([[1.0, 0.1], [2.0, 0.1], [3.0, 0.1]])
    kappa = correlation_matrix(_pair(left, right))
    assert kappa.degenerate_left == (1,)
    assert np.array_equal(kappa.values[1], [0.0, 0.0])

    # not constant, but the squared deviations underflow to a zero variance
    left = np.array([[1.0, 1e-200], [2.0, 2e-200], [3.0, 3e-200]])
    kappa = correlation_matrix(_pair(left, right))
    assert kappa.degenerate_left == (1,)
    assert np.array_equal(kappa.values[1], [0.0, 0.0])


def test_correlation_matrix_needs_two_rows():
    with pytest.raises(ValueError, match="at least 2"):
        correlation_matrix(_pair([[1.0, 2.0]], [[3.0, 4.0]]))


def test_correlation_matrix_validates_range():
    with pytest.raises(ValueError, match="outside"):
        CorrelationMatrix(values=np.array([[1.5]]))
    # a NaN compares false with both ends of the range
    with pytest.raises(ValueError, match="finite"):
        CorrelationMatrix(values=np.array([[np.nan, 0.5]]))


def test_histogram_two_bins():
    h = histogram([0, 0, 1, 1], bins=2)
    assert np.array_equal(h.counts, [2, 2])
    assert h.median == 0.5
    assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == 1.0


def test_histogram_single_distinct_value():
    h = histogram([2.5, 2.5, 2.5], bins=4)
    assert h.counts.sum() == 3
    assert (h.counts > 0).sum() == 1
    assert h.median == 2.5


def test_histogram_counts_sum_to_population():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(777)
    h = histogram(vals, bins=13)
    assert h.counts.sum() == 777
    assert h.bin_edges[0] <= h.median <= h.bin_edges[-1]


def test_histogram_median_midpoint_rule():
    assert histogram([1.0, 2.0, 3.0, 10.0], bins=3).median == 2.5


def test_histogram_kde_peak_near_zero():
    vals = np.random.default_rng(6).standard_normal(10_000)
    h = histogram(vals, bins=60, with_kde=True)
    xs = h.kde_points[:, 0]
    dens = h.kde_points[:, 1]
    assert len(xs) == 256
    assert (dens >= 0).all()
    assert abs(xs[np.argmax(dens)]) < 0.1


def test_histogram_kde_omitted_for_degenerate_population():
    assert histogram([1.0, 1.0], bins=2, with_kde=True).kde_points is None


def test_histogram_range_too_narrow_for_bins_is_degenerate():
    # two values an ulp apart: numpy cannot cut [lo, hi] into 60 finite bins
    lo = np.nextafter(1.0, 0.0)
    h = histogram([1.0, lo], bins=60, with_kde=True)
    assert h.counts.sum() == 2
    assert (h.bin_edges[0], h.bin_edges[-1]) == (lo - 0.5, 1.5)
    assert h.kde_points is None


@pytest.mark.parametrize("value", [1e15, -1e15, 2.0**53, 1e20, -1e20])
@pytest.mark.parametrize("bins", [1, 60])
def test_histogram_large_constant_population(value, bins):
    # a 0.5 pad is below an ulp here: the pad grows to keep every edge distinct
    h = histogram([value, value], bins=bins, with_kde=True)
    assert h.counts.sum() == 2
    assert (np.diff(h.bin_edges) > 0).all()
    assert h.bin_edges[0] < value < h.bin_edges[-1]
    assert h.median == value
    assert h.kde_points is None


@pytest.mark.parametrize("value", [1.7e308, -1.7e308])
@pytest.mark.parametrize("size", [2, 3])
def test_histogram_median_does_not_overflow(value, size):
    # the two middle values sum past the float64 maximum; warnings are errors
    assert histogram([value] * size).median == value


FLOAT64_MAX = float(np.finfo(np.float64).max)


@pytest.mark.parametrize(
    "vals, problem",
    [
        ([-1.7e308, 1.7e308], "range [-1.7e+308, 1.7e+308] is wider than float64 can bin"),
        ([FLOAT64_MAX] * 2, f"range [{FLOAT64_MAX!r}, {FLOAT64_MAX!r}] padded by"),
        ([-FLOAT64_MAX] * 3, f"range [{-FLOAT64_MAX!r}, {-FLOAT64_MAX!r}] padded by"),
    ],
)
def test_histogram_rejects_a_range_that_overflows(vals, problem):
    # numpy's overflow warnings are errors here, so none may come first
    with pytest.raises(ValueError, match=re.escape(problem)):
        histogram(vals)


@pytest.mark.parametrize("bins", [1, 60])
def test_histogram_edges_near_the_float64_limit_keep_numpy_bits(bins):
    wide = np.array([-8e307, 0.0, 8e307])
    assert histogram(wide, bins=bins).bin_edges.tobytes() == np.histogram(
        wide, bins=bins
    )[1].tobytes()
    # a constant population is padded by bins ulps, as np.spacing gives them
    value = 1.7e308
    pad = bins * float(np.spacing(value))
    assert histogram([value] * 2, bins=bins).bin_edges.tobytes() == np.histogram(
        [value] * 2, bins=bins, range=(value - pad, value + pad)
    )[1].tobytes()


# below 1e300 numpy's own median cannot overflow, so it is the reference
@settings(max_examples=200, deadline=None)
@given(
    vals=st.lists(
        st.floats(min_value=-1e300, max_value=1e300)
        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
        min_size=1,
        max_size=50,
    )
)
def test_histogram_median_is_numpy_median_to_the_bit(vals):
    assert np.float64(histogram(vals).median).tobytes() == np.median(vals).tobytes()


@st.composite
def _kde_population(draw):
    """A population of one of the shapes the windowed KDE must handle."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["outliers", "uniform", "pair", "kappa"]))
    if kind == "pair":
        return rng.uniform(-1.0, 1.0, 2)
    if kind == "uniform":  # every value lies in every window
        return rng.uniform(-1.0, 1.0, draw(st.integers(3, 2000)))
    if kind == "outliers":  # windows around the bulk leave the far values out
        scale = draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
        bulk = rng.normal(0.0, scale, draw(st.integers(50, 2000)))
        return np.concatenate([bulk, rng.uniform(-1.0, 1.0, draw(st.integers(1, 5)))])
    # kappa-like: a D x D correlation grid over n rows, D of them matched
    d = draw(st.integers(3, 40))
    rows = draw(st.integers(50, 5000))
    bulk = rng.normal(0.0, rows**-0.5, d * d - d)
    matched = rng.uniform(0.5, 1.0, d) * rng.choice([-1.0, 1.0], d)
    return np.clip(np.concatenate([bulk, matched]), -1.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(vals=_kde_population())
def test_histogram_kde_matches_scipy_oracle(vals):
    h = histogram(vals, with_kde=True)
    xs = np.linspace(vals.min(), vals.max(), KDE_POINTS)
    assert np.array_equal(h.kde_points[:, 0], xs)
    ref = gaussian_kde_scipy(vals, xs)
    assert np.abs(h.kde_points[:, 1] - ref).max() <= 1e-12 * ref.max()


@pytest.mark.parametrize(
    "vals",
    [
        [0.0, 1e-300, 2e-300],  # deviations square to 0: h underflows
        [-1e200, 0.0, 1e200],  # deviations square to inf: h overflows
    ],
)
def test_histogram_kde_omitted_when_bandwidth_is_not_finite_positive(vals):
    h = histogram(vals, bins=60, with_kde=True)
    assert h.counts.sum() == 3
    assert h.kde_points is None
    json.dumps(h.to_json_dict(), allow_nan=False)


def test_histogram_errors():
    with pytest.raises(ValueError, match="empty"):
        histogram([], bins=3)
    with pytest.raises(ValueError, match="bins"):
        histogram([1.0], bins=0)
    # checked before the bins + 1 edges are allocated
    with pytest.raises(ValueError, match="bins must be <= 1048576"):
        histogram([1.0], bins=10**12)


def test_histogram_json_dict():
    h = histogram([0.0, 1.0], bins=1)
    d = h.to_json_dict()
    assert d["counts"] == [2]
    assert d["median"] == 0.5
    assert "kde" not in d
