"""Column-wise statistics over embedding matrices.

The central object is the dimension-pair correlation grid: entry ``(i, j)``
is the Pearson correlation between feature column ``i`` of one embedding
and feature column ``j`` of another, over their shared vocabulary.

The grid is read from the pair's joint covariance
(:attr:`AlignedPair.covariance`), the same one :func:`~embcompare.cca.cca_fit`
whitens.  One pass over the shared rows, read by index from the two parsed
matrices a chunk at a time, gives the column means and ranges and then the
covariance, so the data is centred and multiplied once for both metrics
and never copied whole.  The covariance pass multiplies its chunks as
one-thread BLAS tasks, at most two at once, and adds them in chunk order,
so the grid's bits do not depend on the BLAS thread count.  It uses
population (1/n) normalization; the factor cancels in correlations.  A
column that is exactly constant over the shared rows
(:attr:`AlignedPair.constant_columns`: max == min), or whose variance
underflows to 0, gets correlation 0 and is flagged rather than producing
NaN or rounding noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding_io import AlignedPair, read_only

DEFAULT_BINS = 60
# histogram allocates bins + 1 edges, so an unbounded count exhausts memory;
# 2**20 bins is more than the 10**6 values of a 1000 x 1000 kappa grid
_MAX_BINS = 2**20
KDE_POINTS = 256

_RANGE_TOL = 1e-12

# exp(-z*z/2) is exactly 0.0 in float64 once |z| > 38.604, so kernel terms
# beyond 39 bandwidths contribute nothing to a KDE sum
_KDE_REACH = 39.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Dense grid of Pearson correlations between two sets of feature columns."""

    values: np.ndarray
    degenerate_left: tuple[int, ...] = ()
    degenerate_right: tuple[int, ...] = ()

    def __post_init__(self):
        values = read_only(self.values, np.float64)
        if values.ndim != 2:
            raise ValueError(f"correlation matrix must be 2-D, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("correlation values must be finite")
        if values.size and (
            values.min() < -1.0 - _RANGE_TOL or values.max() > 1.0 + _RANGE_TOL
        ):
            raise ValueError("correlation values outside [-1, 1]")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class HistogramSummary:
    """Equal-width histogram of a correlation population, plus median and KDE."""

    bin_edges: np.ndarray
    counts: np.ndarray
    median: float
    kde_points: np.ndarray | None = None

    def __post_init__(self):
        for name in ("bin_edges", "counts", "kde_points"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, read_only(value))

    def to_json_dict(self) -> dict:
        d = {
            "bin_edges": [float(x) for x in self.bin_edges],
            "counts": [int(c) for c in self.counts],
            "median": self.median,
        }
        if self.kde_points is not None:
            d["kde"] = [[float(x), float(y)] for x, y in self.kde_points]
        return d


def correlation_matrix(pair: AlignedPair) -> CorrelationMatrix:
    """Pearson correlation between every left column and every right column.

    Entry ``(i, j)`` is the cross block of ``pair.covariance`` scaled by the
    standard deviations of left column ``i`` and right column ``j``, clamped
    to [-1, 1].  It is 0 when either column is constant (max == min) or its
    variance underflows to 0: such a column carries no information, and its
    inexact mean would otherwise leave rounding noise.
    """
    if pair.shared_count < 2:
        raise ValueError("need at least 2 shared words to correlate columns")
    d = pair.left.n_dims
    cov = pair.covariance
    std = np.sqrt(np.diag(cov))
    # variance underflow leaves no usable scale either
    degenerate = pair.constant_columns | (std == 0.0)
    std[degenerate] = 1.0
    out = cov[:d, d:] / np.outer(std[:d], std[d:])
    out[degenerate[:d], :] = 0.0
    out[:, degenerate[d:]] = 0.0
    np.clip(out, -1.0, 1.0, out=out)
    out.flags.writeable = False  # fresh: CorrelationMatrix need not copy it
    return CorrelationMatrix(
        values=out,
        degenerate_left=tuple(int(i) for i in np.flatnonzero(degenerate[:d])),
        degenerate_right=tuple(int(i) for i in np.flatnonzero(degenerate[d:])),
    )


def check_bins(bins: int) -> None:
    """Raise ValueError unless ``1 <= bins <= 2**20``."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if bins > _MAX_BINS:
        raise ValueError(f"bins must be <= {_MAX_BINS}, got {bins}")


def histogram(
    values: Sequence[float] | np.ndarray,
    bins: int = DEFAULT_BINS,
    with_kde: bool = False,
) -> HistogramSummary:
    """Equal-width histogram over [min, max] with median and optional KDE.

    The KDE is a Gaussian kernel density with Silverman's bandwidth
    ``h = std(values, ddof=1) * (3n/4) ** (-1/5)``, evaluated at
    :data:`KDE_POINTS` evenly spaced points over [min, max] by
    :func:`_gaussian_kde`, in numpy alone.

    A population is degenerate when numpy cannot split [min, max] into
    ``bins`` finite-sized bins: all values equal, or a range of a few ulps
    such as ``[1 - 2**-53, 1]``.  It is binned over [min - pad, max + pad]
    and gets no KDE; neither does a population whose bandwidth is not a
    positive finite number.  ``pad`` is 0.5, as numpy pads min == max, or
    ``bins`` ulps of the largest magnitude where that is more (magnitudes
    above about ``2**51 / bins``), so that every edge is distinct.

    Raises ``ValueError`` naming the range when ``max - min``, or a padded
    end, overflows float64 (``[-1.7e308, 1.7e308]``, or a constant within
    ``bins`` ulps of the float64 maximum).
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("cannot histogram an empty population")
    check_bins(bins)
    if not np.isfinite(vals).all():
        raise ValueError("population contains non-finite values")
    lo, hi = float(vals.min()), float(vals.max())
    if not math.isfinite(hi - lo):
        raise ValueError(f"range [{lo!r}, {hi!r}] is wider than float64 can bin")
    edges = np.linspace(lo, hi, bins + 1)
    degenerate = bool(np.any(edges[:-1] >= edges[1:]))  # numpy's own test
    if degenerate:
        # math.ulp, not np.spacing, which overflows at the float64 maximum
        pad = max(0.5, bins * math.ulp(max(-lo, hi)))
        span = (lo - pad, hi + pad)
        if not (math.isfinite(span[0]) and math.isfinite(span[1])):
            raise ValueError(
                f"range [{lo!r}, {hi!r}] padded by {pad!r} overflows float64"
            )
    else:
        span = (lo, hi)
    counts, edges = np.histogram(vals, bins=bins, range=span)
    median = _median(vals)

    kde_points = None
    if with_kde and not degenerate:
        xs = np.linspace(lo, hi, KDE_POINTS)
        density = _gaussian_kde(vals, xs)
        if density is not None:
            kde_points = np.column_stack([xs, density])

    return HistogramSummary(
        bin_edges=edges, counts=counts, median=median, kde_points=kde_points
    )


def _median(vals: np.ndarray) -> float:
    """``np.median`` to the bit, without its overflow near the float64 maximum.

    numpy takes the mean of the two middle values ``a <= b`` (of one value
    for an odd size, where ``a`` is ``b`` here) as ``(0.0 + a + b) / 2``;
    where that sum overflows, the median is ``a / 2 + b / 2``.
    """
    mid = [(vals.size - 1) // 2, vals.size // 2]
    a, b = (float(v) for v in np.partition(vals, mid)[mid])
    median = (0.0 + a + b) / 2
    return median if math.isfinite(median) else a / 2 + b / 2


def _gaussian_kde(vals: np.ndarray, xs: np.ndarray) -> np.ndarray | None:
    """Gaussian kernel density of ``vals`` at ``xs``, Silverman bandwidth.

    ``h = std(vals, ddof=1) * (3n/4) ** (-1/5)``, the bandwidth scipy's
    ``gaussian_kde(bw_method="silverman")`` uses for 1-D data, and the
    density at ``x`` is ``sum(exp(-((v - x) / h)**2 / 2)) / (n h sqrt(2 pi))``
    (Silverman, *Density Estimation for Statistics and Data Analysis*, 1986).
    Each sum runs over the sorted values within ``_KDE_REACH * h`` of ``x``:
    the terms it leaves out are exactly 0.0 in float64, so the result is the
    full sum.  Returns None when ``h`` is not a positive finite number.  A
    positive ``h`` exceeds 1e-170 (the variance is at least the smallest
    subnormal), so no density overflows.
    """
    n = vals.size
    with np.errstate(over="ignore", invalid="ignore"):  # a spread beyond float64
        h = float(np.std(vals, ddof=1)) * (0.75 * n) ** -0.2
    if not 0.0 < h < math.inf:
        return None
    ordered = np.sort(vals)
    reach = _KDE_REACH * h
    starts = np.searchsorted(ordered, xs - reach, side="left")
    stops = np.searchsorted(ordered, xs + reach, side="right")
    sums = np.empty(xs.size)
    buf = np.empty(int((stops - starts).max()))  # one scratch array, reused
    for k, (x, a, b) in enumerate(zip(xs, starts, stops)):
        z = buf[: b - a]
        np.subtract(ordered[a:b], x, out=z)
        z /= h
        np.square(z, out=z)
        z *= -0.5
        sums[k] = np.exp(z, out=z).sum()
    return sums / (n * h * _SQRT_2PI)
