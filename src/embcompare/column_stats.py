"""Column-wise statistics over embedding matrices.

The central object is the dimension-pair correlation grid: entry ``(i, j)``
is the Pearson correlation between feature column ``i`` of one embedding
and feature column ``j`` of another, over their shared vocabulary.

The grid is read from the pair's joint covariance
(:attr:`AlignedPair.covariance`), the same one :func:`~embcompare.cca.cca_fit`
whitens, so the data is centred and multiplied once for both metrics.  It
uses population (1/n) normalization; the factor cancels in correlations.
A column that is exactly constant (max == min), or whose variance
underflows to 0, gets correlation 0 and is flagged rather than producing
NaN or rounding noise.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .embedding_io import AlignedPair, write_csv_rows

DEFAULT_BINS = 60
KDE_POINTS = 256

_RANGE_TOL = 1e-12


@dataclass(frozen=True)
class CorrelationMatrix:
    """Dense grid of Pearson correlations between two sets of feature columns."""

    values: np.ndarray
    degenerate_left: tuple[int, ...] = ()
    degenerate_right: tuple[int, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"correlation matrix must be 2-D, got {values.shape}")
        if values.size and (
            values.min() < -1.0 - _RANGE_TOL or values.max() > 1.0 + _RANGE_TOL
        ):
            raise ValueError("correlation values outside [-1, 1]")
        if values.flags.writeable:
            values = values.copy()
            values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class HistogramSummary:
    """Equal-width histogram of a correlation population, plus median and KDE."""

    bin_edges: np.ndarray
    counts: np.ndarray
    median: float
    kde_points: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        d = {
            "bin_edges": [float(x) for x in self.bin_edges],
            "counts": [int(c) for c in self.counts],
            "median": self.median,
        }
        if self.kde_points is not None:
            d["kde"] = [[float(x), float(y)] for x, y in self.kde_points]
        return d

    def write_csv(self, dest: str | Path | IO) -> None:
        """Write rows of (bin_lo, bin_hi, count)."""
        bins = zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts)
        rows = ([repr(float(lo)), repr(float(hi)), int(c)] for lo, hi, c in bins)
        write_csv_rows(dest, ["bin_lo", "bin_hi", "count"], rows)

    def write_kde_csv(self, dest: str | Path | IO) -> None:
        if self.kde_points is None:
            raise ValueError("histogram was computed without a KDE")
        rows = ([repr(float(x)), repr(float(y))] for x, y in self.kde_points)
        write_csv_rows(dest, ["x", "density"], rows)


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation of two equal-length vectors, clamped to [-1, 1].

    Returns 0.0 when either input is constant (max == min, the test
    :func:`correlation_matrix` flags columns by) or its variance underflows
    to 0: a constant column carries no information, and its inexact mean
    would otherwise leave rounding noise.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.dot(dx, dx) / n)
    sy = np.sqrt(np.dot(dy, dy) / n)
    if sx == 0.0 or sy == 0.0 or x.max() == x.min() or y.max() == y.min():
        return 0.0
    r = (np.dot(dx, dy) / n) / (sx * sy)
    return float(min(1.0, max(-1.0, r)))


def correlation_matrix(pair: AlignedPair) -> CorrelationMatrix:
    """Pearson correlation between every left column and every right column.

    Entry ``(i, j)`` equals ``pearson(left[:, i], right[:, j])``: the cross
    block of ``pair.covariance`` scaled by both sides' standard deviations.
    """
    if pair.shared_count < 2:
        raise ValueError("need at least 2 shared words to correlate columns")
    sides = (pair.left.values, pair.right.values)
    d = pair.left.n_dims
    cov = pair.covariance
    std = np.sqrt(np.diag(cov))
    degenerate = np.concatenate([v.max(axis=0) == v.min(axis=0) for v in sides])
    degenerate |= std == 0.0  # variance underflow: no usable scale either
    std[degenerate] = 1.0
    out = cov[:d, d:] / np.outer(std[:d], std[d:])
    out[degenerate[:d], :] = 0.0
    out[:, degenerate[d:]] = 0.0
    np.clip(out, -1.0, 1.0, out=out)
    return CorrelationMatrix(
        values=out,
        degenerate_left=tuple(int(i) for i in np.flatnonzero(degenerate[:d])),
        degenerate_right=tuple(int(i) for i in np.flatnonzero(degenerate[d:])),
    )


def histogram(
    values: Sequence[float] | np.ndarray,
    bins: int = DEFAULT_BINS,
    with_kde: bool = False,
) -> HistogramSummary:
    """Equal-width histogram over [min, max] with median and optional KDE.

    The KDE uses a Gaussian kernel with Silverman bandwidth evaluated at
    :data:`KDE_POINTS` evenly spaced points over the data range; it is
    omitted for degenerate (zero variance) populations.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("cannot histogram an empty population")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not np.isfinite(vals).all():
        raise ValueError("population contains non-finite values")
    lo, hi = float(vals.min()), float(vals.max())
    counts, edges = np.histogram(vals, bins=bins, range=(lo, hi))
    median = float(np.median(vals))

    kde_points = None
    if with_kde and vals.size > 1 and lo < hi:
        from scipy.stats import gaussian_kde  # scipy.stats is slow to import

        xs = np.linspace(lo, hi, KDE_POINTS)
        density = gaussian_kde(vals, bw_method="silverman")(xs)
        kde_points = np.column_stack([xs, density])
        kde_points.flags.writeable = False

    return HistogramSummary(
        bin_edges=edges, counts=counts, median=median, kde_points=kde_points
    )

