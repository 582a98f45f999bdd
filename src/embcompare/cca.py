"""Canonical correlation analysis between two embedding spaces.

All three covariance blocks are read from the pair's joint covariance
(:attr:`AlignedPair.covariance`), which the kappa grid shares.  Whitening is
done per side via symmetric eigendecomposition of the (optionally
ridge-regularized) auto-covariance; the canonical correlations are then the
singular values of the whitened cross-covariance, which makes the
descending order intrinsic.  Covariances use population (1/n)
normalization; the factor cancels in the correlations.  An exactly constant
column has no variance: its direction is dropped under the default ridge,
and a fit at regularization 0 fails as numerically singular.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .embedding_io import AlignedPair, NumericalError, read_only

# Auto ridge: this factor times the mean eigenvalue of each side's
# auto-covariance.  |V| >> D keeps covariances well-posed, but near-duplicate
# dimensions can still leave them ill-conditioned.  The factor must stay
# tiny: a ridge r shifts a perfect canonical correlation down by about
# r / (2 * lambda_min), so anything much larger than 1e-12 visibly damps
# correlations when one side has been mixed by an ill-conditioned matrix.
RIDGE_FACTOR = 1e-12

_EIG_DROP = 1e-12
_UNIT_OVERSHOOT = 1e-6


@dataclass(frozen=True)
class CcaResult:
    """Canonical correlations for one fitted pair.

    ``correlations`` is descending with every entry in [0, 1], one per kept
    canonical pair (``k`` of them); ``zeta_cca`` is its mean.
    ``dropped_left`` / ``dropped_right`` count the near-null directions each
    side's whitening discarded before the fit.
    """

    correlations: np.ndarray
    regularization_left: float
    regularization_right: float
    dropped_left: int = 0
    dropped_right: int = 0

    def __post_init__(self):
        corr = read_only(self.correlations, np.float64)
        if corr.ndim != 1 or corr.size == 0:
            raise ValueError("correlations must be a non-empty vector")
        if (np.diff(corr) > 0).any():
            raise ValueError("correlations must be sorted descending")
        if corr.min() < 0.0 or corr.max() > 1.0 + 1e-9:
            raise ValueError("correlations outside [0, 1]")
        object.__setattr__(self, "correlations", corr)

    @property
    def zeta_cca(self) -> float:
        return float(self.correlations.mean())

    @property
    def k(self) -> int:
        return self.correlations.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "correlations": [float(v) for v in self.correlations],
            "zeta_cca": self.zeta_cca,
            "regularization_left": self.regularization_left,
            "regularization_right": self.regularization_right,
            "k": self.k,
            "dropped_left": self.dropped_left,
            "dropped_right": self.dropped_right,
        }


def _whitener(
    cov: np.ndarray, ridge: float, side: str
) -> tuple[np.ndarray, int]:
    """Inverse square root of ``cov + ridge*I`` on its non-degenerate span.

    Returns ``(W, dropped)`` where ``W`` maps the original coordinates to a
    whitened basis (columns) and ``dropped`` counts discarded directions.
    """
    eigvals, eigvecs = np.linalg.eigh(cov + ridge * np.eye(cov.shape[0]))
    top = eigvals[-1]
    if top <= 0.0:
        raise NumericalError(f"{side} auto-covariance is not positive")
    keep = eigvals > _EIG_DROP * top
    if ridge == 0.0 and not keep.all():
        raise NumericalError(
            f"{side} auto-covariance is numerically singular at "
            "regularization 0; pass a positive ridge"
        )
    dropped = int((~keep).sum())
    if dropped:
        warnings.warn(
            f"dropping {dropped} near-null canonical direction(s) on the "
            f"{side} side",
            stacklevel=3,
        )
    return eigvecs[:, keep] / np.sqrt(eigvals[keep]), dropped


def check_regularization(regularization: float | None) -> None:
    """Raise ValueError unless ``regularization`` is None (the automatic
    ridge) or a finite number >= 0."""
    if regularization is not None and not (
        np.isfinite(regularization) and regularization >= 0
    ):
        raise ValueError(
            f"regularization must be a finite number >= 0, got {regularization!r}"
        )


def cca_fit(pair: AlignedPair, regularization: float | None = None) -> CcaResult:
    """Fit CCA on an aligned pair of embeddings.

    ``regularization`` is an absolute ridge added to both auto-covariances;
    ``None`` (the default) applies ``RIDGE_FACTOR`` times each side's mean
    eigenvalue.  Eigenvalues that stay below ``1e-12`` of the largest after
    the ridge are treated as zero and their directions dropped (with a
    warning), reducing ``k``.
    """
    n = pair.shared_count
    left, right = pair.left, pair.right
    dx, dy = left.n_dims, right.n_dims
    if n < 2:
        raise ValueError("need at least 2 shared words to fit CCA")
    if n <= max(dx, dy):
        warnings.warn(
            f"only {n} shared words for {dx}x{dy} dimensions; "
            "canonical correlations will be unreliable",
            stacklevel=2,
        )
    check_regularization(regularization)

    cov = pair.covariance
    cov_xx, cov_yy, cov_xy = cov[:dx, :dx], cov[dx:, dx:], cov[:dx, dx:]

    if regularization is None:
        ridge_left = RIDGE_FACTOR * float(np.trace(cov_xx)) / cov_xx.shape[0]
        ridge_right = RIDGE_FACTOR * float(np.trace(cov_yy)) / cov_yy.shape[0]
    else:
        ridge_left = ridge_right = float(regularization)

    w_left, dropped_left = _whitener(cov_xx, ridge_left, left.name)
    w_right, dropped_right = _whitener(cov_yy, ridge_right, right.name)

    core = w_left.T @ cov_xy @ w_right
    try:
        s = np.linalg.svd(core, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of whitened cross-covariance failed: {exc}") from exc
    if s.size and s[0] > 1.0 + _UNIT_OVERSHOOT:
        raise NumericalError(
            f"leading canonical correlation {s[0]!r} exceeds 1; "
            "whitening is broken"
        )

    return CcaResult(
        correlations=np.minimum(s, 1.0),
        regularization_left=ridge_left,
        regularization_right=ridge_right,
        dropped_left=dropped_left,
        dropped_right=dropped_right,
    )
