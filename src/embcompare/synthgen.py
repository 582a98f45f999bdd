"""Synthetic embeddings with known ground truth, for validating the metrics.

A :class:`SynthSpec` (transforms, noise level, seed) is both the recipe for
a derived pair and its ground truth: :func:`derive_pair` returns the pair
alone, and ``spec.to_json()`` is the record ``synth --truth`` writes.  The
pair's shape is the base's; each transform must be as wide as the base.

Randomness comes from numpy's Philox counter-based bit generator (4x64,
10 rounds) keyed by the caller's seed: identical seeds give bit-identical
matrices.  Noise added by :func:`derive_pair` uses the Philox stream
jumped once, so it never overlaps the draws that built the base matrix.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .embedding_io import AlignedPair, EmbeddingMatrix, align_vocabularies, read_only

MAX_CONDITION = 1e12


def _rng(seed: int, jumps: int = 0) -> np.random.Generator:
    bitgen = np.random.Philox(seed)
    if jumps:
        bitgen = bitgen.jumped(jumps)
    return np.random.Generator(bitgen)


@dataclass(frozen=True)
class Permutation:
    """Reorder columns: output column ``d`` is input column ``order[d]``."""

    order: np.ndarray

    def __post_init__(self):
        order = read_only(self.order, np.intp)
        if sorted(order.tolist()) != list(range(order.shape[0])):
            raise ValueError("order is not a permutation")
        object.__setattr__(self, "order", order)

    @property
    def width(self) -> int:
        return self.order.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return values[:, self.order]

    def to_json_dict(self) -> dict:
        return {"kind": "permutation", "order": [int(i) for i in self.order]}


@dataclass(frozen=True)
class SignFlip:
    """Negate the columns selected by a boolean mask."""

    mask: np.ndarray

    def __post_init__(self):
        mask = read_only(self.mask, bool)
        if mask.ndim != 1:
            raise ValueError(f"mask must be 1-D, got shape {mask.shape}")
        object.__setattr__(self, "mask", mask)

    @property
    def width(self) -> int:
        return self.mask.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        signs = np.where(self.mask, -1.0, 1.0)
        return values * signs

    def to_json_dict(self) -> dict:
        return {"kind": "sign_flip", "mask": [bool(b) for b in self.mask]}


@dataclass(frozen=True)
class Linear:
    """Right-multiply by an invertible mixing matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = read_only(self.matrix, np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"mixing matrix must be square, got {m.shape}")
        cond = np.linalg.cond(m)
        if not np.isfinite(cond) or cond >= MAX_CONDITION:
            raise ValueError(
                f"mixing matrix is singular or near-singular (cond={cond:.3g})"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def width(self) -> int:
        return self.matrix.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return values @ self.matrix

    def to_json_dict(self) -> dict:
        return {"kind": "linear", "matrix": self.matrix.tolist()}


Transform = Permutation | SignFlip | Linear


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for deriving a paired embedding from a base one.

    The spec is also the pair's ground truth: the transforms applied in
    order, then i.i.d. Gaussian noise of ``noise_sigma`` drawn from ``seed``.
    """

    transforms: tuple[Transform, ...] = ()
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(
                f"noise_sigma must be a finite number >= 0, got {self.noise_sigma!r}"
            )
        object.__setattr__(self, "transforms", tuple(self.transforms))

    def _single(self, kind):
        found = [s for s in self.transforms if isinstance(s, kind)]
        return found[0] if len(found) == 1 else None

    @property
    def permutation(self) -> np.ndarray | None:
        step = self._single(Permutation)
        return step.order if step else None

    @property
    def sign_mask(self) -> np.ndarray | None:
        step = self._single(SignFlip)
        return step.mask if step else None

    @property
    def mixing(self) -> np.ndarray | None:
        step = self._single(Linear)
        return step.matrix if step else None

    def to_json_dict(self) -> dict:
        return {
            "steps": [s.to_json_dict() for s in self.transforms],
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def synthetic_vocab(n_rows: int) -> tuple[str, ...]:
    return tuple(f"w{i:06d}" for i in range(1, n_rows + 1))


def random_embedding(n_rows: int, n_dims: int, seed: int) -> EmbeddingMatrix:
    """I.i.d. standard-normal embedding named ``synthetic-<seed>``, with
    ``w000001``-style vocabulary."""
    if n_rows < 2 or n_dims < 1:
        raise ValueError("need n_rows >= 2 and n_dims >= 1")
    values = _rng(seed).standard_normal((n_rows, n_dims))
    values.flags.writeable = False  # fresh: EmbeddingMatrix need not copy it
    return EmbeddingMatrix(
        vocab=synthetic_vocab(n_rows), values=values, name=f"synthetic-{seed}"
    )


def random_permutation(n_dims: int, seed: int) -> Permutation:
    return Permutation(order=_rng(seed).permutation(n_dims))


def random_sign_mask(n_dims: int, seed: int) -> SignFlip:
    """Flip each column with probability 1/2."""
    return SignFlip(mask=_rng(seed).random(n_dims) < 0.5)


def random_invertible(n_dims: int, seed: int) -> Linear:
    """A random dense mixing matrix (standard normal entries).

    Square Gaussian matrices are almost surely well-conditioned enough; the
    constructor still enforces the condition-number bound.
    """
    return Linear(matrix=_rng(seed).standard_normal((n_dims, n_dims)))


def derive_pair(base: EmbeddingMatrix, spec: SynthSpec) -> AlignedPair:
    """Apply a transform chain plus i.i.d. Gaussian noise to a base embedding.

    Returns ``align_vocabularies(base, derived)``: the derived embedding has
    ``base``'s vocabulary, so the pair's ``sources`` (and ``left`` and
    ``right``) are ``base`` itself and the derived embedding.  Noise is
    added after all transforms.  Every transform must be as wide as ``base``.
    """
    values = base.values
    for i, step in enumerate(spec.transforms):
        if step.width != base.n_dims:
            raise ValueError(
                f"step {i} ({type(step).__name__}) is {step.width} wide but "
                f"base has {base.n_dims} dimensions"
            )
        values = step.apply(values)
    if spec.noise_sigma > 0:
        noise = _rng(spec.seed, jumps=1).standard_normal(values.shape)
        noise *= spec.noise_sigma  # in place: the same sum, two fewer N x D arrays
        noise += values
        values = noise
    values.flags.writeable = False  # fresh (or base's own): no copy needed
    derived = EmbeddingMatrix(
        vocab=base.vocab, values=values, name=f"{base.name}-derived"
    )
    return align_vocabularies(base, derived)
