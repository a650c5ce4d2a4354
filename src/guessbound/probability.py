"""Finite probability distributions, channels, and distance from uniform.

Alphabets are index sets 0..n-1.  A `ClassicalChannel` is a row-stochastic
map from an input to a distribution over outputs; as stochastic storage it
keeps a noisy copy of the input.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to call from parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_ATOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """Probability vector over an alphabet of size len(probs)."""

    probs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.probs, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError(f"distribution must be a nonempty 1-d array, got shape {a.shape}")
        if a.min() < -SIMPLEX_ATOL:
            raise ValueError(f"distribution has a negative entry ({a.min():.3e})")
        if abs(a.sum() - 1.0) > SIMPLEX_ATOL:
            raise ValueError(f"distribution has total mass {a.sum()!r}, expected 1")
        a = np.clip(a, 0.0, None)
        a.flags.writeable = False
        object.__setattr__(self, "probs", a)

    @property
    def size(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(np.full(n, 1.0 / n))

    def collision_probability(self) -> float:
        """Probability that two independent draws coincide, sum p^2."""
        return float((self.probs**2).sum())

    def renyi_entropy(self) -> float:
        """Order-2 Renyi entropy -log2 of the collision probability."""
        return float(-np.log2(self.collision_probability()))


@dataclass(frozen=True)
class ClassicalChannel:
    """Row-stochastic matrix mapping input index to a distribution over outputs."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.size == 0:
            raise ValueError(f"channel must be a nonempty matrix, got shape {r.shape}")
        if r.min() < -SIMPLEX_ATOL:
            raise ValueError("channel has a negative entry")
        sums = r.sum(axis=1)
        if np.abs(sums - 1.0).max() > SIMPLEX_ATOL:
            raise ValueError("every channel row must sum to 1")
        r = np.clip(r, 0.0, None)
        r.flags.writeable = False
        object.__setattr__(self, "rows", r)

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]


def dist_from_uniform(p: Distribution) -> float:
    """Variational distance of p from the uniform distribution on its alphabet."""
    return float(0.5 * np.abs(p.probs - 1.0 / p.size).sum())

