"""Finite probability distributions, channels, and distance-from-uniform measures.

Alphabets are index sets 0..n-1.  A `JointDistribution` stores the secret Z
on the rows and the observer's variable on the columns; conditioning always
happens on the column variable.  A `ClassicalChannel` is a row-stochastic
map; applied to the column variable (`push_joint`) it post-processes the
observation, which never moves the secret further from uniform.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to call from parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_ATOL = 1e-12


def _as_mass_array(values, ndim: int, what: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"{what} must be a nonempty {ndim}-d array, got shape {a.shape}")
    if a.min() < -SIMPLEX_ATOL:
        raise ValueError(f"{what} has a negative entry ({a.min():.3e})")
    if abs(a.sum() - 1.0) > SIMPLEX_ATOL:
        raise ValueError(f"{what} has total mass {a.sum()!r}, expected 1")
    a = np.clip(a, 0.0, None)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Distribution:
    """Probability vector over an alphabet of size len(probs)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_mass_array(self.probs, 1, "distribution"))

    @property
    def size(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, index: int, n: int) -> "Distribution":
        p = np.zeros(n)
        p[index] = 1.0
        return cls(p)

    def collision_probability(self) -> float:
        """Probability that two independent draws coincide, sum p^2."""
        return float((self.probs**2).sum())

    def renyi_entropy(self) -> float:
        """Order-2 Renyi entropy -log2 of the collision probability."""
        return float(-np.log2(self.collision_probability()))


@dataclass(frozen=True)
class JointDistribution:
    """Joint distribution with the secret on rows and the observation on columns."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_mass_array(self.probs, 2, "joint distribution"))

    @property
    def row_size(self) -> int:
        return self.probs.shape[0]

    @property
    def col_size(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def independent(cls, row: Distribution, col: Distribution) -> "JointDistribution":
        return cls(np.outer(row.probs, col.probs))

    def row_marginal(self) -> Distribution:
        return Distribution(self.probs.sum(axis=1))


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

    def push_joint(self, joint: JointDistribution) -> JointDistribution:
        """Map a joint (Z, S) to (Z, C(S)) by acting on the column variable."""
        if joint.col_size != self.input_size:
            raise ValueError("channel input alphabet does not match the joint")
        return JointDistribution(joint.probs @ self.rows)


def variational_distance(p: Distribution, q: Distribution) -> float:
    """Half the L1 distance between two distributions on a common alphabet."""
    if p.size != q.size:
        raise ValueError(f"alphabet mismatch: {p.size} vs {q.size}")
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def dist_from_uniform(p: Distribution) -> float:
    """Variational distance of p from the uniform distribution on its alphabet."""
    return float(0.5 * np.abs(p.probs - 1.0 / p.size).sum())


def cond_dist_from_uniform(joint: JointDistribution) -> float:
    """Expected distance of the row variable from uniform given the column.

    Columns of zero mass contribute nothing.
    """
    col_mass = joint.probs.sum(axis=0)
    return float(0.5 * np.abs(joint.probs - col_mass / joint.row_size).sum())


def guessing_probability(joint: JointDistribution) -> float:
    """Best probability of guessing the row variable from the column variable.

    Equals 1/|Z| + d(Z|W) exactly when the row alphabet is binary, and is
    never larger in general.
    """
    return float(joint.probs.max(axis=0).sum())
