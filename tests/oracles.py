"""Reference implementations and fixture helpers that only the tests read.

Each oracle is a slow, direct form of a quantity the library computes by a
faster or batched route; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from guessbound.functions import BalancedPredicateFamily, FunctionTable, UniformFunctionFamily
from guessbound.numerics import as_hermitian
from guessbound.probability import Distribution
from guessbound.quantum import DensityMatrix, StateFamily


@dataclass(frozen=True)
class JointDistribution:
    """Joint distribution with the secret on rows and the observation on columns."""

    probs: np.ndarray

    @property
    def row_size(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def independent(cls, row: Distribution, col: Distribution) -> "JointDistribution":
        return cls(np.outer(row.probs, col.probs))

    def row_marginal(self) -> Distribution:
        return Distribution(self.probs.sum(axis=1))


def cond_dist_from_uniform(joint: JointDistribution) -> float:
    """Expected distance of the row variable from uniform given the column.

    Columns of zero mass contribute nothing.
    """
    col_mass = joint.probs.sum(axis=0)
    return float(0.5 * np.abs(joint.probs - col_mass / joint.row_size).sum())


def support(family) -> list[tuple[float, FunctionTable]]:
    """(weight, table) pairs in the order of `family.support_matrix()`."""
    weights, values = family.support_matrix()
    return [(float(w), FunctionTable(row, family.range_size)) for w, row in zip(weights, values)]


def enumerate_predicates(domain_size: int, balanced: bool = False) -> list[FunctionTable]:
    """All predicates (or all balanced predicates) on a domain, within ENUMERATION_CAP."""
    if balanced:
        family = BalancedPredicateFamily(domain_size)
    else:
        family = UniformFunctionFamily(domain_size, 2)
    return [t for _, t in support(family)]


def int_to_bits(values, num_bits: int) -> np.ndarray:
    v = np.asarray(values, dtype=np.int64)
    return (v[..., None] >> np.arange(num_bits)) & 1


def bits_to_int(bits) -> np.ndarray:
    b = np.asarray(bits, dtype=np.int64)
    return b @ (1 << np.arange(b.shape[-1], dtype=np.int64))


def affine_table(family, matrix: np.ndarray, offset: np.ndarray) -> FunctionTable:
    """The member x -> A x xor b of an `AffineFamily`, one bit vector at a time."""
    x_bits = int_to_bits(np.arange(family.domain_size), family.input_bits)
    out_bits = (x_bits @ matrix.T + offset) % 2
    return FunctionTable(bits_to_int(out_bits), family.range_size)


def inner_product_table(family, mask: int) -> FunctionTable:
    """The member x -> <mask, x> of an `InnerProductFamily`."""
    bits = int_to_bits(np.arange(family.domain_size) & mask, family.input_bits)
    return FunctionTable(bits.sum(axis=1) % 2, 2)


def conditional_states(
    family: StateFamily, predicate: FunctionTable
) -> tuple[float, DensityMatrix, DensityMatrix]:
    """Prior weight of f(X)=0 and the stored states conditioned on f(X)=z.

    Rebuilds the binary decision instance whose optimal success probability
    is 1/2 + predicate_distance.  Requires both predicate values to carry
    positive prior mass (otherwise the distance is trivially 1/2).
    """
    weights = [family.prior.probs * (predicate.values == z) for z in (0, 1)]
    masses = [w.sum() for w in weights]
    if min(masses) <= 0.0:
        raise ValueError("predicate is constant on the prior's support")
    sigma0, sigma1 = (
        DensityMatrix(np.einsum("x,xij->ij", w, family.states) / m) for w, m in zip(weights, masses)
    )
    return float(masses[0]), sigma0, sigma1


def trace_product(a, b) -> float:
    """tr(a b) for equal-dimension Hermitian a, b; the result is real."""
    ah = as_hermitian(a)
    bh = as_hermitian(b)
    if ah.shape != bh.shape:
        raise ValueError(f"dimension mismatch: {ah.shape[0]} vs {bh.shape[0]}")
    return float(np.einsum("ij,ji->", ah, bh).real)


def point_mass(index: int, n: int) -> Distribution:
    p = np.zeros(n)
    p[index] = 1.0
    return Distribution(p)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def purity(rho: DensityMatrix) -> float:
    return float(np.einsum("ij,ji->", rho.matrix, rho.matrix).real)


def conjugated(family: StateFamily, unitary) -> StateFamily:
    """The family with every state rotated to U rho U^dag."""
    u = np.asarray(unitary, dtype=complex)
    return StateFamily(family.prior, u @ family.states @ u.conj().T)
