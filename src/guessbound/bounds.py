"""Every bound on stored-predicate knowledge, paired with an exact comparator.

Upper bounds: the pairwise-overlap bound for arbitrary predicate families,
its two-universal specialization in terms of the collision probability, the
transfer from predicates to wider hash ranges, and the resulting privacy-
amplification bound.  Lower bound: the exact value achieved by balanced
classical storage against uniformly random predicates.  Each check returns
a `BoundReport` whose `satisfied` flag compares the bound against an exact
(or, where exactness is impossible, a clearly-labelled sampled) value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .functions import (
    BalancedPredicateFamily,
    FunctionFamily,
    FunctionTable,
    _member_blocks,
    agreement_matrix,
)
from .numerics import central_binomial_mass
from .probability import ClassicalChannel, Distribution, dist_from_uniform
from .quantum import StateFamily, family_distance, sampled_measurement_distance

SATISFACTION_ATOL = 1e-9
MAX_HASHING_ALPHABET = 16


@dataclass
class BoundReport:
    """One bound evaluation: the bound, what it was compared against, verdict.

    `exact_value` is None when no exact comparator exists (then `satisfied`
    refers to the sampled value recorded in `context`).  `vacuous` marks
    bounds too weak to constrain the quantity they bound.
    """

    bound_value: float
    exact_value: float | None
    satisfied: bool
    context: dict = field(default_factory=dict)
    vacuous: bool = False


def pairwise_overlap_bound(family: StateFamily, predicates: FunctionFamily) -> float:
    """Eigenvalue-free upper bound on the optimally-measured family distance.

    (1/2) sqrt(d * sum_{x,x'} P(x) P(x') lambda_{x,x'} tr(rho_x rho_x'))
    with lambda the predicate agreement coefficients.  Valid for any
    predicate family; tight for the tetrahedron family under balanced
    predicates.
    """
    if predicates.domain_size != family.domain_size:
        raise ValueError("predicate domain must match the state family")
    lam = agreement_matrix(predicates)
    gram = np.einsum("xij,yji->xy", family.states, family.states).real
    p = family.prior.probs
    total = float(np.einsum("x,y,xy,xy->", p, p, lam, gram))
    return 0.5 * math.sqrt(family.dim * max(total, 0.0))


def collision_bound(prior: Distribution, dim: int) -> float:
    """Upper bound for two-universal predicate families, storage-independent.

    (1/2) sqrt(dim * collision probability of the prior); with dim = 2^s
    this reads (1/2) 2^{-(R - s)/2} for R the order-2 Renyi entropy.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    return 0.5 * math.sqrt(dim * prior.collision_probability())


def classical_storage_lower_bound(n: int, s: int) -> Fraction:
    """Exact distance achieved by balanced classical storage, as a rational.

    Equals half the central binomial mass of m = 2^(n-s): storing s bits of
    a uniform n-bit string via any balanced storage function leaves exactly
    this much knowledge about a uniformly random predicate.  Decays like
    2^-(n-s)/2 / sqrt(2 pi), matching the quantum upper bound's exponent.

    This is a value that s classical bits achieve, not the classical
    optimum: at n = 2, s = 1, storage with preimage sizes (1, 3) reaches
    5/16 against the 1/4 of balanced storage.
    """
    if not 0 <= s < n:
        raise ValueError(f"need 0 <= s < n, got n={n}, s={s}")
    return central_binomial_mass(2 ** (n - s)) / 2


def balanced_storage(n: int, s: int) -> FunctionTable:
    """Truncation of an n-bit string to its first s bits (low-order bits).

    Every output has exactly 2^(n-s) preimages; with a uniform prior and
    uniformly random predicates this storage achieves
    `classical_storage_lower_bound` exactly.
    """
    if not 0 <= s < n:
        raise ValueError(f"need 0 <= s < n, got n={n}, s={s}")
    if n > 16:
        raise ValueError("storage tables are enumerated only up to n = 16 bits")
    inputs = np.arange(2**n)
    return FunctionTable(inputs & ((1 << s) - 1), 2**s)


def classical_family_distance(storage, prior: Distribution, functions: FunctionFamily) -> float:
    """Exact distance of f(X) from uniform given classical storage, averaged over f.

    `storage` is a deterministic `FunctionTable` or a stochastic
    `ClassicalChannel` from the input alphabet to the stored value.  A
    classical memory can be read in full, so for every f this is the plain
    conditional distance given the stored value.
    """
    if isinstance(storage, FunctionTable):
        inputs = storage.domain_size
    elif isinstance(storage, ClassicalChannel):
        inputs = storage.input_size
    else:
        raise TypeError("storage must be a FunctionTable or a ClassicalChannel")
    if inputs != functions.domain_size:
        raise ValueError("function domain must match the storage domain")
    if prior.size != inputs:
        raise ValueError("prior must match the storage domain")
    if isinstance(storage, FunctionTable):
        mass = np.zeros((inputs, storage.range_size))
        mass[np.arange(inputs), storage.values] = prior.probs
    else:
        mass = prior.probs[:, None] * storage.rows
    stored_mass = mass.sum(axis=0)
    weights, values = functions.support_matrix()
    r = functions.range_size
    if r == 2:
        zero_mass = (values == 0) @ mass  # (support, stored)
        distances = np.abs(zero_mass - stored_mass / 2).sum(axis=1)
    else:
        distances = np.zeros(len(weights))
        for block in _member_blocks(len(weights), inputs + mass.shape[1]):
            for z in range(r):
                joint = (values[block] == z) @ mass  # Pr[f(X) = z, stored value]
                distances[block] += np.abs(joint - stored_mass / r).sum(axis=1)
        distances *= 0.5
    return float(weights @ distances)


@functools.lru_cache(maxsize=None)
def _balanced_zero_sets(n: int) -> np.ndarray:
    """Indicator matrix of the 0-preimage of every balanced predicate on n points."""
    _, values = BalancedPredicateFamily(n).support_matrix()
    return (values == 0).astype(float)


def balanced_predicate_bound(q: Distribution) -> BoundReport:
    """Bound the distance of Q from uniform by its balanced-predicate distances.

    d(Q) <= (3/2) sqrt(|alphabet|) E_f[d(f(X'))] with f a uniformly random
    balanced predicate and X' distributed as Q; the right-hand side is
    enumerated exactly.  Equality is achieved e.g. by (1/2, 1/2, 0, 0).
    """
    n = q.size
    if n % 2 != 0 or n < 2:
        raise ValueError("balanced predicates need an even alphabet")
    if n > MAX_HASHING_ALPHABET:
        raise ValueError(f"exact balanced enumeration is capped at alphabet {MAX_HASHING_ALPHABET}")
    predicate_distances = np.abs(_balanced_zero_sets(n) @ q.probs - 0.5)
    rhs = 1.5 * math.sqrt(n) * float(predicate_distances.mean())
    lhs = dist_from_uniform(q)
    return BoundReport(
        bound_value=rhs,
        exact_value=lhs,
        satisfied=lhs <= rhs + SATISFACTION_ATOL,
        context={"alphabet": n, "ratio": lhs / rhs if rhs > 0 else 0.0},
    )


def predicate_to_function_bound(epsilon: float, range_size: int) -> float:
    """Distance budget for hash ranges of size |Y| from a predicate budget.

    If every two-universal predicate family yields distance at most epsilon,
    every two-universal family into Y stays below (3/2) sqrt(|Y|) epsilon.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if range_size < 1:
        raise ValueError("range_size must be positive")
    return 1.5 * math.sqrt(range_size) * epsilon


def privacy_amplification_bound(renyi_bits: float, storage_bits: int, key_bits: int) -> float:
    """Distance of a k-bit hashed key from uniform given s stored qubits.

    (3/4) 2^{-(R - s - k)/2} for a source of order-2 Renyi entropy R hashed
    by a two-universal family to k bits.  Returned even when vacuous
    (larger than the maximal distance 1 - 2^-k).
    """
    return 0.75 * 2 ** (-(renyi_bits - storage_bits - key_bits) / 2)


def _key_bits(hash_family: FunctionFamily) -> int:
    key_bits = int(round(math.log2(hash_family.range_size)))
    if 2**key_bits != hash_family.range_size:
        raise ValueError("hash range must be a power of two (a k-bit key)")
    return key_bits


def privacy_amplification_experiment(
    encoding,
    hash_family: FunctionFamily,
    storage_bits: int,
    prior: Distribution | None = None,
    povm_trials: int = 50,
    seed: int = 0,
) -> BoundReport:
    """Compare the privacy-amplification bound against the achieved distance.

    `encoding` is a `StateFamily` (quantum memory of 2^storage_bits
    dimensions) or a `FunctionTable` (classical storage into storage_bits
    bits).  For quantum encodings the achieved distance is exact for 1-bit
    keys; for wider keys only the bound plus a sampled-measurement lower
    bound is reported, never a claimed exact value.  Classical storage is
    evaluated exactly for any key width within enumeration caps.
    """
    key_bits = _key_bits(hash_family)
    context: dict = {"s": storage_bits, "k": key_bits, "family": hash_family.kind}

    if isinstance(encoding, StateFamily):
        if encoding.dim != 2**storage_bits:
            raise ValueError("state dimension must be 2^storage_bits")
        if prior is not None:
            raise ValueError("quantum encodings carry their own prior")
        prior = encoding.prior
        context["encoding"] = "quantum"
        context["dim"] = encoding.dim
        if key_bits == 1:
            exact = family_distance(encoding, hash_family)
        else:
            exact = None
            context["sampled_lower_bound"] = sampled_measurement_distance(
                encoding, hash_family, povm_trials, seed
            )
    elif isinstance(encoding, FunctionTable):
        if encoding.range_size != 2**storage_bits:
            raise ValueError("storage range must be 2^storage_bits")
        if prior is None:
            prior = Distribution.uniform(encoding.domain_size)
        context["encoding"] = "classical"
        exact = classical_family_distance(encoding, prior, hash_family)
    else:
        raise TypeError("encoding must be a StateFamily or a FunctionTable")

    renyi = prior.renyi_entropy()
    context["n"] = renyi
    bound = privacy_amplification_bound(renyi, storage_bits, key_bits)
    if exact is not None:
        satisfied = exact <= bound + SATISFACTION_ATOL
    else:
        satisfied = context["sampled_lower_bound"] <= bound + SATISFACTION_ATOL
    return BoundReport(
        bound_value=bound,
        exact_value=exact,
        satisfied=bool(satisfied),
        context=context,
        vacuous=bound > 1.0 - 2.0**-key_bits + SATISFACTION_ATOL,
    )
