"""Function tables, random-function families, and two-universality checks.

Domain and range elements are indices.  For bit-string domains the fixed
convention is little-endian: bit i of the index is bit i of the string.
Tables are dense integer arrays, which keeps exhaustive loops cheap.

Families are weighted finite sets of tables.
`FunctionFamily.support_matrix` is the one enumerator: it builds the
``(weights, values)`` pair of the whole family once, in a vectorized
per-family ``_enumerate``, and caches it read-only on the (immutable) family.
``values`` holds the smallest unsigned dtype that fits the range.  Kernels
that consume it work through the members in blocks of about
``BLOCK_ELEMENTS`` temporary elements, so their peak memory does not grow
with the family size.  Enumeration is capped at ``ENUMERATION_CAP`` support
members; beyond the cap every exact operation raises `EnumerationCapError`,
never a silent sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .probability import Distribution

ENUMERATION_CAP = 65536
_CAP_BITS = ENUMERATION_CAP.bit_length()  # 2**_CAP_BITS members are past the cap
TWO_UNIVERSAL_ATOL = 1e-12
MAX_CHECKED_DOMAIN = 256
BLOCK_ELEMENTS = 1 << 16


class EnumerationCapError(ValueError):
    """Raised when an exact operation would enumerate past ENUMERATION_CAP."""


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Explicit map from 0..domain_size-1 to 0..range_size-1."""

    values: np.ndarray
    range_size: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("table values must be a nonempty 1-d array")
        if self.range_size < 1:
            raise ValueError("range_size must be positive")
        if v.min() < 0 or v.max() >= self.range_size:
            raise ValueError("table values must lie in [0, range_size)")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def domain_size(self) -> int:
        return self.values.size

    def __call__(self, x: int) -> int:
        return int(self.values[x])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctionTable)
            and self.range_size == other.range_size
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.range_size, self.values.tobytes()))


def _parity_table(num_bits: int) -> np.ndarray:
    """table[a, x] = parity of a & x, the GF(2) inner product of two bit strings."""
    table = np.zeros((1, 1), dtype=np.uint8)
    for _ in range(num_bits):
        # the new top bit adds a_top * x_top to the parity of the lower bits
        table = np.block([[table, table], [table, table ^ 1]])
    return table


def _member_blocks(count: int, elements_per_member: int) -> Iterator[slice]:
    """Consecutive slices of `count` members, about BLOCK_ELEMENTS elements each."""
    step = max(1, BLOCK_ELEMENTS // elements_per_member)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


class FunctionFamily:
    """Weighted finite set of function tables."""

    kind: str = "abstract"
    domain_size: int
    range_size: int
    _support: tuple[np.ndarray, np.ndarray] | None = None

    def support_size(self) -> int:
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    def _enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights and values of every member, in the family's documented order."""
        raise NotImplementedError

    def _within_cap(self) -> bool:
        """At most ENUMERATION_CAP members; overridden where the exact count can be huge."""
        return self.support_size() <= ENUMERATION_CAP

    def check_cap(self):
        """Raise EnumerationCapError if the family has more than ENUMERATION_CAP members."""
        if not self._within_cap():
            raise EnumerationCapError(
                f"{self.kind} family has more than {ENUMERATION_CAP} members, "
                "the exact-enumeration cap"
            )

    def support_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights and stacked table values, shape (support, domain).

        Enumerated once per family and cached; both arrays are read-only and
        shared by every caller.  Values use the smallest unsigned dtype that
        holds range_size - 1.
        """
        if self._support is None:
            self.check_cap()
            weights, values = self._enumerate()
            weights = np.array(weights, dtype=float)
            values = np.asarray(values, dtype=np.min_scalar_type(self.range_size - 1))
            weights.flags.writeable = False
            values.flags.writeable = False
            self._support = (weights, values)
        return self._support


def _uniform_weights(size: int) -> np.ndarray:
    return np.full(size, 1.0 / size)


class UniformFunctionFamily(FunctionFamily):
    """Uniformly random function from the domain to the range."""

    kind = "uniform-all"

    def __init__(self, domain_size: int, range_size: int = 2):
        if domain_size < 1 or range_size < 1:
            raise ValueError("domain_size and range_size must be positive")
        self.domain_size = domain_size
        self.range_size = range_size

    def params(self) -> dict:
        return {"domain_size": self.domain_size, "range_size": self.range_size}

    def support_size(self) -> int:
        return self.range_size**self.domain_size

    def _within_cap(self) -> bool:
        # with two or more values, _CAP_BITS points already give 2**_CAP_BITS members
        return self.range_size ** min(self.domain_size, _CAP_BITS) <= ENUMERATION_CAP

    def _enumerate(self):
        # table index t maps x to digit x of t written base range_size
        size = self.support_size()
        values = np.empty((size, self.domain_size), dtype=np.min_scalar_type(self.range_size - 1))
        rest = np.arange(size, dtype=np.int64)
        for x in range(self.domain_size):
            rest, values[:, x] = np.divmod(rest, self.range_size)
        return _uniform_weights(size), values


class BalancedPredicateFamily(FunctionFamily):
    """Uniformly random balanced predicate on an even-size domain."""

    kind = "uniform-balanced"
    range_size = 2

    def __init__(self, domain_size: int):
        if domain_size < 2 or domain_size % 2 != 0:
            raise ValueError("balanced predicates need an even domain of size >= 2")
        self.domain_size = domain_size

    def params(self) -> dict:
        return {"domain_size": self.domain_size}

    def support_size(self) -> int:
        return math.comb(self.domain_size, self.domain_size // 2)

    def _within_cap(self) -> bool:
        # C(2m, m) >= 2**m, so half a domain of _CAP_BITS points is past the cap
        return self.domain_size // 2 < _CAP_BITS and self.support_size() <= ENUMERATION_CAP

    def _enumerate(self):
        # member i is 1 exactly on the i-th half-size subset in lexicographic order
        size, half = self.support_size(), self.domain_size // 2
        ones = np.fromiter(
            itertools.combinations(range(self.domain_size), half),
            dtype=(np.intp, half),
            count=size,
        )
        values = np.zeros((size, self.domain_size), dtype=np.uint8)
        values[np.arange(size)[:, None], ones] = 1
        return _uniform_weights(size), values


class AffineFamily(FunctionFamily):
    """h(x) = A x xor b over GF(2) with uniformly random A, b.

    Maps input_bits-bit strings to output_bits-bit strings; a concrete
    two-universal workhorse requiring (output_bits * (input_bits + 1))
    random bits per draw.  Member i has row j of A in bits
    j*input_bits .. (j+1)*input_bits - 1 of i and b in the bits above.
    """

    kind = "affine-gf2"

    def __init__(self, input_bits: int, output_bits: int = 1):
        if input_bits < 1 or output_bits < 1:
            raise ValueError("input_bits and output_bits must be positive")
        self.input_bits = input_bits
        self.output_bits = output_bits
        self.domain_size = 2**input_bits
        self.range_size = 2**output_bits

    def params(self) -> dict:
        return {"input_bits": self.input_bits, "output_bits": self.output_bits}

    def support_size(self) -> int:
        return 2 ** (self.output_bits * (self.input_bits + 1))

    def _enumerate(self):
        n, k = self.input_bits, self.output_bits
        size = self.support_size()
        parity = _parity_table(n)
        index = np.arange(size, dtype=np.int64)
        values = np.zeros((size, self.domain_size), dtype=np.min_scalar_type(self.range_size - 1))
        for j in range(k):
            bits = parity[(index >> (j * n)) & (self.domain_size - 1)]
            bits ^= ((index >> (k * n + j)) & 1).astype(np.uint8)[:, None]
            values |= bits.astype(values.dtype, copy=False) << j
        return _uniform_weights(size), values


class InnerProductFamily(FunctionFamily):
    """Predicate <a, x> over GF(2) with a uniformly random mask a."""

    kind = "inner-product"
    range_size = 2

    def __init__(self, input_bits: int):
        if input_bits < 1:
            raise ValueError("input_bits must be positive")
        self.input_bits = input_bits
        self.domain_size = 2**input_bits

    def params(self) -> dict:
        return {"input_bits": self.input_bits}

    def support_size(self) -> int:
        return 2**self.input_bits

    def _enumerate(self):
        # member a is the mask a
        return _uniform_weights(self.support_size()), _parity_table(self.input_bits)


class ExplicitFamily(FunctionFamily):
    """Explicit weighted list of tables over a common domain and range."""

    kind = "explicit"

    def __init__(self, tables, weights=None):
        tables = tuple(tables)
        if not tables:
            raise ValueError("explicit family needs at least one table")
        domains = {t.domain_size for t in tables}
        ranges = {t.range_size for t in tables}
        if len(domains) != 1 or len(ranges) != 1:
            raise ValueError("all tables must share domain and range")
        if weights is None:
            weights = Distribution.uniform(len(tables))
        elif not isinstance(weights, Distribution):
            weights = Distribution(weights)
        if weights.size != len(tables):
            raise ValueError("one weight per table required")
        self.tables = tables
        self.weights = weights
        self.domain_size = tables[0].domain_size
        self.range_size = tables[0].range_size

    def params(self) -> dict:
        return {
            "tables": [t.values.tolist() for t in self.tables],
            "range_size": self.range_size,
            "weights": [float(w) for w in self.weights.probs],
        }

    def support_size(self) -> int:
        return len(self.tables)

    def _enumerate(self):
        return self.weights.probs, np.stack([t.values for t in self.tables])


class ComposedFamily(FunctionFamily):
    """outer after inner, with the two factors drawn independently.

    Member i_inner * outer.support_size() + i_outer is outer member i_outer
    after inner member i_inner.
    """

    kind = "composed"

    def __init__(self, outer: FunctionFamily, inner: FunctionFamily):
        if outer.domain_size != inner.range_size:
            raise ValueError("outer domain must equal inner range")
        self.outer = outer
        self.inner = inner
        self.domain_size = inner.domain_size
        self.range_size = outer.range_size

    def params(self) -> dict:
        return {
            "outer": {"kind": self.outer.kind, "params": self.outer.params(), "seed": None},
            "inner": {"kind": self.inner.kind, "params": self.inner.params(), "seed": None},
        }

    def support_size(self) -> int:
        return self.outer.support_size() * self.inner.support_size()

    def _enumerate(self):
        inner_weights, inner_values = self.inner.support_matrix()
        outer_weights, outer_values = self.outer.support_matrix()
        outer_index = np.arange(len(outer_weights))[None, :, None]
        values = outer_values[outer_index, inner_values[:, None, :]]
        weights = np.multiply.outer(inner_weights, outer_weights)
        return weights.ravel(), values.reshape(-1, self.domain_size)


def compose(outer: FunctionFamily, inner: FunctionFamily) -> ComposedFamily:
    """Family of outer(inner(x)) with independent draws of the two factors."""
    return ComposedFamily(outer, inner)


def collision_matrix(family: FunctionFamily) -> np.ndarray:
    """Exact pairwise collision probabilities Pr[f(x) = f(x')] for all x, x'.

    Each weight is split into a head on the grid 2^-30 and a tail below
    half a grid step.  Heads of weights summing to 1 add up
    exactly in any order, so only the small tails carry rounding: the result
    is within about one rounding of the exact value, and equal to it when
    every weight lies on the grid (any dyadic weight down to that step).
    """
    weights, values = family.support_matrix()
    scale = 2.0**30
    head = np.round(weights * scale) / scale
    tail = weights - head
    heads = np.zeros((family.domain_size, family.domain_size))
    tails = np.zeros_like(heads)
    for block in _member_blocks(len(weights), family.domain_size):
        for z in range(family.range_size):
            onehot = (values[block] == z).astype(float)
            heads += (head[block, None] * onehot).T @ onehot
            tails += (tail[block, None] * onehot).T @ onehot
    return heads + tails


class TwoUniversalReport(NamedTuple):
    two_universal: bool
    worst_pair: tuple[int, int]
    worst_probability: float
    threshold: float


def is_two_universal(family: FunctionFamily) -> TwoUniversalReport:
    """Exact two-universality check over every distinct input pair.

    True when the worst pairwise collision probability stays within
    1/range_size (plus TWO_UNIVERSAL_ATOL of float headroom).
    """
    if family.domain_size > MAX_CHECKED_DOMAIN:
        raise EnumerationCapError(
            f"two-universality check enumerates all input pairs; domain "
            f"{family.domain_size} exceeds {MAX_CHECKED_DOMAIN}"
        )
    threshold = 1.0 / family.range_size
    if family.domain_size == 1:
        # no distinct pairs to collide on
        return TwoUniversalReport(True, (0, 0), 0.0, threshold)
    matrix = collision_matrix(family)
    np.fill_diagonal(matrix, -1.0)
    flat = int(matrix.argmax())
    pair = (flat // family.domain_size, flat % family.domain_size)
    worst = float(matrix[pair])
    return TwoUniversalReport(
        worst <= threshold + TWO_UNIVERSAL_ATOL, pair, worst, threshold
    )


def agreement_matrix(family: FunctionFamily) -> np.ndarray:
    """Matrix of agreement coefficients; the diagonal is identically 1."""
    if family.range_size != 2:
        raise ValueError("agreement coefficient is defined for predicate families")
    return 2.0 * collision_matrix(family) - 1.0
