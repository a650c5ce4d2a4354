"""Hermitian linear algebra at small dimension and exact integer combinatorics.

The linear-algebra half validates its inputs (hermiticity within
``HERMITIAN_ATOL``, then symmetrization to kill float drift) and exposes the
spectral quantities the rest of the package is built on: eigenvalues, trace
norms, and the eigenvalue/Gram comparison behind Schur's inequality.  The
combinatorial half works in exact rational arithmetic
(`fractions.Fraction`) with log-space factorials where overflow threatens.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

HERMITIAN_ATOL = 1e-10
NORMALITY_ATOL = 1e-10


def as_square_matrix(matrix) -> np.ndarray:
    """Coerce to a complex square ndarray, or a `(..., d, d)` stack, or raise ValueError."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_hermitian(matrix, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate hermiticity within `atol` and return the symmetrized matrix (or stack)."""
    m = as_square_matrix(matrix)
    adjoint = m.conj().swapaxes(-1, -2)
    drift = np.abs(m - adjoint).max()
    if drift > atol:
        raise ValueError(f"matrix is not Hermitian (max |m - m^dag| = {drift:.3e})")
    return (m + adjoint) / 2


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(as_hermitian(matrix))


def hermitian_eigensystem(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and a unitary V with matrix = V diag(w) V^dag.

    The reconstruction residual ||m - V diag(w) V^dag|| stays below
    1e-9 * dim for validated inputs.
    """
    w, v = np.linalg.eigh(as_hermitian(matrix))
    return w, v


def trace_norm(matrix) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (its trace norm)."""
    return float(np.abs(hermitian_eigenvalues(matrix)).sum())


class SchurCheck(NamedTuple):
    """Both sides of the eigenvalue/Gram inequality for a square matrix."""

    eigen_square_sum: float  # sum of |eigenvalue|^2
    gram_trace: float  # tr(m m^dag)
    normal: bool  # commutes with its adjoint within NORMALITY_ATOL


def schur_check(matrix) -> SchurCheck:
    """Evaluate sum |mu_i|^2 against tr(m m^dag).

    The eigenvalue sum never exceeds the Gram trace, with equality exactly
    when the matrix is normal.
    """
    m = as_square_matrix(matrix)
    eigenvalues = np.linalg.eigvals(m)
    lhs = float((np.abs(eigenvalues) ** 2).sum())
    rhs = float(np.einsum("ij,ij->", m, m.conj()).real)
    commutator = m @ m.conj().T - m.conj().T @ m
    normal = bool(np.linalg.norm(commutator) <= NORMALITY_ATOL)
    return SchurCheck(lhs, rhs, normal)


def central_binomial_mass(m: int) -> Fraction:
    """Probability that a fair-coin binomial with m trials lands exactly on m/2.

    Exact rational binom(m, m/2) / 2^m; requires even m >= 2.  Decays like
    sqrt(2 / (pi m)).
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be an even integer >= 2, got {m}")
    return Fraction(math.comb(m, m // 2), 2**m)


def binomial_deviation_sum(a: int) -> tuple[Fraction, Fraction]:
    """Closed form for sum_z binom(2a, z) |1/2 - z/(2a)|.

    Returns the sum and its closed form binom(2a, a) / 2, both exact; they
    agree for every a >= 1.  (The summand is undefined at a = 0.)
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    lhs = sum(
        math.comb(2 * a, z) * abs(Fraction(1, 2) - Fraction(z, 2 * a))
        for z in range(2 * a + 1)
    )
    rhs = Fraction(math.comb(2 * a, a), 2)
    return lhs, rhs


def factorial_sum_integer(a: int, b: int) -> tuple[Fraction, Fraction]:
    """Closed form for sum_z z / ((a+z)!(a-z)!(b+z)!(b-z)!), z = 0..min(a,b).

    Returns the sum and its closed form a b / (2 (a+b) (a!)^2 (b!)^2), both
    exact, for a, b >= 0.  Both sides vanish when a or b is zero.
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    lhs = sum(
        Fraction(
            z,
            math.factorial(a + z)
            * math.factorial(a - z)
            * math.factorial(b + z)
            * math.factorial(b - z),
        )
        for z in range(min(a, b) + 1)
    )
    if a == 0 or b == 0:
        rhs = Fraction(0)
    else:
        rhs = Fraction(
            a * b,
            2 * (a + b) * math.factorial(a) ** 2 * math.factorial(b) ** 2,
        )
    return lhs, rhs


def factorial_sum_half(a: int, b: int) -> tuple[Fraction, Fraction]:
    """Closed form for sum_z (z + 1/2) / ((a+z+1)!(a-z)!(b+z+1)!(b-z)!).

    Returns the sum (z = 0..min(a,b)) and its closed form
    1 / (2 (a+b+1) (a!)^2 (b!)^2), both exact, for a, b >= 0.
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    lhs = sum(
        Fraction(
            2 * z + 1,
            2
            * math.factorial(a + z + 1)
            * math.factorial(a - z)
            * math.factorial(b + z + 1)
            * math.factorial(b - z),
        )
        for z in range(min(a, b) + 1)
    )
    rhs = Fraction(
        1, 2 * (a + b + 1) * math.factorial(a) ** 2 * math.factorial(b) ** 2
    )
    return lhs, rhs


def factorial_sum_identities(a: int, b: int):
    """All three factorial-sum identities as (lhs, rhs) Fraction pairs.

    The first identity needs a >= 1; the other two accept a, b >= 0.
    """
    return (
        binomial_deviation_sum(a),
        factorial_sum_integer(a, b),
        factorial_sum_half(a, b),
    )


def stirling_log_bounds(n: int) -> tuple[float, float, float]:
    """Strict two-sided bracket around log(n!), computed in log space.

    Returns (lower, log(n!), upper) with
    lower = log(sqrt(2 pi) n^(n+1/2) e^(-n + 1/(12n+1))) and the upper bound
    using exponent 1/(12n).  The sandwich is strict for every n >= 1 and
    stays finite far beyond the overflow point of n! itself.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    base = 0.5 * math.log(2 * math.pi) + (n + 0.5) * math.log(n) - n
    return (
        base + 1.0 / (12 * n + 1),
        math.lgamma(n + 1),
        base + 1.0 / (12 * n),
    )
