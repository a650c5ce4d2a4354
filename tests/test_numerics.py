import math
from fractions import Fraction

import numpy as np
import pytest

from guessbound.numerics import (
    as_hermitian,
    binomial_deviation_sum,
    central_binomial_mass,
    factorial_sum_half,
    factorial_sum_identities,
    factorial_sum_integer,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    schur_check,
    stirling_log_bounds,
    trace_norm,
    trace_product,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KETP = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def projector(vec):
    return np.outer(vec, vec.conj())


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_eigenvalues_diagonal():
    assert np.allclose(hermitian_eigenvalues(np.diag([1.0, -1.0])), [-1.0, 1.0])


def test_eigenvalues_zero_matrix():
    assert np.allclose(hermitian_eigenvalues(np.zeros((3, 3))), [0.0, 0.0, 0.0])


def test_eigenvalues_projector_difference():
    m = 0.5 * (projector(KET0) - projector(KETP))
    expected = 1.0 / (2.0 * np.sqrt(2.0))
    assert np.allclose(hermitian_eigenvalues(m), [-expected, expected], atol=1e-12)


def test_eigenvalues_match_characteristic_polynomial_2x2():
    # independent closed-form oracle: roots of mu^2 - tr mu + det
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_hermitian(rng, 2)
        tr = m.trace().real
        det = np.linalg.det(m).real
        disc = math.sqrt(max(tr * tr - 4 * det, 0.0))
        expected = sorted([(tr - disc) / 2, (tr + disc) / 2])
        assert np.allclose(hermitian_eigenvalues(m), expected, atol=1e-10)


def test_eigensystem_reconstruction():
    rng = np.random.default_rng(1)
    for dim in (1, 2, 3, 5, 8):
        m = random_hermitian(rng, dim)
        w, v = hermitian_eigensystem(m)
        residual = np.abs(m - (v * w) @ v.conj().T).max()
        assert residual <= 1e-9 * dim


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(2)
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        m = random_hermitian(rng, dim)
        w = hermitian_eigenvalues(m)
        assert abs(w.sum() - m.trace().real) <= 1e-9
        assert trace_norm(m) >= abs(m.trace().real) - 1e-12


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        as_hermitian(np.array([[0.0, 1e-8], [0.0, 0.0]]))
    # drift below tolerance is symmetrized away
    out = as_hermitian(np.array([[1.0, 1e-12], [0.0, 1.0]]))
    assert np.allclose(out, out.conj().T)
    # a stack is checked as a whole and symmetrized matrix by matrix
    stack = np.stack([np.eye(2), np.array([[1.0, 1e-12], [0.0, 1.0]])])
    out = as_hermitian(stack)
    assert out.shape == (2, 2, 2) and np.array_equal(out, out.conj().swapaxes(-1, -2))
    with pytest.raises(ValueError):
        as_hermitian(np.stack([np.eye(2), np.array([[0.0, 1e-8], [0.0, 0.0]])]))


def test_trace_product_projectors():
    assert trace_product(projector(KET0), projector(KET1)) == pytest.approx(0.0)
    assert trace_product(projector(KET0), projector(KET0)) == pytest.approx(1.0)
    assert trace_product(projector(KET0), projector(KETP)) == pytest.approx(0.5)


def test_trace_product_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_product(np.eye(2), np.eye(3))


def test_trace_norm_values():
    assert trace_norm(np.diag([0.3, -0.3])) == pytest.approx(0.6)
    m = 0.5 * (projector(KET0) - projector(KETP))
    assert trace_norm(m) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_trace_norm_psd_equals_trace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        psd = g @ g.conj().T
        assert trace_norm(psd) == pytest.approx(psd.trace().real, rel=1e-10)


def test_schur_hermitian_equality():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = random_hermitian(rng, int(rng.integers(1, 9)))
        check = schur_check(m)
        assert check.normal
        assert abs(check.eigen_square_sum - check.gram_trace) <= 1e-9


def test_schur_nilpotent():
    check = schur_check(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert check.eigen_square_sum == pytest.approx(0.0, abs=1e-12)
    assert check.gram_trace == pytest.approx(1.0)
    assert not check.normal


def test_schur_property_random_matrices():
    rng = np.random.default_rng(5)
    strict = 0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        check = schur_check(m)
        assert check.eigen_square_sum <= check.gram_trace + 1e-9
        if not check.normal:
            strict += 1
            assert check.eigen_square_sum < check.gram_trace
    assert strict > 150  # random matrices are essentially never normal


def test_normal_matrix_trace_inequality():
    # |tr A|^2 <= dim * tr(A A^dag) for normal A
    rng = np.random.default_rng(6)
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        u = random_unitary(rng, dim)
        d = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        a = (u * d) @ u.conj().T
        check = schur_check(a)
        assert check.normal
        assert abs(a.trace()) ** 2 <= dim * check.gram_trace + 1e-9


def test_central_binomial_mass_values():
    assert central_binomial_mass(2) == Fraction(1, 2)
    assert central_binomial_mass(4) == Fraction(3, 8)
    assert central_binomial_mass(8) == Fraction(math.comb(8, 4), 256)


def test_central_binomial_mass_validation():
    for bad in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            central_binomial_mass(bad)


def test_central_binomial_mass_asymptotics():
    # the scaled mass climbs to 1 with deficit below 1/(4m)
    previous = 0.0
    for exponent in range(1, 15):
        m = 2**exponent
        ratio = float(central_binomial_mass(m)) * math.sqrt(math.pi * m / 2)
        assert previous < ratio < 1.0
        assert 1.0 - ratio < 1.0 / (4 * m)
        previous = ratio


def test_binomial_deviation_sum_small():
    lhs, rhs = binomial_deviation_sum(1)
    assert lhs == rhs == Fraction(1)


def test_factorial_sum_integer_small():
    lhs, rhs = factorial_sum_integer(1, 1)
    assert lhs == rhs == Fraction(1, 4)


def test_factorial_sum_half_small():
    lhs, rhs = factorial_sum_half(0, 0)
    assert lhs == rhs == Fraction(1, 2)


def test_factorial_sum_identities_exhaustive():
    for a in range(0, 21):
        for b in range(0, 21):
            lhs, rhs = factorial_sum_integer(a, b)
            assert lhs == rhs
            lhs, rhs = factorial_sum_half(a, b)
            assert lhs == rhs
    for a in range(1, 21):
        for pair in factorial_sum_identities(a, a // 2):
            assert pair[0] == pair[1]


def test_factorial_sum_validation():
    with pytest.raises(ValueError):
        binomial_deviation_sum(0)
    with pytest.raises(ValueError):
        factorial_sum_integer(-1, 0)


def test_stirling_bounds_n1():
    lower, exact, upper = stirling_log_bounds(1)
    assert exact == 0.0
    assert math.exp(lower) == pytest.approx(0.99585, abs=1e-4)
    assert math.exp(upper) == pytest.approx(1.00227, abs=1e-4)
    assert lower < exact < upper


def test_stirling_strict_sandwich():
    for n in range(1, 171):
        lower, exact, upper = stirling_log_bounds(n)
        assert lower < exact < upper
        assert math.isfinite(upper)


def test_stirling_validation():
    with pytest.raises(ValueError):
        stirling_log_bounds(0)
