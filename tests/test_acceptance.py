"""Acceptance suite: every headline number and inequality at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (with elapsed time).
"""

import contextlib
import math
import time
from fractions import Fraction

import numpy as np

from guessbound.bounds import (
    balanced_predicate_bound,
    balanced_storage,
    classical_family_distance,
    classical_storage_lower_bound,
    collision_bound,
    pairwise_overlap_bound,
    privacy_amplification_experiment,
)
from guessbound.functions import (
    AffineFamily,
    BalancedPredicateFamily,
    ExplicitFamily,
    FunctionTable,
    InnerProductFamily,
    UniformFunctionFamily,
    compose,
    is_two_universal,
)
from guessbound.numerics import (
    factorial_sum_half,
    factorial_sum_identities,
    factorial_sum_integer,
    schur_check,
    stirling_log_bounds,
)
from guessbound.probability import ClassicalChannel, Distribution
from guessbound.quantum import (
    DensityMatrix,
    conditional_states,
    family_distance,
    helstrom_povm,
    helstrom_success,
    povm_success,
    predicate_distance,
    random_povm_success,
    random_state_family,
    tetrahedron_family,
)
from guessbound.rng import stream

TETRA_VALUE = 1.0 / (2.0 * math.sqrt(3.0))


@contextlib.contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert budget_seconds is None or elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )
    print(f"criterion {number:2d} ({name}): PASS [{elapsed:.2f}s]")


def test_01_one_classical_bit_optimum():
    with criterion(1, "one-bit classical storage optimum", budget_seconds=1.0):
        predicates = BalancedPredicateFamily(4)
        prior = Distribution.uniform(4)
        values = {}
        for code in range(16):
            table = FunctionTable(np.array([(code >> x) & 1 for x in range(4)]), 2)
            values[code] = classical_family_distance(table, prior, predicates)
        best = max(values.values())
        assert abs(best - 0.25) <= 1e-12
        and_code = 0b1000  # sigma(x1, x2) = x1 * x2 maps only index 3 to 1
        assert abs(values[and_code] - 0.25) <= 1e-12
        rng = stream(20)
        for _ in range(200):
            channel = ClassicalChannel(rng.dirichlet(np.ones(2), size=4))
            assert classical_family_distance(channel, prior, predicates) <= 0.25 + 1e-12


def test_02_one_qubit_optimum():
    with criterion(2, "one-qubit storage optimum", budget_seconds=10.0):
        predicates = BalancedPredicateFamily(4)
        exact = family_distance(tetrahedron_family(), predicates)
        assert abs(exact - TETRA_VALUE) <= 1e-9
        bound = pairwise_overlap_bound(tetrahedron_family(), predicates)
        assert abs(bound - TETRA_VALUE) <= 1e-9
        for index in range(200):
            purity = "pure" if index < 100 else "mixed"
            family = random_state_family(2, 4, purity, stream(21, index))
            assert family_distance(family, predicates) <= TETRA_VALUE + 1e-9


def test_03_optimal_binary_decision():
    with criterion(3, "optimal binary decision vs sampled measurements", budget_seconds=30.0):
        rng = stream(22)
        for index in range(100):
            dim = int(rng.integers(2, 5))
            q = float(rng.random())
            rho0 = DensityMatrix(random_state_family(dim, 1, "mixed", rng).states[0])
            rho1 = DensityMatrix(random_state_family(dim, 1, "mixed", rng).states[0])
            optimal = helstrom_success(q, rho0, rho1)
            achieved = povm_success(q, rho0, rho1, helstrom_povm(q, rho0, rho1))
            assert abs(achieved - optimal) <= 1e-9
            sampled = random_povm_success(q, rho0, rho1, trials=1000, seed=stream(23, index))
            assert sampled <= optimal + 1e-9


def test_04_conditional_state_consistency():
    with criterion(4, "signed-mixture vs conditional-state route"):
        rng = stream(24)
        checked = 0
        while checked < 100:
            dim = int(rng.integers(2, 5))
            domain = int(rng.integers(2, 9))
            family = random_state_family(dim, domain, ("pure", "mixed")[checked % 2], rng)
            values = rng.integers(0, 2, domain)
            if values.min() == values.max():
                continue
            table = FunctionTable(values, 2)
            q0, sigma0, sigma1 = conditional_states(family, table)
            assert abs(
                predicate_distance(family, table) - (helstrom_success(q0, sigma0, sigma1) - 0.5)
            ) <= 1e-9
            checked += 1


def test_05_bound_dominance_chain():
    with criterion(5, "exact <= overlap bound <= collision bound"):
        rng = stream(25)
        builders = (
            lambda n: UniformFunctionFamily(2**n, 2),
            lambda n: BalancedPredicateFamily(2**n),
            lambda n: AffineFamily(n, 1),
            lambda n: InnerProductFamily(n),
        )
        for index in range(100):
            n = int(rng.integers(1, 4))
            dim = int(rng.integers(1, 5))
            predicates = builders[index % 4](n)
            assert is_two_universal(predicates).two_universal
            states = random_state_family(dim, 2**n, ("pure", "mixed")[index % 2], rng)
            exact = family_distance(states, predicates)
            overlap = pairwise_overlap_bound(states, predicates)
            universal = collision_bound(states.prior, dim)
            assert overlap - exact >= -1e-9
            assert universal - overlap >= -1e-9


def test_06_balanced_storage_exact_distance():
    with criterion(6, "balanced storage achieves the exact rational value", budget_seconds=60.0):
        expected = {1: Fraction(1, 4), 2: Fraction(3, 16), 3: Fraction(35, 256)}
        for n in (2, 3, 4):
            for s in range(1, n):
                sigma = balanced_storage(n, s)
                exact = classical_family_distance(
                    sigma, Distribution.uniform(2**n), UniformFunctionFamily(2**n, 2)
                )
                oracle = classical_storage_lower_bound(n, s)
                assert oracle == expected[n - s]
                assert abs(exact - float(oracle)) <= 1e-12


def test_07_uniformity_recovery_from_balanced_predicates():
    with criterion(7, "distance from uniform vs balanced-predicate distances", budget_seconds=60.0):
        witness = balanced_predicate_bound(Distribution([0.5, 0.5, 0.0, 0.0]))
        assert witness.satisfied
        assert abs(witness.exact_value - witness.bound_value) <= 1e-12
        for task, alphabet in enumerate((2, 4, 6, 8, 16)):
            rng = stream(26, task)
            max_ratio = 0.0
            for _ in range(500):
                report = balanced_predicate_bound(Distribution(rng.dirichlet(np.ones(alphabet))))
                assert report.satisfied
                max_ratio = max(max_ratio, report.context["ratio"])
            assert max_ratio <= 1.0 + 1e-9


def test_08_composition_preserves_two_universality():
    with criterion(8, "composed hash families stay two-universal"):
        rng = stream(27)
        checked = 0
        for output_bits, max_input in ((1, 4), (2, 3), (3, 2)):
            for _ in range(17):
                input_bits = int(rng.integers(1, max_input + 1))
                base = AffineFamily(input_bits, output_bits)
                perm = rng.permutation(2**input_bits)
                tables = []
                for _, t in base.support():
                    out_perm = rng.permutation(2**output_bits)
                    tables.append(FunctionTable(out_perm[t.values[perm]], t.range_size))
                inner = ExplicitFamily(tables)
                assert is_two_universal(inner).two_universal
                composed = compose(BalancedPredicateFamily(2**output_bits), inner)
                assert is_two_universal(composed).two_universal
                checked += 1
        assert checked >= 50


def test_09_hashed_key_security():
    with criterion(9, "hashed one-bit keys stay within the security bound"):
        hashes = AffineFamily(4, 1)
        for index in range(50):
            encoding = random_state_family(2, 16, "pure", stream(28, index))
            report = privacy_amplification_experiment(encoding, hashes, storage_bits=1)
            assert report.bound_value == 0.375
            assert report.exact_value is not None
            assert report.exact_value <= 0.375 + 1e-9
            assert report.satisfied
        classical = privacy_amplification_experiment(
            balanced_storage(4, 1), hashes, storage_bits=1
        )
        assert classical.satisfied
        assert classical.exact_value <= 0.375 + 1e-9


def test_10_combinatorial_and_spectral_identities():
    with criterion(10, "exact identities and spectral inequalities"):
        for a in range(0, 21):
            for b in range(0, 21):
                lhs, rhs = factorial_sum_integer(a, b)
                assert lhs == rhs
                lhs, rhs = factorial_sum_half(a, b)
                assert lhs == rhs
        for a in range(1, 21):
            for lhs, rhs in factorial_sum_identities(a, 20 - a):
                assert lhs == rhs
        for n in range(1, 171):
            lower, exact, upper = stirling_log_bounds(n)
            assert lower < exact < upper
        rng = stream(29)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            check = schur_check(m)
            assert check.eigen_square_sum <= check.gram_trace + 1e-9
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            unitary, _ = np.linalg.qr(g)
            diagonal = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            normal = (unitary * diagonal) @ unitary.conj().T
            check = schur_check(normal)
            assert check.normal
            assert abs(normal.trace()) ** 2 <= dim * check.gram_trace + 1e-9
