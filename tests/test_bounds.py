import math
from fractions import Fraction

import numpy as np
import pytest

from guessbound.bounds import (
    balanced_predicate_bound,
    balanced_storage,
    classical_family_distance,
    classical_storage_lower_bound,
    collision_bound,
    pairwise_overlap_bound,
    predicate_to_function_bound,
    privacy_amplification_bound,
    privacy_amplification_experiment,
)
from guessbound import functions
from guessbound.functions import (
    AffineFamily,
    BalancedPredicateFamily,
    FunctionTable,
    InnerProductFamily,
    UniformFunctionFamily,
)
from guessbound.probability import (
    ClassicalChannel,
    Distribution,
    JointDistribution,
    cond_dist_from_uniform,
)
from guessbound.quantum import (
    DensityMatrix,
    StateFamily,
    family_distance,
    random_state_family,
    tetrahedron_family,
)

TETRA_VALUE = 1.0 / (2.0 * math.sqrt(3.0))


def oracle_classical_distance(storage, prior, functions):
    """Brute-force comparator: explicit joints, one predicate at a time."""
    total = 0.0
    for weight, table in functions.support():
        joint = np.zeros((table.range_size, storage.range_size))
        for x in range(storage.domain_size):
            joint[table(x), storage(x)] += prior.probs[x]
        total += weight * cond_dist_from_uniform(JointDistribution(joint))
    return total


def test_pairwise_overlap_bound_tetrahedron_saturates():
    family = tetrahedron_family()
    bound = pairwise_overlap_bound(family, BalancedPredicateFamily(4))
    assert bound == pytest.approx(TETRA_VALUE, abs=1e-12)
    assert bound == pytest.approx(family_distance(family, BalancedPredicateFamily(4)), abs=1e-12)


def test_pairwise_overlap_bound_identical_states():
    # for identical pure states every term cancels: the bound collapses to the
    # exact value 0 under balanced predicates
    rho = DensityMatrix.pure([1.0, 0.0])
    family = StateFamily(Distribution.uniform(4), (rho.matrix,) * 4)
    assert pairwise_overlap_bound(family, BalancedPredicateFamily(4)) == pytest.approx(0.0, abs=1e-9)
    assert family_distance(family, BalancedPredicateFamily(4)) == pytest.approx(0.0, abs=1e-12)


def test_pairwise_overlap_bound_singleton_domain():
    for dim in (1, 2, 3):
        rho = DensityMatrix.maximally_mixed(dim)
        family = StateFamily(Distribution.uniform(1), (rho.matrix,))
        predicates = UniformFunctionFamily(1, 2)
        bound = pairwise_overlap_bound(family, predicates)
        assert bound == pytest.approx(0.5 * math.sqrt(dim * rho.purity()), abs=1e-12)
        assert bound >= family_distance(family, predicates) - 1e-9
        assert family_distance(family, predicates) == pytest.approx(0.5)


def test_dominance_chain_random_instances():
    rng = np.random.default_rng(0)
    families = [
        lambda n: UniformFunctionFamily(2**n, 2),
        lambda n: BalancedPredicateFamily(2**n),
        lambda n: AffineFamily(n, 1),
        lambda n: InnerProductFamily(n),
    ]
    for trial in range(100):
        n = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        predicates = families[trial % 4](max(n, 1))
        states = random_state_family(
            dim, 2**n, ("pure", "mixed")[trial % 2], int(rng.integers(2**32))
        )
        exact = family_distance(states, predicates)
        overlap = pairwise_overlap_bound(states, predicates)
        universal = collision_bound(states.prior, dim)
        assert exact <= overlap + 1e-9
        assert overlap <= universal + 1e-9


def test_collision_bound_values():
    assert collision_bound(Distribution.uniform(4), 2) == pytest.approx(
        0.5 * 2 ** (-0.5), abs=1e-12
    )
    assert collision_bound(Distribution.point_mass(0, 5), 1) == pytest.approx(0.5)
    for n in range(1, 8):
        for s in range(0, n + 1):
            expected = 0.5 * 2 ** (-(n - s) / 2)
            got = collision_bound(Distribution.uniform(2**n), 2**s)
            assert got == pytest.approx(expected, abs=1e-12)
    assert collision_bound(Distribution.uniform(4), 2) >= TETRA_VALUE


def test_classical_storage_lower_bound_values():
    assert classical_storage_lower_bound(2, 1) == Fraction(1, 4)
    assert classical_storage_lower_bound(3, 1) == Fraction(3, 16)
    assert classical_storage_lower_bound(4, 1) == Fraction(35, 256)
    with pytest.raises(ValueError):
        classical_storage_lower_bound(3, 3)


def test_classical_storage_lower_bound_asymptotics():
    for gap in range(1, 12):
        value = float(classical_storage_lower_bound(gap + 1, 1))
        approx = 2 ** (-gap / 2) / math.sqrt(2 * math.pi)
        assert value == pytest.approx(approx, rel=0.3 / 2**gap + 1e-3)


def test_classical_beats_one_fewer_qubit():
    # s classical bits achieve at least what s-1 qubits can ever achieve
    for n in range(2, 10):
        for s in range(1, n):
            classical = float(classical_storage_lower_bound(n, s))
            quantum_cap = collision_bound(Distribution.uniform(2**n), 2 ** (s - 1))
            assert classical >= quantum_cap - 1e-12


def test_balanced_storage_shape():
    sigma = balanced_storage(2, 1)
    assert sigma.values.tolist() == [0, 1, 0, 1]
    for n in range(2, 9):
        for s in range(1, n):
            sigma = balanced_storage(n, s)
            assert (sigma.preimage_sizes() == 2 ** (n - s)).all()
    with pytest.raises(ValueError):
        balanced_storage(2, 2)


def test_classical_family_distance_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n_bits = int(rng.integers(1, 4))
        domain = 2**n_bits
        range_size = int(rng.integers(2, 5))
        storage = FunctionTable(rng.integers(0, range_size, domain), range_size)
        prior = Distribution(rng.dirichlet(np.ones(domain)))
        family = [
            UniformFunctionFamily(domain, 2),
            AffineFamily(n_bits, 2),
            UniformFunctionFamily(domain, 3),
        ][int(rng.integers(0, 3))]
        fast = classical_family_distance(storage, prior, family)
        slow = oracle_classical_distance(storage, prior, family)
        assert fast == pytest.approx(slow, abs=1e-12)


def reference_classical_family_distance(storage, prior, hashes):
    """Per-function loop: each joint built with np.add.at, one hash at a time."""
    if isinstance(storage, FunctionTable):
        mass = np.zeros((storage.domain_size, storage.range_size))
        mass[np.arange(storage.domain_size), storage.values] = prior.probs
    else:
        mass = prior.probs[:, None] * storage.rows
    stored_mass = mass.sum(axis=0)
    r = hashes.range_size
    total = 0.0
    for weight, table in hashes.support():
        joint = np.zeros((r, mass.shape[1]))
        np.add.at(joint, table.values, mass)
        total += weight * 0.5 * np.abs(joint - stored_mass / r).sum()
    return total


@pytest.mark.parametrize("block_elements", [None, 97])
@pytest.mark.parametrize(
    "hashes, stored",
    [
        (AffineFamily(3, 1), 2),  # range 2
        (AffineFamily(4, 2), 4),  # range 4
        (UniformFunctionFamily(3, 4), 3),  # range 4, non-power-of-two storage
        (AffineFamily(3, 3), 2),  # range 8; 4096 members, not a multiple of the block
    ],
)
def test_classical_family_distance_matches_per_function_loop(
    monkeypatch, block_elements, hashes, stored
):
    if block_elements is not None:
        monkeypatch.setattr(functions, "BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(hashes.support_size())
    domain = hashes.domain_size
    prior = Distribution(rng.dirichlet(np.ones(domain)))
    table = FunctionTable(rng.integers(0, stored, domain), stored)
    channel = ClassicalChannel(rng.dirichlet(np.ones(stored), size=domain))
    for storage in (table, channel):
        fast = classical_family_distance(storage, prior, hashes)
        slow = reference_classical_family_distance(storage, prior, hashes)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_classical_family_distance_balanced_storage_values():
    for n, expected in ((2, Fraction(1, 4)), (3, Fraction(3, 16))):
        sigma = balanced_storage(n, 1)
        value = classical_family_distance(
            sigma, Distribution.uniform(2**n), UniformFunctionFamily(2**n, 2)
        )
        assert value == pytest.approx(float(expected), abs=1e-12)


def test_classical_family_distance_and_storage():
    # the AND of two bits achieves the one-bit optimum 1/4 for balanced predicates
    and_table = FunctionTable(np.array([0, 0, 0, 1]), 2)
    value = classical_family_distance(
        and_table, Distribution.uniform(4), BalancedPredicateFamily(4)
    )
    assert value == pytest.approx(0.25, abs=1e-12)


def test_classical_family_distance_accepts_channels():
    rng = np.random.default_rng(2)
    family = BalancedPredicateFamily(4)
    prior = Distribution.uniform(4)
    deterministic_best = max(
        classical_family_distance(
            FunctionTable(np.array([(code >> x) & 1 for x in range(4)]), 2), prior, family
        )
        for code in range(16)
    )
    for _ in range(50):
        channel = ClassicalChannel(rng.dirichlet(np.ones(2), size=4))
        value = classical_family_distance(channel, prior, family)
        assert value <= deterministic_best + 1e-12


def test_balanced_predicate_bound_cases():
    uniform = balanced_predicate_bound(Distribution.uniform(4))
    assert uniform.exact_value == pytest.approx(0.0)
    assert uniform.bound_value == pytest.approx(0.0)
    assert uniform.satisfied

    point = balanced_predicate_bound(Distribution.point_mass(0, 2))
    assert point.exact_value == pytest.approx(0.5)
    assert point.bound_value == pytest.approx(1.5 * math.sqrt(2) * 0.5, abs=1e-12)
    assert point.satisfied

    witness = balanced_predicate_bound(Distribution([0.5, 0.5, 0.0, 0.0]))
    assert witness.exact_value == pytest.approx(0.5)
    assert witness.bound_value == pytest.approx(0.5, abs=1e-12)
    assert witness.satisfied
    assert witness.context["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_balanced_predicate_bound_random():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6, 8, 16):
        for _ in range(50):
            report = balanced_predicate_bound(Distribution(rng.dirichlet(np.ones(n))))
            assert report.satisfied
            assert report.context["ratio"] <= 1.0 + 1e-9


def test_balanced_predicate_bound_validation():
    with pytest.raises(ValueError):
        balanced_predicate_bound(Distribution.uniform(3))
    with pytest.raises(ValueError):
        balanced_predicate_bound(Distribution.uniform(18))


def test_predicate_to_function_bound():
    assert predicate_to_function_bound(0.0, 4) == 0.0
    assert predicate_to_function_bound(0.1, 2) == pytest.approx(0.15 * math.sqrt(2))
    with pytest.raises(ValueError):
        predicate_to_function_bound(-0.1, 2)


def test_bound_chaining_reproduces_privacy_amplification():
    # predicate budget from the collision bound, transferred to k-bit ranges
    for n in (3, 5, 8):
        for s in (1, 2):
            for k in (1, 2, 3):
                prior = Distribution.uniform(2**n)
                chained = predicate_to_function_bound(collision_bound(prior, 2**s), 2**k)
                direct = privacy_amplification_bound(n, s, k)
                assert chained == pytest.approx(direct, abs=1e-12)


def test_privacy_amplification_bound_values():
    assert privacy_amplification_bound(2, 1, 1) == pytest.approx(0.75)
    assert privacy_amplification_bound(4, 1, 1) == pytest.approx(0.375)
    assert privacy_amplification_bound(20, 5, 5) == pytest.approx(0.75 / 32)


def test_privacy_amplification_classical_experiment():
    report = privacy_amplification_experiment(
        balanced_storage(2, 1), UniformFunctionFamily(4, 2), storage_bits=1
    )
    assert report.exact_value == pytest.approx(0.25, abs=1e-12)
    assert report.bound_value == pytest.approx(0.75)
    assert report.satisfied and report.vacuous
    assert report.context["encoding"] == "classical"

    report = privacy_amplification_experiment(
        balanced_storage(4, 1), AffineFamily(4, 1), storage_bits=1
    )
    assert report.bound_value == pytest.approx(0.375)
    assert report.satisfied and not report.vacuous


def test_privacy_amplification_quantum_experiment():
    encoding = random_state_family(2, 16, "pure", seed=4)
    report = privacy_amplification_experiment(encoding, AffineFamily(4, 1), storage_bits=1)
    assert report.context["encoding"] == "quantum"
    assert report.exact_value is not None
    assert report.exact_value <= 0.375 + 1e-9
    assert report.satisfied and not report.vacuous

    trivial = StateFamily(
        Distribution.uniform(16), (DensityMatrix.maximally_mixed(2).matrix,) * 16
    )
    # the affine family draws a constant function with probability 1/16, and
    # constant predicates keep distance 1/2 whatever is stored
    report = privacy_amplification_experiment(trivial, AffineFamily(4, 1), storage_bits=1)
    assert report.exact_value == pytest.approx(1.0 / 32.0, abs=1e-12)
    assert report.satisfied
    assert family_distance(trivial, BalancedPredicateFamily(16)) == pytest.approx(0.0, abs=1e-12)


def test_privacy_amplification_quantum_wide_key_is_sampled():
    encoding = random_state_family(2, 16, "pure", seed=5)
    report = privacy_amplification_experiment(encoding, AffineFamily(4, 2), storage_bits=1)
    assert report.exact_value is None
    assert "sampled_lower_bound" in report.context
    assert report.context["sampled_lower_bound"] <= report.bound_value + 1e-9
    assert report.satisfied


def test_privacy_amplification_monte_carlo_mode():
    encoding = random_state_family(2, 16, "pure", seed=6)
    report = privacy_amplification_experiment(
        encoding, AffineFamily(4, 1), storage_bits=1, mc_samples=400, seed=7
    )
    exact = privacy_amplification_experiment(encoding, AffineFamily(4, 1), storage_bits=1)
    assert report.stderr is not None and report.stderr < 0.02
    assert abs(report.exact_value - exact.exact_value) <= 4 * report.stderr + 1e-12
    assert report.satisfied


def test_privacy_amplification_nonuniform_prior():
    # for non-uniform sources the bound is driven by the order-2 Renyi entropy
    prior = Distribution([0.4, 0.3, 0.2, 0.1])
    report = privacy_amplification_experiment(
        balanced_storage(2, 1), AffineFamily(2, 1), storage_bits=1, prior=prior
    )
    assert report.context["n"] == pytest.approx(prior.renyi_entropy())
    assert report.bound_value == pytest.approx(
        0.75 * 2 ** (-(prior.renyi_entropy() - 2) / 2)
    )
    assert report.satisfied


def test_privacy_amplification_validation():
    with pytest.raises(ValueError):
        privacy_amplification_experiment(
            random_state_family(2, 4, "pure", 0), AffineFamily(2, 1), storage_bits=2
        )
    with pytest.raises(ValueError):
        privacy_amplification_experiment(
            balanced_storage(3, 1), UniformFunctionFamily(8, 3), storage_bits=1
        )
    with pytest.raises(TypeError):
        privacy_amplification_experiment([1, 2], AffineFamily(2, 1), storage_bits=1)


def test_report_serialization():
    report = privacy_amplification_experiment(
        balanced_storage(3, 1), AffineFamily(3, 1), storage_bits=1
    )
    blob = report.to_dict()
    assert blob["satisfied"] is True
    assert blob["context.encoding"] == "classical"
    assert blob["context.k"] == 1
