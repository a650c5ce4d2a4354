import re

import numpy as np
import pytest

from guessbound import functions
from guessbound.functions import (
    AffineFamily,
    BalancedPredicateFamily,
    FunctionTable,
    UniformFunctionFamily,
)
from guessbound.numerics import trace_product
from guessbound.probability import Distribution, JointDistribution, cond_dist_from_uniform
from guessbound.quantum import (
    DensityMatrix,
    _measurement_bases,
    Povm,
    StateFamily,
    classical_state_family,
    conditional_states,
    family_distance,
    family_distance_mc,
    helstrom_povm,
    helstrom_success,
    measured_distance,
    povm_success,
    predicate_distance,
    random_povm_success,
    random_state_family,
    random_unitary,
    sampled_measurement_distance,
    tetrahedron_family,
)
from guessbound.rng import as_generator, stream

KET0 = DensityMatrix.basis_state(0, 2)
KET1 = DensityMatrix.basis_state(1, 2)
PLUS = DensityMatrix.pure([1.0, 1.0])
TETRA_VALUE = 1.0 / (2.0 * np.sqrt(3.0))


def balanced_table(ones, domain=4):
    values = np.zeros(domain, dtype=int)
    values[list(ones)] = 1
    return FunctionTable(values, 2)


def random_instance(rng, dim):
    q = float(rng.random())
    rho0 = DensityMatrix(random_state_family(dim, 1, "mixed", int(rng.integers(2**32))).states[0])
    rho1 = DensityMatrix(random_state_family(dim, 1, "mixed", int(rng.integers(2**32))).states[0])
    return q, rho0, rho1


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.0], [0.0, 0.6]]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # not PSD
    with pytest.raises(ValueError):
        DensityMatrix.from_bloch([1.0, 1.0, 1.0])  # outside the sphere
    assert DensityMatrix.maximally_mixed(4).purity() == pytest.approx(0.25)


def test_density_matrix_json_round_trip():
    rho = DensityMatrix(random_state_family(3, 1, "mixed", 5).states[0])
    again = DensityMatrix.from_json(rho.to_json())
    assert np.abs(again.matrix - rho.matrix).max() <= 1e-12


def test_state_family_json_round_trip():
    family = tetrahedron_family()
    blob = family.to_json()
    assert blob["dim"] == 2 and len(blob["states"]) == 4
    again = StateFamily.from_json(blob)
    assert np.abs(again.states - family.states).max() <= 1e-12


def test_povm_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="POVM elements must sum to the identity"):
        Povm((0.5 * eye, 0.4 * eye))
    with pytest.raises(ValueError, match="POVM element has negative eigenvalue -5.000e-01"):
        Povm((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))
    povm = Povm.binary_from_projector(np.diag([1.0, 0.0]))
    assert povm.elements.shape == (2, 2, 2) and not povm.elements.flags.writeable
    out = povm.outcome_probabilities(KET0)
    assert np.allclose(out.probs, [1.0, 0.0])


def test_helstrom_orthogonal_states():
    assert helstrom_success(0.5, KET0, KET1) == pytest.approx(1.0)


def test_helstrom_identical_states():
    rho = DensityMatrix.maximally_mixed(2)
    for q in (0.0, 0.3, 0.5, 0.9, 1.0):
        assert helstrom_success(q, rho, rho) == pytest.approx(max(q, 1 - q))


def test_helstrom_zero_plus():
    expected = 0.5 + np.sqrt(2) / 4
    assert helstrom_success(0.5, KET0, PLUS) == pytest.approx(expected, abs=1e-12)


def test_helstrom_prior_validation():
    with pytest.raises(ValueError):
        helstrom_success(1.2, KET0, KET1)
    with pytest.raises(ValueError):
        helstrom_success(0.5, KET0, DensityMatrix.maximally_mixed(3))


def test_helstrom_povm_orthogonal():
    povm = helstrom_povm(0.5, KET0, KET1)
    assert np.abs(povm.elements[0] - KET0.matrix).max() <= 1e-9
    assert np.abs(povm.elements[1] - KET1.matrix).max() <= 1e-9


def test_helstrom_povm_identical_states():
    rho = DensityMatrix.maximally_mixed(2)
    povm = helstrom_povm(0.7, rho, rho)
    assert np.abs(povm.elements[0] - np.eye(2)).max() <= 1e-9


def test_helstrom_povm_achieves_optimum():
    achieved = povm_success(0.5, KET0, PLUS, helstrom_povm(0.5, KET0, PLUS))
    assert achieved == pytest.approx(0.5 + np.sqrt(2) / 4, abs=1e-9)
    rng = np.random.default_rng(0)
    for _ in range(50):
        q, rho0, rho1 = random_instance(rng, int(rng.integers(2, 5)))
        optimal = helstrom_success(q, rho0, rho1)
        achieved = povm_success(q, rho0, rho1, helstrom_povm(q, rho0, rho1))
        assert abs(achieved - optimal) <= 1e-9


def test_predicate_distance_constant():
    family = random_state_family(2, 4, "mixed", 3)
    constant = FunctionTable(np.zeros(4, dtype=int), 2)
    assert predicate_distance(family, constant) == pytest.approx(0.5, abs=1e-12)


def test_predicate_distance_identical_states():
    rho = DensityMatrix.pure([1.0, 1j])
    family = StateFamily(Distribution.uniform(4), (rho.matrix,) * 4)
    assert predicate_distance(family, balanced_table((0, 1))) == pytest.approx(0.0, abs=1e-12)


def test_predicate_distance_tetrahedron():
    family = tetrahedron_family()
    for ones in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        value = predicate_distance(family, balanced_table(ones))
        assert value == pytest.approx(TETRA_VALUE, abs=1e-12)


def test_conditional_states_match_helstrom():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 100:
        dim = int(rng.integers(2, 5))
        domain = int(rng.integers(2, 7))
        family = random_state_family(dim, domain, ("pure", "mixed")[checked % 2], int(rng.integers(2**32)))
        values = rng.integers(0, 2, domain)
        if values.min() == values.max():
            continue
        table = FunctionTable(values, 2)
        q0, sigma0, sigma1 = conditional_states(family, table)
        direct = predicate_distance(family, table)
        via_decision = helstrom_success(q0, sigma0, sigma1) - 0.5
        assert abs(direct - via_decision) <= 1e-9
        checked += 1


def test_conditional_states_constant_rejected():
    family = tetrahedron_family()
    with pytest.raises(ValueError):
        conditional_states(family, FunctionTable(np.ones(4, dtype=int), 2))


def test_family_distance_tetrahedron():
    value = family_distance(tetrahedron_family(), BalancedPredicateFamily(4))
    assert value == pytest.approx(TETRA_VALUE, abs=1e-12)


def test_family_distance_identical_states():
    # identical states reveal nothing about any balanced predicate; unbalanced
    # predicates keep positive distance regardless of storage, so the
    # uniform-all average stays strictly positive
    rho = DensityMatrix.maximally_mixed(2)
    family = StateFamily(Distribution.uniform(4), (rho.matrix,) * 4)
    assert family_distance(family, BalancedPredicateFamily(4)) == pytest.approx(0.0, abs=1e-12)
    assert family_distance(family, UniformFunctionFamily(4, 2)) == pytest.approx(0.1875, abs=1e-12)


def test_family_distance_orthogonal_encoding():
    # four orthogonal basis states store two bits losslessly
    storage = FunctionTable(np.arange(4), 4)
    family = classical_state_family(storage, Distribution.uniform(4))
    value = family_distance(family, BalancedPredicateFamily(4))
    assert value == pytest.approx(0.5, abs=1e-12)


def test_family_distance_mc_agrees():
    family = tetrahedron_family()
    estimate, stderr = family_distance_mc(family, BalancedPredicateFamily(4), 200, seed=2)
    assert stderr <= 1e-12  # every balanced predicate gives the same distance
    assert estimate == pytest.approx(TETRA_VALUE, abs=1e-9)
    skewed = random_state_family(2, 4, "pure", 9)
    exact = family_distance(skewed, UniformFunctionFamily(4, 2))
    estimate, stderr = family_distance_mc(skewed, UniformFunctionFamily(4, 2), 4000, seed=3)
    assert abs(estimate - exact) <= 4 * stderr + 1e-12


def test_tetrahedron_geometry():
    family = tetrahedron_family()
    for i in range(4):
        assert DensityMatrix(family.states[i]).purity() == pytest.approx(1.0, abs=1e-12)
        for j in range(i + 1, 4):
            overlap = trace_product(family.states[i], family.states[j])
            assert overlap == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_random_state_family_contracts():
    pure = random_state_family(3, 5, "pure", 7)
    assert all(DensityMatrix(s).purity() == pytest.approx(1.0, abs=1e-9) for s in pure.states)
    mixed = random_state_family(2, 5, "mixed", 7)
    for s in mixed.states:
        assert 0.5 - 1e-12 <= DensityMatrix(s).purity() <= 1.0 + 1e-12
    again = random_state_family(3, 5, "pure", 7)
    assert np.array_equal(pure.states, again.states)
    with pytest.raises(ValueError):
        random_state_family(2, 2, "sorta", 0)


def test_random_povm_success_witness():
    best = random_povm_success(0.5, KET0, KET1, 1000, seed=4)
    assert 0.99 <= best <= 1.0 + 1e-12

    rho = DensityMatrix.maximally_mixed(2)
    assert random_povm_success(0.7, rho, rho, 50, seed=5) == pytest.approx(0.7, abs=1e-12)

    optimal = helstrom_success(0.5, KET0, PLUS)
    best = random_povm_success(0.5, KET0, PLUS, 10_000, seed=6)
    assert best <= optimal + 1e-9
    assert best >= optimal - 0.01


def test_unitary_conjugation_invariance():
    rng = stream(8)
    family = random_state_family(3, 4, "mixed", 10)
    table = balanced_table((1, 2))
    base = predicate_distance(family, table)
    for _ in range(10):
        rotated = family.conjugated(random_unitary(3, rng))
        assert abs(predicate_distance(rotated, table) - base) <= 1e-9


def test_measured_distance_never_beats_optimum():
    rng = np.random.default_rng(9)
    family = random_state_family(2, 4, "pure", 11)
    table = balanced_table((0, 3))
    optimum = predicate_distance(family, table)
    for _ in range(20):
        basis = random_unitary(2, stream(int(rng.integers(2**32))))
        povm = Povm(tuple(np.outer(basis[:, w], basis[:, w].conj()) for w in range(2)))
        assert measured_distance(family, table, povm) <= optimum + 1e-9


def test_classical_embedding_matches_classical_distance():
    # storing sigma(x) in orthogonal states is exactly as useful as keeping
    # the classical value
    rng = np.random.default_rng(12)
    for _ in range(50):
        n_bits = int(rng.integers(1, 4))
        s_bits = int(rng.integers(1, 3))
        domain = 2**n_bits
        sigma = FunctionTable(rng.integers(0, 2**s_bits, domain), 2**s_bits)
        prior = Distribution(rng.dirichlet(np.ones(domain)))
        encoded = classical_state_family(sigma, prior)
        quantum_value = family_distance(encoded, UniformFunctionFamily(domain, 2))
        classical_value = 0.0
        for weight, table in UniformFunctionFamily(domain, 2).support():
            joint = np.zeros((2, 2**s_bits))
            for x in range(domain):
                joint[table(x), sigma(x)] += prior.probs[x]
            classical_value += weight * cond_dist_from_uniform(JointDistribution(joint))
        assert abs(quantum_value - classical_value) <= 1e-9


def test_bloch_grid_oracle_approaches_predicate_distance():
    # independent oracle for the trace-norm formula: enumerate projective
    # qubit measurements on a Bloch-sphere grid; the best grid measurement
    # must come within grid resolution of the claimed optimum, never above it
    thetas = np.linspace(0.0, np.pi, 31)
    phis = np.linspace(0.0, 2 * np.pi, 61)
    povms = []
    for theta in thetas:
        for phi in phis:
            up = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            povms.append(Povm((np.outer(up, up.conj()), np.eye(2) - np.outer(up, up.conj()))))
    rng = np.random.default_rng(15)
    for trial in range(10):
        family = random_state_family(2, 4, ("pure", "mixed")[trial % 2], int(rng.integers(2**32)))
        table = balanced_table((0, int(rng.integers(1, 4))))
        exact = predicate_distance(family, table)
        best = max(measured_distance(family, table, povm) for povm in povms)
        assert best <= exact + 1e-9
        assert best >= exact - 5e-3


def test_sampled_measurement_distance_is_lower_bound():
    family = random_state_family(2, 4, "pure", 13)
    predicates = BalancedPredicateFamily(4)
    exact = family_distance(family, predicates)
    witnessed = sampled_measurement_distance(family, predicates, trials=60, seed=14)
    assert witnessed <= exact + 1e-9
    assert witnessed >= 0.8 * exact  # random bases get close in dimension 2


def reference_sampled_measurement_distance(family, hashes, trials, seed):
    """Per-function loop: the best of the same bases for each hash, one at a time."""
    rng = as_generator(seed)
    d = family.dim
    bases = [np.eye(d, dtype=complex)]
    bases.extend(random_unitary(d, rng) for _ in range(trials))
    outcome = np.einsum("tdw,xde,tew->txw", np.conj(bases), family.states, bases).real
    r = hashes.range_size
    total = 0.0
    for weight, table in hashes.support():
        onehot = table.values[:, None] == np.arange(r)[None, :]
        joint = np.einsum("x,xz,txw->tzw", family.prior.probs, onehot, outcome)
        joint = np.clip(joint, 0.0, None)
        joint /= joint.sum(axis=(1, 2), keepdims=True)
        distances = 0.5 * np.abs(joint - joint.sum(axis=1, keepdims=True) / r).sum(axis=(1, 2))
        total += weight * distances.max()
    return total


@pytest.mark.parametrize("block_elements", [None, 97])
@pytest.mark.parametrize(
    "dim, hashes, trials",
    [
        (2, AffineFamily(3, 1), 10),  # range 2
        (2, AffineFamily(4, 2), 50),  # range 4; 1024 members, not a multiple of the block
        (4, AffineFamily(3, 3), 5),  # range 8; 4096 members, not a multiple of the block
    ],
)
def test_sampled_measurement_distance_matches_per_function_loop(
    monkeypatch, block_elements, dim, hashes, trials
):
    if block_elements is not None:
        monkeypatch.setattr(functions, "BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(hashes.range_size)
    domain = hashes.domain_size
    states = random_state_family(dim, domain, "mixed", int(rng.integers(2**32))).states
    family = StateFamily(Distribution(rng.dirichlet(np.ones(domain))), states)
    fast = sampled_measurement_distance(family, hashes, trials, seed=5)
    slow = reference_sampled_measurement_distance(family, hashes, trials, seed=5)
    assert fast == pytest.approx(slow, abs=1e-12)


# Per-state reference builders: the arithmetic the batched builders must
# reproduce bit for bit, each ending in the symmetrization every validated
# state receives.


def symmetrized(m):
    return (m + m.conj().T) / 2


def reference_pure_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = psi / np.linalg.norm(psi)
    return symmetrized(np.outer(psi, psi.conj()))


def reference_wishart_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gram = g @ g.conj().T
    return symmetrized(gram / gram.trace().real)


def reference_basis_state(index, dim):
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    psi = psi / np.linalg.norm(psi)
    return symmetrized(np.outer(psi, psi.conj()))


def reference_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def reference_povm_success(q, rho0, rho1, trials, seed):
    rng = as_generator(seed)
    d = rho0.dim
    g = rng.normal(size=(trials, d, d)) + 1j * rng.normal(size=(trials, d, d))
    basis, r = np.linalg.qr(g)
    diag = np.einsum("tii->ti", r)
    basis = basis * (diag / np.abs(diag))[:, None, :]
    masks = rng.integers(0, 2, size=(trials, d))
    weight0 = np.einsum("tdw,de,tew->tw", basis.conj(), rho0.matrix, basis).real
    weight1 = np.einsum("tdw,de,tew->tw", basis.conj(), rho1.matrix, basis).real
    successes = q * (masks * weight0).sum(axis=1) + (1 - q) * (
        1.0 - (masks * weight1).sum(axis=1)
    )
    return float(max(successes.max(), q, 1 - q))


def assert_bit_identical(actual, expected):
    # reports serialize signed zeros, so compare the bytes as well
    assert np.array_equal(actual, expected)
    assert actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "purity, dim", [("pure", 2), ("pure", 4), ("mixed", 2), ("mixed", 3), ("mixed", 4)]
)
def test_random_state_family_matches_per_state_loop(purity, dim):
    reference = reference_pure_state if purity == "pure" else reference_wishart_state
    rng = stream(31)
    expected = np.stack([reference(rng, dim) for _ in range(64)])
    assert_bit_identical(random_state_family(dim, 64, purity, stream(31)).states, expected)


def test_classical_state_family_matches_per_state_loop():
    storage = FunctionTable(np.array([2, 0, 3, 3, 1, 0]), 4)
    for dim in (None, 5):
        family = classical_state_family(storage, Distribution.uniform(6), dim)
        expected = np.stack([reference_basis_state(v, dim or 4) for v in storage.values])
        assert_bit_identical(family.states, expected)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_measurement_bases_match_per_unitary_loop(dim):
    rng = stream(32)
    expected = [np.eye(dim, dtype=complex)] + [reference_unitary(rng, dim) for _ in range(25)]
    assert_bit_identical(_measurement_bases(dim, 25, stream(32)), np.stack(expected))
    assert_bit_identical(random_unitary(dim, stream(33)), reference_unitary(stream(33), dim))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_povm_success_matches_reference(dim):
    rng = stream(34)
    for index in range(10):
        q, rho0, rho1 = random_instance(rng, dim)
        fast = random_povm_success(q, rho0, rho1, 200, seed=stream(35, index))
        slow = reference_povm_success(q, rho0, rho1, 200, seed=stream(35, index))
        assert fast == slow


@pytest.mark.parametrize("predicates", [UniformFunctionFamily(8, 2), AffineFamily(3, 1)])
def test_family_distance_mc_matches_per_sample_loop(predicates):
    family = random_state_family(3, 8, "mixed", 36)
    estimate, stderr = family_distance_mc(family, predicates, 300, seed=37)
    rng = as_generator(37)
    draws = np.array([predicate_distance(family, predicates.sample(rng)) for _ in range(300)])
    assert abs(estimate - draws.mean()) <= 1e-12
    assert abs(stderr - draws.std(ddof=1) / np.sqrt(300)) <= 1e-12


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "matrix is not Hermitian (max |m - m^dag| = 1.000e-01)"),
        (np.diag([0.5, 0.6]), f"density matrix must have unit trace, got {np.float64(1.1)!r}"),
        (np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -5.000e-01"),
    ],
)
def test_state_family_rejects_one_bad_state(bad, message):
    states = random_state_family(2, 16, "mixed", 38).states.copy()
    states[11] = bad
    with pytest.raises(ValueError, match=re.escape(message)):
        StateFamily(Distribution.uniform(16), states)
    with pytest.raises(ValueError, match=re.escape(message)):
        DensityMatrix(bad)


def test_state_family_states_are_one_read_only_array():
    source = random_state_family(2, 8, "pure", 39).states.copy()
    family = StateFamily(Distribution.uniform(8), source)
    assert family.states.shape == (8, 2, 2) and family.states.dtype == complex
    assert not family.states.flags.writeable
    with pytest.raises(ValueError):
        family.states[0, 0, 0] = 1.0
    assert source.flags.writeable  # the caller's array is left alone
    with pytest.raises(ValueError, match="one state per prior entry"):
        StateFamily(Distribution.uniform(4), source)
