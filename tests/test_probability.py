import numpy as np
import pytest

from guessbound.probability import (
    ClassicalChannel,
    Distribution,
    JointDistribution,
    cond_dist_from_uniform,
    dist_from_uniform,
    guessing_probability,
    variational_distance,
)


def random_distribution(rng, n):
    return Distribution(rng.dirichlet(np.ones(n)))


def random_joint(rng, nz, nw):
    return JointDistribution(rng.dirichlet(np.ones(nz * nw)).reshape(nz, nw))


def random_channel(rng, n_in, n_out):
    return ClassicalChannel(rng.dirichlet(np.ones(n_out), size=n_in))


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution([0.5, 0.6])
    with pytest.raises(ValueError):
        Distribution([1.2, -0.2])
    d = Distribution([0.25, 0.75])
    with pytest.raises(ValueError):
        d.probs[0] = 1.0  # frozen storage


def test_variational_distance_basic():
    p = Distribution([0.7, 0.3])
    q = Distribution([0.5, 0.5])
    assert variational_distance(p, p) == 0.0
    assert variational_distance(p, q) == pytest.approx(0.2)
    assert variational_distance(q, p) == pytest.approx(0.2)
    assert variational_distance(
        Distribution.point_mass(0, 3), Distribution.point_mass(2, 3)
    ) == pytest.approx(1.0)


def test_variational_distance_triangle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p, q, r = (random_distribution(rng, n) for _ in range(3))
        assert variational_distance(p, r) <= (
            variational_distance(p, q) + variational_distance(q, r) + 1e-12
        )


def test_variational_distance_alphabet_mismatch():
    with pytest.raises(ValueError):
        variational_distance(Distribution.uniform(2), Distribution.uniform(3))


def test_dist_from_uniform_values():
    assert dist_from_uniform(Distribution.uniform(5)) == 0.0
    assert dist_from_uniform(Distribution.point_mass(1, 2)) == pytest.approx(0.5)
    assert dist_from_uniform(Distribution([0.5, 0.5, 0.0, 0.0])) == pytest.approx(0.5)


def test_dist_from_uniform_convexity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        w = rng.random()
        mix = Distribution(w * p.probs + (1 - w) * q.probs)
        assert dist_from_uniform(mix) <= (
            w * dist_from_uniform(p) + (1 - w) * dist_from_uniform(q) + 1e-12
        )


def test_cond_dist_values():
    uniform_indep = JointDistribution.independent(
        Distribution.uniform(2), Distribution([0.3, 0.7])
    )
    assert cond_dist_from_uniform(uniform_indep) == pytest.approx(0.0)
    copy = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert cond_dist_from_uniform(copy) == pytest.approx(0.5)
    noisy_copy = JointDistribution(np.array([[0.45, 0.05], [0.05, 0.45]]))
    assert cond_dist_from_uniform(noisy_copy) == pytest.approx(0.4)


def test_conditioning_never_decreases_distance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        nz, nw = (int(rng.integers(2, 6)) for _ in range(2))
        joint = random_joint(rng, nz, nw)
        assert cond_dist_from_uniform(joint) >= (
            dist_from_uniform(joint.row_marginal()) - 1e-12
        )


def test_guessing_probability_values():
    indep = JointDistribution.independent(Distribution.uniform(2), Distribution.uniform(3))
    assert guessing_probability(indep) == pytest.approx(0.5)
    copy = JointDistribution(np.eye(4) / 4)
    assert guessing_probability(copy) == pytest.approx(1.0)
    # binary secret at conditional distance 0.25 is guessed with probability 0.75
    noisy = JointDistribution(np.array([[0.375, 0.125], [0.125, 0.375]]))
    assert cond_dist_from_uniform(noisy) == pytest.approx(0.25)
    assert guessing_probability(noisy) == pytest.approx(0.75)


def test_guessing_probability_binary_equality():
    rng = np.random.default_rng(3)
    for _ in range(100):
        joint = random_joint(rng, 2, int(rng.integers(1, 7)))
        expected = 0.5 + cond_dist_from_uniform(joint)
        assert guessing_probability(joint) == pytest.approx(expected, abs=1e-12)
    for _ in range(100):
        nz = int(rng.integers(3, 7))
        joint = random_joint(rng, nz, int(rng.integers(1, 7)))
        assert guessing_probability(joint) <= (
            1.0 / nz + cond_dist_from_uniform(joint) + 1e-12
        )


def test_post_processing_never_increases_distance():
    # full classical read-out is equivalent to the identity channel: any
    # stochastic post-processing of the state can only lose information
    rng = np.random.default_rng(9)
    for _ in range(100):
        nz, ns = (int(rng.integers(2, 6)) for _ in range(2))
        joint = random_joint(rng, nz, ns)
        processed = random_channel(rng, ns, int(rng.integers(1, 6))).push_joint(joint)
        assert cond_dist_from_uniform(processed) <= cond_dist_from_uniform(joint) + 1e-12
