import numpy as np
import pytest

from guessbound.probability import ClassicalChannel, Distribution, dist_from_uniform
from oracles import JointDistribution, cond_dist_from_uniform, point_mass


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


def test_dist_from_uniform_values():
    assert dist_from_uniform(Distribution.uniform(5)) == 0.0
    assert dist_from_uniform(point_mass(1, 2)) == pytest.approx(0.5)
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


def test_post_processing_never_increases_distance():
    # full classical read-out is equivalent to the identity channel: any
    # stochastic post-processing of the state can only lose information
    rng = np.random.default_rng(9)
    for _ in range(100):
        nz, ns = (int(rng.integers(2, 6)) for _ in range(2))
        joint = random_joint(rng, nz, ns)
        channel = random_channel(rng, ns, int(rng.integers(1, 6)))
        processed = JointDistribution(joint.probs @ channel.rows)
        assert cond_dist_from_uniform(processed) <= cond_dist_from_uniform(joint) + 1e-12
