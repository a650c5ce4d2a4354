"""Deterministic random streams shared by samplers, experiments, and the CLI.

Every randomized routine in this package draws from a Philox counter-based
generator keyed by a 64-bit seed and a 64-bit task index.  Philox produces
the same stream on every platform, so reports and tests reproduce bit for
bit given the same (seed, task) pair.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, task: int = 0) -> np.random.Generator:
    """Generator for task `task` of the experiment seeded with `seed`.

    The Philox key is the 128-bit word ``(task << 64) | seed``, so distinct
    (seed, task) pairs never collide.  Both must lie in ``[0, 2**64)``;
    anything else raises ValueError rather than aliasing another stream.
    """
    seed, task = int(seed), int(task)
    for name, value in (("seed", seed), ("task", task)):
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return np.random.Generator(np.random.Philox(key=seed | (task << 64)))


def as_generator(seed_or_rng) -> np.random.Generator:
    """Pass a Generator through; key a fresh Philox stream from an integer."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng))
