"""The benchmark's workloads: which reports each one runs, and with which seeds.

A workload is a cycle of CLI argument lists run in turn, closed loop, by one
client.  Report ``i`` of a run takes its report seed from a pool of seeds
``1..pool`` whose reference rows are committed in ``reference.json``; the
workload seed only picks where in the pool a run starts, so the same
workload seed always gives the same reports.  Smoke sizes shrink each
report so that the self-test runs in seconds.

This module is imported by both the orchestrator (``run.py``) and the worker
(``worker.py``) and uses only the standard library.
"""

from __future__ import annotations

import random
from typing import NamedTuple

# The scenarios of guessbound.cli, listed here so that a scenario added to the
# CLI does not change the default-suite workload without a benchmark change.
SCENARIOS = (
    "compex",
    "classical-lower-bound",
    "bound-sweep",
    "hashing-lemma",
    "pa",
    "helstrom-demo",
    "appendix-verify",
)


class Workload(NamedTuple):
    cycle: tuple  # argument lists without --seed, run in turn
    smoke: tuple  # the same cycle at the self-test size
    pool: int  # report seeds 1..pool carry reference rows at full size
    trace_prefix: int  # traced reports whose counts are reported


def _pa(n, s, k, samples):
    return ("pa", "--n", str(n), "--s", str(s), "--k", str(k), "--family", "affine-gf2",
            "--samples", str(samples))


def _sweep(samples):
    return ("bound-sweep", "--n", "4", "--dim", "2", "--family", "uniform-balanced",
            "--samples", str(samples))


WORKLOADS = {
    "pa-wide-key": Workload((_pa(4, 1, 2, 4),), (_pa(4, 1, 2, 1),), 96, 3),
    "sweep-balanced": Workload((_sweep(2),), (_sweep(1),), 128, 3),
    "pa-qudit-report": Workload((_pa(6, 2, 1, 20),), (_pa(6, 2, 1, 1),), 96, 3),
    "default-suite": Workload(
        tuple((name,) for name in SCENARIOS), tuple((name,) for name in SCENARIOS), 48, 7
    ),
}

SMOKE_POOL = 4


def report_argv(name: str, seed: int, index: int, smoke: bool = False) -> list[str]:
    """Arguments of report `index` in a run of workload `name` seeded `seed`."""
    workload = WORKLOADS[name]
    cycle = workload.smoke if smoke else workload.cycle
    pool = SMOKE_POOL if smoke else workload.pool
    offset = random.Random(f"{name}/{seed}").randrange(pool)
    round_, position = divmod(index, len(cycle))
    return [*cycle[position], "--seed", str(1 + (offset + round_) % pool)]


def reference_argvs() -> list[list[str]]:
    """Every argument list that has reference rows: each pool, at both sizes."""
    argvs = []
    for workload in WORKLOADS.values():
        for cycle, pool in ((workload.cycle, workload.pool), (workload.smoke, SMOKE_POOL)):
            for seed in range(1, pool + 1):
                for prefix in cycle:
                    argv = [*prefix, "--seed", str(seed)]
                    if argv not in argvs:
                        argvs.append(argv)
    return argvs


def reference_key(argv) -> str:
    return " ".join(argv)
