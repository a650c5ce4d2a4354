"""Batch experiment runner with reproducible JSON/CSV reports.

Usage: ``guessbound SCENARIO [flags]``.

Scenarios:
  compex                 one classical bit vs one qubit about a 2-bit string
  classical-lower-bound  balanced storage against uniformly random predicates
  bound-sweep            exact distance vs both upper bounds on random states
  hashing-lemma          distance from uniform vs balanced-predicate distances
  pa                     privacy amplification: achieved key distance vs bound
  helstrom-demo          optimal binary decisions vs sampled measurements
  appendix-verify        exact combinatorial and spectral identities

Flag precedence is flags > --config file > scenario defaults.  All
randomness derives from Philox streams keyed by (--seed, task index), so a
rerun with the same configuration writes a byte-identical report (pass
--no-timestamp to drop the one intentionally varying field).  Exit status:
0 all checks satisfied, 1 some check failed, 2 usage error, 3 enumeration
cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import io
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from .bounds import (
    balanced_predicate_bound,
    balanced_storage,
    classical_family_distance,
    classical_storage_lower_bound,
    collision_bound,
    pairwise_overlap_bound,
    privacy_amplification_experiment,
)
from .functions import (
    AffineFamily,
    BalancedPredicateFamily,
    EnumerationCapError,
    FunctionTable,
    InnerProductFamily,
    UniformFunctionFamily,
)
from .numerics import (
    factorial_sum_half,
    factorial_sum_identities,
    factorial_sum_integer,
    schur_check,
    stirling_log_bounds,
)
from .probability import ClassicalChannel, Distribution
from .quantum import (
    DensityMatrix,
    family_distance,
    helstrom_povm,
    helstrom_success,
    povm_success,
    random_povm_success,
    random_state_family,
    random_unitary,
    tetrahedron_family,
)
from .rng import stream

CSV_COLUMNS = (
    "scenario",
    "label",
    "n",
    "s",
    "k",
    "dim",
    "family",
    "exact",
    "bound",
    "bound2",
    "satisfied",
    "vacuous",
    "detail",
)


class Field(NamedTuple):
    kind: type
    help: str
    low: int | None = None  # inclusive range of an integer; None leaves that side open
    high: int | None = None
    choices: tuple | None = None  # the values a string may take; None allows any


# Every key a flag or a --config file may set, in the order error messages list them.
FIELDS = {
    # families build 2**n before the cap check; 64 covers all under it
    "n": Field(int, "string length in bits (or alphabet size)", 1, 64),
    "s": Field(int, "storage size in bits/qubits", 0),
    "k": Field(int, "hashed key length in bits", 1),
    "dim": Field(int, "Hilbert dimension for random states", 1),
    "samples": Field(int, "instances / trials per task", 1),
    "seed": Field(int, "64-bit experiment seed (default 1)", 0, 2**64 - 1),
    "family": Field(str, "function family kind"),
    "format": Field(str, "report format (default json)", choices=("json", "csv")),
    "out": Field(str, "output path, or - for stdout"),
    "no_timestamp": Field(bool, "omit generated_at"),
}
# keys every scenario reads; a scenario's own keys and defaults are in SCENARIOS
COMMON_DEFAULTS = {"seed": 1, "no_timestamp": False, "format": "json", "out": None}

TETRA_VALUE = 1.0 / (2.0 * math.sqrt(3.0))


def predicate_family(kind: str, n_bits: int):
    if kind == "uniform-all":
        return UniformFunctionFamily(2**n_bits, 2)
    if kind == "uniform-balanced":
        return BalancedPredicateFamily(2**n_bits)
    if kind == "affine-gf2":
        return AffineFamily(n_bits, 1)
    if kind == "inner-product":
        return InnerProductFamily(n_bits)
    raise ValueError(f"unknown predicate family kind {kind!r}")


def hash_family(kind: str, n_bits: int, k_bits: int):
    if kind == "affine-gf2":
        return AffineFamily(n_bits, k_bits)
    if kind == "uniform-all":
        return UniformFunctionFamily(2**n_bits, 2**k_bits)
    raise ValueError(f"hash families are affine-gf2 or uniform-all, got {kind!r}")


def run_compex(config: dict) -> list[dict]:
    seed = config["seed"]
    predicates = BalancedPredicateFamily(4)
    prior = Distribution.uniform(4)
    rows = []
    best = -1.0
    for code in range(16):
        table = FunctionTable(np.array([(code >> x) & 1 for x in range(4)]), 2)
        value = classical_family_distance(table, prior, predicates)
        best = max(best, value)
        rows.append(
            {
                "label": f"classical sigma={code:04b}",
                "n": 2,
                "s": 1,
                "family": "uniform-balanced",
                "exact": value,
                "satisfied": value <= 0.25 + 1e-12,
            }
        )
    stochastic_best = -1.0
    for task in range(config["samples"]):
        rng = stream(seed, task)
        channel = ClassicalChannel(rng.dirichlet(np.ones(2), size=4))
        stochastic_best = max(
            stochastic_best, classical_family_distance(channel, prior, predicates)
        )
    quantum_value = family_distance(tetrahedron_family(), predicates)
    rows.append(
        {
            "label": "classical best",
            "n": 2,
            "s": 1,
            "family": "uniform-balanced",
            "exact": best,
            "bound": 0.25,
            "satisfied": abs(best - 0.25) <= 1e-12,
            "detail": f"p_guess={0.5 + best!r}",
        }
    )
    rows.append(
        {
            "label": "classical best over sampled stochastic storage",
            "n": 2,
            "s": 1,
            "family": "uniform-balanced",
            "exact": stochastic_best,
            "bound": 0.25,
            "satisfied": stochastic_best <= 0.25 + 1e-12,
            "detail": f"{config['samples']} random channels",
        }
    )
    rows.append(
        {
            "label": "quantum tetrahedron",
            "n": 2,
            "s": 1,
            "dim": 2,
            "family": "uniform-balanced",
            "exact": quantum_value,
            "bound": TETRA_VALUE,
            "satisfied": abs(quantum_value - TETRA_VALUE) <= 1e-9,
            "detail": f"p_guess={0.5 + quantum_value!r}",
        }
    )
    return rows


def run_classical_lower_bound(config: dict) -> list[dict]:
    if config["n"] < 2:
        raise ValueError(f"classical-lower-bound needs n >= 2, got n={config['n']}")
    rows = []
    for n in range(2, config["n"] + 1):
        for s in range(1, n):
            sigma = balanced_storage(n, s)
            exact = classical_family_distance(
                sigma, Distribution.uniform(2**n), UniformFunctionFamily(2**n, 2)
            )
            oracle = classical_storage_lower_bound(n, s)
            rows.append(
                {
                    "label": f"n={n} s={s}",
                    "n": n,
                    "s": s,
                    "family": "uniform-all",
                    "exact": exact,
                    "bound": float(oracle),
                    "satisfied": abs(exact - float(oracle)) <= 1e-12,
                    "detail": f"oracle={oracle}",
                }
            )
    return rows


def run_bound_sweep(config: dict) -> list[dict]:
    predicates = predicate_family(config["family"], config["n"])
    predicates.check_cap()  # before building any 2^n-state family
    rows = []
    for task in range(config["samples"]):
        purity = "pure" if task % 2 == 0 else "mixed"
        states = random_state_family(
            config["dim"], 2 ** config["n"], purity, stream(config["seed"], task)
        )
        exact = family_distance(states, predicates)
        overlap = pairwise_overlap_bound(states, predicates)
        universal = collision_bound(states.prior, config["dim"])
        rows.append(
            {
                "label": f"instance-{task}",
                "n": config["n"],
                "dim": config["dim"],
                "family": config["family"],
                "exact": exact,
                "bound": overlap,
                "bound2": universal,
                "satisfied": exact <= overlap + 1e-9 and overlap <= universal + 1e-9,
                "detail": purity,
            }
        )
    return rows


def run_hashing_lemma(config: dict) -> list[dict]:
    alphabets = (2, 4, 6, 8, 16) if config["n"] is None else (config["n"],)
    rows = []
    witness = balanced_predicate_bound(Distribution([0.5, 0.5, 0.0, 0.0]))
    rows.append(
        {
            "label": "equality witness (1/2, 1/2, 0, 0)",
            "n": 4,
            "exact": witness.exact_value,
            "bound": witness.bound_value,
            "satisfied": witness.satisfied
            and abs(witness.context["ratio"] - 1.0) <= 1e-9,
            "detail": f"ratio={witness.context['ratio']!r}",
        }
    )
    for index, alphabet in enumerate(alphabets):
        rng = stream(config["seed"], index)
        max_ratio = 0.0
        all_ok = True
        for _ in range(config["samples"]):
            report = balanced_predicate_bound(Distribution(rng.dirichlet(np.ones(alphabet))))
            all_ok = all_ok and report.satisfied
            max_ratio = max(max_ratio, report.context["ratio"])
        rows.append(
            {
                "label": f"alphabet-{alphabet}",
                "n": alphabet,
                "satisfied": all_ok,
                "detail": f"max_ratio={max_ratio!r} over {config['samples']} samples",
            }
        )
    return rows


def run_pa(config: dict) -> list[dict]:
    n, s, k = config["n"], config["s"], config["k"]
    hashes = hash_family(config["family"], n, k)
    hashes.check_cap()  # before building any 2^n-state encoding
    storage = balanced_storage(n, s)  # refuses s >= n before any encoding is built
    rows = []
    for task in range(config["samples"]):
        encoding = random_state_family(2**s, 2**n, "pure", stream(config["seed"], task))
        report = privacy_amplification_experiment(
            encoding,
            hashes,
            storage_bits=s,
            seed=stream(config["seed"], config["samples"] + task),
        )
        row = {
            "label": f"quantum-{task}",
            "n": n,
            "s": s,
            "k": k,
            "dim": 2**s,
            "family": config["family"],
            "exact": report.exact_value,
            "bound": report.bound_value,
            "satisfied": report.satisfied,
            "vacuous": report.vacuous,
            "encoding": {  # how to rebuild the states, and a digest to check them by
                "recipe": "random_state_family",
                "dim": 2**s,
                "domain": 2**n,
                "purity": "pure",
                "seed": [config["seed"], task],
                "sha256": hashlib.sha256(encoding.states.tobytes()).hexdigest(),
            },
        }
        if "sampled_lower_bound" in report.context:
            row["detail"] = f"sampled_lower_bound={report.context['sampled_lower_bound']!r}"
        rows.append(row)
    classical = privacy_amplification_experiment(storage, hashes, storage_bits=s)
    rows.append(
        {
            "label": "classical balanced storage",
            "n": n,
            "s": s,
            "k": k,
            "family": config["family"],
            "exact": classical.exact_value,
            "bound": classical.bound_value,
            "satisfied": classical.satisfied,
            "vacuous": classical.vacuous,
            "detail": "first-s-bits truncation",
        }
    )
    return rows


def run_helstrom_demo(config: dict) -> list[dict]:
    rows = []
    dim = config["dim"]
    for task in range(20):
        rng = stream(config["seed"], task)
        q = float(rng.random())
        rho0 = DensityMatrix(random_state_family(dim, 1, "mixed", rng).states[0])
        rho1 = DensityMatrix(random_state_family(dim, 1, "mixed", rng).states[0])
        optimal = helstrom_success(q, rho0, rho1)
        achieved = povm_success(q, rho0, rho1, helstrom_povm(q, rho0, rho1))
        sampled = random_povm_success(q, rho0, rho1, config["samples"], rng)
        rows.append(
            {
                "label": f"instance-{task}",
                "dim": dim,
                "exact": achieved,
                "bound": optimal,
                "bound2": sampled,
                "satisfied": abs(achieved - optimal) <= 1e-9
                and sampled <= optimal + 1e-9,
                "detail": f"q={q!r}",
            }
        )
    return rows


def run_appendix_verify(config: dict) -> list[dict]:
    rows = []

    identity_ok = all(
        lhs == rhs
        for a in range(0, 21)
        for b in range(0, 21)
        for lhs, rhs in (factorial_sum_integer(a, b), factorial_sum_half(a, b))
    ) and all(
        lhs == rhs
        for a in range(1, 21)
        for lhs, rhs in factorial_sum_identities(a, 20 - a)
    )
    rows.append(
        {
            "label": "factorial-sum identities",
            "satisfied": identity_ok,
            "detail": "exact rational equality for a, b <= 20",
        }
    )

    stirling_ok = all(
        lower < exact < upper
        for lower, exact, upper in (stirling_log_bounds(n) for n in range(1, 171))
    )
    rows.append(
        {
            "label": "factorial log-bracket",
            "satisfied": stirling_ok,
            "detail": "strict sandwich for 1 <= n <= 170",
        }
    )

    rng = stream(config["seed"], 0)
    schur_ok = True
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        check = schur_check(m)
        schur_ok = schur_ok and check.eigen_square_sum <= check.gram_trace + 1e-9
    rows.append(
        {
            "label": "eigenvalue-square vs Gram trace",
            "satisfied": schur_ok,
            "detail": "200 random complex matrices, dim <= 8",
        }
    )

    rng = stream(config["seed"], 1)
    normal_ok = True
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        u = random_unitary(dim, rng)
        d = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        a = (u * d) @ u.conj().T
        check = schur_check(a)
        normal_ok = (
            normal_ok
            and check.normal
            and abs(a.trace()) ** 2 <= dim * check.gram_trace + 1e-9
        )
    rows.append(
        {
            "label": "normal-operator trace inequality",
            "satisfied": normal_ok,
            "detail": "200 random normal matrices, dim <= 8",
        }
    )
    return rows


# Each scenario's runner and the keys it reads, with their defaults; a --config
# file overrides the defaults and flags override both.
SCENARIOS = {
    "compex": (run_compex, {"samples": 200}),
    "classical-lower-bound": (run_classical_lower_bound, {"n": 4}),
    "bound-sweep": (
        run_bound_sweep,
        {"n": 3, "dim": 2, "family": "uniform-balanced", "samples": 25},
    ),
    # n picks one alphabet; None runs the default set
    "hashing-lemma": (run_hashing_lemma, {"samples": 500, "n": None}),
    "pa": (run_pa, {"n": 4, "s": 1, "k": 1, "family": "affine-gf2", "samples": 50}),
    "helstrom-demo": (run_helstrom_demo, {"dim": 2, "samples": 1000}),
    "appendix-verify": (run_appendix_verify, {}),
}


def build_report(scenario: str, config: dict) -> dict:
    rows = SCENARIOS[scenario][0](config)
    report = {
        "schema": 1,
        "scenario": scenario,
        "seed": config["seed"],
        "config": {k: v for k, v in sorted(config.items()) if v is not None},
        "rows": rows,
        "all_satisfied": all(row.get("satisfied", True) for row in rows),
    }
    if not config.get("no_timestamp"):
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return report


def render_csv(report: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report["rows"]:
        record = dict(row, scenario=report["scenario"])
        writer.writerow(
            ["" if record.get(c) is None else str(record.get(c, "")) for c in CSV_COLUMNS]
        )
    return buffer.getvalue()


def _json_default(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def write_report(report: dict, fmt: str, out: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    else:
        text = render_csv(report)
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so `main` reports them on one line with status 2."""

    def error(self, message):
        raise ValueError(message)


@functools.cache  # each build costs ~1.5 ms and leaves hundreds of objects in cycles
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="guessbound",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="scenario_command", required=True)
    for name in SCENARIOS:
        # every scenario takes every flag, so an unread key gets the "does not
        # read" message rather than an argparse prefix match
        p = sub.add_parser(name, help=f"run the {name} scenario")
        for key, field in FIELDS.items():
            flag = "--" + key.replace("_", "-")
            if field.kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=field.help)
            else:
                p.add_argument(flag, type=field.kind, choices=field.choices, help=field.help)
        p.add_argument("--config", help="JSON file with default flag values")
    return parser


def resolve_config(args: argparse.Namespace) -> tuple[str, dict]:
    """Merge defaults, --config and flags; raise ValueError on the first bad key."""
    scenario = args.scenario_command
    reads = SCENARIOS[scenario][1]
    given = {}
    if args.config:
        try:
            with open(args.config) as handle:
                loaded = json.load(handle)
        except OSError as error:
            raise ValueError(f"cannot read --config file: {error}") from error
        if not isinstance(loaded, dict):
            raise ValueError("the --config file must hold a JSON object")
        given.update(loaded)
    given.update((key, getattr(args, key)) for key in FIELDS if getattr(args, key) is not None)
    # the defaults are trusted, so only the keys set by --config or flags are checked
    for key, value in given.items():
        if key not in FIELDS:
            raise ValueError(f"unknown key {key!r} (allowed: {', '.join(FIELDS)})")
        if key not in COMMON_DEFAULTS and key not in reads:
            raise ValueError(
                f"{scenario} does not read {key!r} (its keys: {', '.join(reads) or 'none'})"
            )
        field = FIELDS[key]
        if type(value) is not field.kind:  # unlike isinstance, rejects bools as integers
            raise ValueError(f"{key} must be of type {field.kind.__name__}, got {value!r}")
        if field.choices and value not in field.choices:
            raise ValueError(f"{key} must be one of {', '.join(field.choices)}, got {value!r}")
        low, high = field.low, field.high
        if (low is not None and value < low) or (high is not None and value > high):
            upper = "" if high is None else f" and at most {high}"
            raise ValueError(f"{key} must be at least {low}{upper}, got {value}")
    return scenario, {**COMMON_DEFAULTS, **reads, **given}


def main(argv=None) -> int:
    try:
        scenario, config = resolve_config(build_parser().parse_args(argv))
        out = config.pop("out") or f"report.{config['format']}"
        report = build_report(scenario, config)
        try:
            write_report(report, config["format"], out)
        except OSError as error:
            raise ValueError(f"cannot write --out file: {error}") from error
    except EnumerationCapError as error:
        print(f"enumeration cap exceeded: {error}", file=sys.stderr)
        return 3
    except ValueError as error:
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2
    if out != "-":
        status = "satisfied" if report["all_satisfied"] else "NOT satisfied"
        print(f"{scenario}: {len(report['rows'])} rows, all checks {status} -> {out}")
    return 0 if report["all_satisfied"] else 1


if __name__ == "__main__":
    sys.exit(main())
