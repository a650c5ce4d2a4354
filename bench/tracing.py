"""Span tracing installed from outside the program under test.

`Tracer.install` wraps the public functions of each layer (the modules
``functions``, ``quantum``, ``bounds``, ``probability``, ``numerics``, ``rng``
and ``cli``) and the family ``support_matrix`` methods with timing wrappers.
A function is replaced in every ``guessbound`` namespace that holds it, so
``cli.family_distance`` and ``bounds.family_distance`` are traced as well as
``quantum.family_distance``.  Spans ``(name, start, end, parent)`` stay in
memory; `Tracer.report_metrics` turns one report's spans and counts into the
per-layer metrics, and `uninstall` restores every original.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("functions", "quantum", "bounds", "probability", "numerics", "rng", "cli")

# numerics functions that evaluate identities in exact Fraction arithmetic
EXACT_IDENTITIES = frozenset(
    "numerics." + name
    for name in (
        "central_binomial_mass",
        "binomial_deviation_sum",
        "factorial_sum_integer",
        "factorial_sum_half",
        "factorial_sum_identities",
    )
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_support_matrix(tracer, args, kwargs, result):
    family, (weights, values) = args[0], result
    tracer.counts["functions.members_enumerated"] += len(weights)
    tracer.counts["functions.support_matrix_bytes"] += weights.nbytes + values.nbytes
    tracer.families.add((family.kind, json.dumps(family.params(), sort_keys=True)))


def _count_family_distance(tracer, args, kwargs, result):
    predicates = _arg(args, kwargs, 1, "predicates")
    tracer.counts["quantum.operators_diagonalized"] += predicates.support_size()


def _count_predicate_distance(tracer, args, kwargs, result):
    tracer.counts["quantum.operators_diagonalized"] += 1


def _count_sampled_measurement(tracer, args, kwargs, result):
    functions = _arg(args, kwargs, 1, "functions")
    trials = _arg(args, kwargs, 2, "trials")
    tracer.counts["quantum.function_basis_pairs"] += functions.support_size() * (trials + 1)


def _count_states(tracer, args, kwargs, result):
    tracer.counts["quantum.states_built"] += len(result.states)


HOOKS = {
    "functions.support_matrix": _count_support_matrix,
    "quantum.family_distance": _count_family_distance,
    "quantum.predicate_distance": _count_predicate_distance,
    "quantum.sampled_measurement_distance": _count_sampled_measurement,
    "quantum.random_state_family": _count_states,
    "quantum.tetrahedron_family": _count_states,
}

# constructors counted, not timed: they run thousands of times per report
COUNTED_CONSTRUCTORS = {
    ("probability", "Distribution"): "probability.distributions_built",
    ("quantum", "DensityMatrix"): "quantum.density_matrix_checks",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.families: set = set()
        self._stack: list[int] = []
        self._undo: list = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.families.clear()

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        namespaces = [
            module
            for name, module in sys.modules.items()
            if name == "guessbound" or name.startswith("guessbound.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"guessbound.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapper = self._timed(f"{layer}.{attr}", value)
                    for namespace in namespaces:
                        for key, held in list(vars(namespace).items()):
                            if held is value:
                                self._patch(namespace, key, wrapper)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    if "support_matrix" in value.__dict__:
                        method = value.__dict__["support_matrix"]
                        self._patch(value, "support_matrix", self._timed(f"{layer}.support_matrix", method))
                    counter = COUNTED_CONSTRUCTORS.get((layer, attr))
                    if counter is not None:
                        self._patch(value, "__post_init__", self._counted(counter, value.__post_init__))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-report analysis ----------------------------------------------

    def self_times(self) -> tuple[list[float], int]:
        """Self time of every span, and how many spans break the invariants.

        A span's self time is its duration minus its children's durations;
        it must be non-negative, and children must fit inside the parent.
        """
        child_sum = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_sum[parent] += end - start
        selfs = []
        violations = 0
        for (name, start, end, parent), children in zip(self.spans, child_sum):
            value = (end - start) - children
            selfs.append(value)
            # children are timed inside the parent, so this holds up to rounding
            if value < -1e-9:
                violations += 1
            if parent >= 0:
                p_start, p_end = self.spans[parent][1:3]
                if start < p_start or end > p_end:
                    violations += 1
        return selfs, violations

    def busy(self, names, by_name) -> float:
        """Wall time covered by spans named in `names`, nested ones counted once."""
        total = 0.0
        for name in names:
            for index in by_name.get(name, ()):
                _, start, end, parent = self.spans[index]
                while parent >= 0 and self.spans[parent][0] not in names:
                    parent = self.spans[parent][3]
                if parent < 0:
                    total += end - start
        return total

    def report_metrics(self) -> tuple[dict, int]:
        """Per-layer metrics of the report traced since the last `reset`."""
        selfs, violations = self.self_times()
        by_name: dict[str, list[int]] = {}
        self_by_name = Counter()
        for index, (span, value) in enumerate(zip(self.spans, selfs)):
            by_name.setdefault(span[0], []).append(index)
            self_by_name[span[0]] += value
        calls = Counter({name: len(indices) for name, indices in by_name.items()})
        self_by_layer = Counter()
        for name, value in self_by_name.items():
            self_by_layer[name.split(".", 1)[0]] += value

        def busy(name):
            return self.busy({name}, by_name)

        metrics = {
            "functions.support_matrix_s": busy("functions.support_matrix"),
            "functions.support_matrix_calls": calls["functions.support_matrix"],
            "functions.members_enumerated": self.counts["functions.members_enumerated"],
            "functions.support_matrix_bytes": self.counts["functions.support_matrix_bytes"],
            "functions.distinct_families": len(self.families),
            "functions.collision_matrix_s": busy("functions.collision_matrix"),
            "functions.collision_matrix_calls": calls["functions.collision_matrix"],
            "quantum.family_distance_s": busy("quantum.family_distance"),
            "quantum.operators_diagonalized": self.counts["quantum.operators_diagonalized"],
            "quantum.sampled_measurement_distance_self_s": self_by_name[
                "quantum.sampled_measurement_distance"
            ],
            "quantum.function_basis_pairs": self.counts["quantum.function_basis_pairs"],
            "quantum.random_state_family_s": busy("quantum.random_state_family"),
            "quantum.states_built": self.counts["quantum.states_built"],
            "quantum.density_matrix_checks": self.counts["quantum.density_matrix_checks"],
            "quantum.random_povm_success_s": busy("quantum.random_povm_success"),
            "quantum.helstrom_success_s": busy("quantum.helstrom_success"),
            "bounds.privacy_amplification_experiment_self_s": self_by_name[
                "bounds.privacy_amplification_experiment"
            ],
            "bounds.pairwise_overlap_bound_self_s": self_by_name["bounds.pairwise_overlap_bound"],
            "bounds.classical_family_distance_s": busy("bounds.classical_family_distance"),
            "bounds.classical_family_distance_calls": calls["bounds.classical_family_distance"],
            "bounds.balanced_predicate_bound_s": busy("bounds.balanced_predicate_bound"),
            "bounds.balanced_predicate_bound_calls": calls["bounds.balanced_predicate_bound"],
            "probability.distributions_built": self.counts["probability.distributions_built"],
            "probability.dist_from_uniform_s": busy("probability.dist_from_uniform"),
            "numerics.trace_norm_calls": calls["numerics.trace_norm"],
            "numerics.trace_norm_s": busy("numerics.trace_norm"),
            "numerics.exact_identities_s": self.busy(EXACT_IDENTITIES, by_name),
            "numerics.schur_check_s": busy("numerics.schur_check"),
            "rng.stream_calls": calls["rng.stream"],
            "rng.stream_s": busy("rng.stream"),
            "cli.runner_self_s": self_by_name["cli.build_report"],
            "cli.write_report_s": busy("cli.write_report"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_by_layer[layer]
        return metrics, violations
