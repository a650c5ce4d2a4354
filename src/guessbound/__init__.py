"""Exact desk-scale analysis of guessing hashed predicates from bounded memory.

The package quantifies how much an observer holding s classical bits or s
qubits about a string X can know about a randomly chosen predicate or hash
of X, and verifies every bound it computes against brute-force oracles:

- `probability`: distributions, channels, and distance from uniform.
- `functions`: function tables, predicate/hash families, two-universality.
- `numerics`: Hermitian spectra and exact combinatorial identities.
- `quantum`: density matrices, optimal binary measurements, stored-state
  distances.
- `bounds`: every inequality with its exact or sampled comparator.
- `cli`: reproducible experiment scenarios (`guessbound --help`).
"""

from .bounds import (
    BoundReport,
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
from .functions import (
    AffineFamily,
    BalancedPredicateFamily,
    ComposedFamily,
    EnumerationCapError,
    ExplicitFamily,
    FunctionFamily,
    FunctionTable,
    InnerProductFamily,
    UniformFunctionFamily,
    collision_matrix,
    compose,
    is_two_universal,
)
from .numerics import (
    central_binomial_mass,
    factorial_sum_identities,
    hermitian_eigenvalues,
    schur_check,
    stirling_log_bounds,
    trace_norm,
)
from .probability import (
    ClassicalChannel,
    Distribution,
    dist_from_uniform,
)
from .quantum import (
    DensityMatrix,
    Povm,
    StateFamily,
    classical_state_family,
    family_distance,
    helstrom_povm,
    helstrom_success,
    povm_success,
    predicate_distance,
    random_povm_success,
    random_state_family,
    tetrahedron_family,
)
from .rng import stream

__all__ = [name for name in dir() if not name.startswith("_")]
