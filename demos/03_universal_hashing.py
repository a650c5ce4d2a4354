"""Two-universal hashing: collisions, composition, and uniformity recovery.

A random function is two-universal when any two distinct inputs collide with
probability at most 1/|range|.  This script checks the affine GF(2) family
exactly, composes it with a balanced random predicate (the composition stays
two-universal), and demonstrates the uniformity-recovery inequality
d(Q) <= (3/2) sqrt(|alphabet|) E_f[d(f(X'))], including its equality case.
"""

import numpy as np

from guessbound import (
    AffineFamily,
    BalancedPredicateFamily,
    Distribution,
    balanced_predicate_bound,
    collision_matrix,
    compose,
    is_two_universal,
)

print("== affine GF(2) hashes h(x) = Ax xor b, 4 bits -> 2 bits ==")
family = AffineFamily(4, 2)
print(f"  members: {family.support_size()}, range: {family.range_size}")
print(f"  collision probability at (3, 12): {collision_matrix(family)[3, 12]:.6f}")
report = is_two_universal(family)
print(f"  two-universal: {report.two_universal} (worst pair {report.worst_pair} "
      f"at {report.worst_probability:.6f} <= 1/{family.range_size})")

print("\n== composing with a balanced random predicate on the range ==")
composed = compose(BalancedPredicateFamily(4), family)
report = is_two_universal(composed)
print(f"  composed members: {composed.support_size()}")
print(f"  two-universal: {report.two_universal} "
      f"(worst {report.worst_probability:.6f} <= {report.threshold})")

print("\n== recovering distance from uniform out of predicate distances ==")
for probs in ([0.5, 0.5, 0.0, 0.0], [0.7, 0.1, 0.1, 0.1], [0.25, 0.25, 0.25, 0.25]):
    outcome = balanced_predicate_bound(Distribution(probs))
    print(f"  Q = {probs}: d(Q) = {outcome.exact_value:.4f} <= "
          f"{outcome.bound_value:.4f} (ratio {outcome.context['ratio']:.3f})")

print("\n== the bound is tight over random distributions ==")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(2000):
    outcome = balanced_predicate_bound(Distribution(rng.dirichlet(np.ones(8))))
    worst = max(worst, outcome.context["ratio"])
print(f"  max ratio over 2000 random 8-point distributions: {worst:.4f} (<= 1)")
