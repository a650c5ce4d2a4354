import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from guessbound.functions import (
    AffineFamily,
    BalancedPredicateFamily,
    ComposedFamily,
    EnumerationCapError,
    ExplicitFamily,
    FunctionTable,
    InnerProductFamily,
    UniformFunctionFamily,
    agreement_matrix,
    collision_matrix,
    compose,
    is_two_universal,
)
from oracles import affine_table, enumerate_predicates, inner_product_table, int_to_bits, support


def random_two_universal_family(rng, input_bits, output_bits):
    """Affine family scrambled by domain/output permutations; stays two-universal."""
    base = AffineFamily(input_bits, output_bits)
    perm = rng.permutation(2**input_bits)
    tables = []
    for _, t in support(base):
        out_perm = rng.permutation(2**output_bits)
        tables.append(FunctionTable(out_perm[t.values[perm]], t.range_size))
    return ExplicitFamily(tables)


def reference_support(family):
    """Per-member enumeration, one table at a time: (weights, int64 values)."""
    if isinstance(family, UniformFunctionFamily):
        r, size = family.range_size, family.support_size()
        pairs = [
            (1.0 / size, [(t // r**x) % r for x in range(family.domain_size)])
            for t in range(size)
        ]
    elif isinstance(family, BalancedPredicateFamily):
        n = family.domain_size
        pairs = []
        for ones in itertools.combinations(range(n), n // 2):
            values = np.zeros(n, dtype=np.int64)
            values[list(ones)] = 1
            pairs.append((1.0 / family.support_size(), values))
    elif isinstance(family, AffineFamily):
        n, k = family.input_bits, family.output_bits
        pairs = []
        for index in range(family.support_size()):
            matrix = int_to_bits(index, k * n).reshape(k, n)
            offset = int_to_bits(index >> (k * n), k)
            pairs.append((1.0 / family.support_size(), affine_table(family, matrix, offset).values))
    elif isinstance(family, InnerProductFamily):
        pairs = [
            (1.0 / family.support_size(), inner_product_table(family, mask).values)
            for mask in range(family.support_size())
        ]
    elif isinstance(family, ExplicitFamily):
        pairs = [(float(w), t.values) for w, t in zip(family.weights.probs, family.tables)]
    elif isinstance(family, ComposedFamily):
        inner_weights, inner_values = reference_support(family.inner)
        outer_weights, outer_values = reference_support(family.outer)
        pairs = []
        for w_in, inner in zip(inner_weights, inner_values):
            for w_out, outer in zip(outer_weights, outer_values):
                pairs.append((w_in * w_out, outer[inner]))
    else:
        raise TypeError(family)
    weights, values = zip(*pairs)
    return np.array(weights), np.array(values, dtype=np.int64)


def _explicit_weighted():
    tables = [FunctionTable(np.array(v), 3) for v in ([0, 1, 2, 2], [2, 2, 0, 1], [1, 0, 0, 0])]
    return ExplicitFamily(tables, weights=[0.5, 0.125, 0.375])


ORACLE_FAMILIES = [
    UniformFunctionFamily(1, 1),
    UniformFunctionFamily(4, 2),
    UniformFunctionFamily(3, 3),
    UniformFunctionFamily(2, 5),
    BalancedPredicateFamily(2),
    BalancedPredicateFamily(6),
    BalancedPredicateFamily(16),
    AffineFamily(1, 1),
    AffineFamily(3, 2),
    AffineFamily(2, 3),
    AffineFamily(7, 2),  # 65536 members, at the enumeration cap
    InnerProductFamily(1),
    InnerProductFamily(5),
    _explicit_weighted(),
    ComposedFamily(BalancedPredicateFamily(4), AffineFamily(3, 2)),
    ComposedFamily(AffineFamily(2, 1), UniformFunctionFamily(3, 4)),
    ComposedFamily(
        InnerProductFamily(2),
        ExplicitFamily(
            [FunctionTable(np.array([0, 3, 1, 2, 3]), 4), FunctionTable(np.array([2, 2, 1, 0, 3]), 4)]
        ),
    ),
]


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=lambda f: f"{f.kind}-{f.support_size()}")
def test_support_matrix_matches_per_member_enumeration(family):
    weights, values = family.support_matrix()
    ref_weights, ref_values = reference_support(family)
    assert np.array_equal(weights, ref_weights)
    assert np.array_equal(values, ref_values)
    assert values.dtype == np.min_scalar_type(family.range_size - 1)
    assert support(family) == [
        (w, FunctionTable(v, family.range_size)) for w, v in zip(ref_weights, ref_values)
    ]


@pytest.mark.parametrize(
    "family",
    [f for f in ORACLE_FAMILIES if f.support_size() < 65536],
    ids=lambda f: f"{f.kind}-{f.support_size()}",
)
def test_collision_matrix_matches_exact_fractions(family):
    # exact rational collision probabilities: integer collision counts among
    # the members of each distinct weight, times that weight as a Fraction
    ref_weights, ref_values = reference_support(family)
    exact = np.zeros((family.domain_size, family.domain_size), dtype=object)
    for weight in np.unique(ref_weights):
        members = ref_values[ref_weights == weight]
        counts = sum(
            (members == z).astype(np.int64).T @ (members == z).astype(np.int64)
            for z in range(family.range_size)
        )
        exact += counts.astype(object) * Fraction(weight)
    exact = exact.astype(float)
    assert np.abs(collision_matrix(family) - exact).max() <= 1e-15


def test_collision_matrix_at_the_cap_is_exact():
    # AffineFamily(7, 2) is two-universal with collision probability exactly 1/4
    matrix = collision_matrix(AffineFamily(7, 2))
    expected = np.full((128, 128), 0.25)
    np.fill_diagonal(expected, 1.0)
    assert np.array_equal(matrix, expected)


def test_support_matrix_is_cached_and_read_only():
    for family in (AffineFamily(3, 2), BalancedPredicateFamily(6), _explicit_weighted()):
        weights, values = family.support_matrix()
        again = family.support_matrix()
        assert again[0] is weights and again[1] is values
        with pytest.raises(ValueError):
            weights[0] = 0.0
        with pytest.raises(ValueError):
            values[0, 0] = 0
    explicit = _explicit_weighted()
    explicit.support_matrix()
    # the family's own distribution stays untouched by the cache
    assert explicit.weights.probs[0] == 0.5


def test_collision_matrix_is_fresh_and_writable():
    family = BalancedPredicateFamily(4)
    first = collision_matrix(family)
    first[0, 1] = 7.0
    second = collision_matrix(family)
    assert second is not first and second.flags.writeable
    assert second[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    report = is_two_universal(family)
    assert report.two_universal and report.worst_pair != (0, 0)


def test_function_table_validation():
    with pytest.raises(ValueError):
        FunctionTable(np.array([0, 2]), 2)
    with pytest.raises(ValueError):
        FunctionTable(np.array([], dtype=int), 2)
    t = FunctionTable(np.array([0, 1, 1, 0]), 2)
    assert t.domain_size == 4 and t(2) == 1


def test_function_table_json_round_trip():
    t = FunctionTable(np.array([3, 0, 2, 1]), 4)
    assert t.to_json() == [3, 0, 2, 1]
    assert FunctionTable(np.array(t.to_json()), 4) == t


def test_enumerate_predicates_counts():
    assert len(enumerate_predicates(2, balanced=True)) == 2
    assert len(enumerate_predicates(4, balanced=True)) == 6
    assert len(enumerate_predicates(4, balanced=False)) == 16
    for n in range(1, 9):
        tables = enumerate_predicates(n)
        assert len(tables) == 2**n
        assert len(set(tables)) == 2**n
        if n % 2 == 0:
            balanced = enumerate_predicates(n, balanced=True)
            assert len(balanced) == math.comb(n, n // 2)
            assert all(2 * (t.values == 0).sum() == n for t in balanced)


def test_enumeration_caps():
    with pytest.raises(EnumerationCapError):
        enumerate_predicates(17)
    with pytest.raises(EnumerationCapError):
        enumerate_predicates(20, balanced=True)
    with pytest.raises(ValueError):
        enumerate_predicates(0)
    with pytest.raises(EnumerationCapError):
        support(UniformFunctionFamily(17, 2))
    with pytest.raises(EnumerationCapError):
        collision_matrix(UniformFunctionFamily(64, 2))
    # the cap is inclusive, and families with astronomically many members are
    # refused without their exact count being built
    assert len(UniformFunctionFamily(16, 2).support_matrix()[0]) == 65536
    assert len(UniformFunctionFamily(17, 1).support_matrix()[0]) == 1
    for family in (
        UniformFunctionFamily(2**40, 2),
        BalancedPredicateFamily(2**40),
        BalancedPredicateFamily(32),
        AffineFamily(40, 1),
    ):
        with pytest.raises(EnumerationCapError, match="more than 65536 members"):
            family.support_matrix()


def test_support_weights_sum_to_one():
    families = [
        UniformFunctionFamily(4, 2),
        UniformFunctionFamily(3, 3),
        BalancedPredicateFamily(6),
        AffineFamily(3, 2),
        InnerProductFamily(3),
    ]
    for family in families:
        weights, values = family.support_matrix()
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert values.shape == (family.support_size(), family.domain_size)
        assert values.max() < family.range_size


def test_collision_probability_uniform_all():
    assert collision_matrix(UniformFunctionFamily(4, 2))[0, 3] == pytest.approx(0.5)
    assert collision_matrix(UniformFunctionFamily(3, 4))[1, 2] == pytest.approx(0.25)


def test_collision_probability_affine_exact_half():
    matrix = collision_matrix(AffineFamily(3, 1))
    for x in range(8):
        for xp in range(x + 1, 8):
            assert matrix[x, xp] == pytest.approx(0.5, abs=1e-15)


def test_collision_probability_balanced():
    for m in (2, 4, 6, 8, 16):
        family = BalancedPredicateFamily(m)
        expected = float(Fraction(m - 2, 2 * (m - 1)))
        assert collision_matrix(family)[0, m - 1] == pytest.approx(expected, abs=1e-12)


def test_is_two_universal_verdicts():
    assert is_two_universal(UniformFunctionFamily(4, 2)).two_universal
    assert is_two_universal(AffineFamily(3, 2)).two_universal
    assert is_two_universal(InnerProductFamily(4)).two_universal
    assert is_two_universal(BalancedPredicateFamily(6)).two_universal

    constant = ExplicitFamily(
        [FunctionTable(np.zeros(4, dtype=int), 2), FunctionTable(np.ones(4, dtype=int), 2)]
    )
    report = is_two_universal(constant)
    assert not report.two_universal
    assert report.worst_probability == pytest.approx(1.0)


def test_is_two_universal_domain_cap():
    with pytest.raises(EnumerationCapError):
        is_two_universal(AffineFamily(9, 1))


def test_compose_identity_outer_preserves_distribution():
    identity = ExplicitFamily([FunctionTable(np.array([0, 1]), 2)])
    inner = BalancedPredicateFamily(4)
    composed = compose(identity, inner)
    assert {t for _, t in support(composed)} == {t for _, t in support(inner)}
    weights = [w for w, _ in support(composed)]
    assert np.allclose(weights, 1.0 / 6.0)


def test_compose_deterministic_inner_collision():
    # with g fixed and g(x) != g(x'), the composed collision probability is
    # exactly the balanced-predicate collision probability on the range
    for bits in (1, 2, 3):
        size = 2**bits
        g = FunctionTable(np.arange(size).repeat(2) % size, size)
        inner = ExplicitFamily([g])
        composed = compose(BalancedPredicateFamily(size), inner)
        x, xp = 0, 2  # g(0) = 0, g(2) = 1 for every bits value
        assert g(x) != g(xp)
        expected = float(Fraction(size - 2, 2 * (size - 1)))
        assert collision_matrix(composed)[x, xp] == pytest.approx(expected, abs=1e-12)


def test_compose_affine_with_balanced_outer():
    composed = compose(BalancedPredicateFamily(4), AffineFamily(4, 2))
    report = is_two_universal(composed)
    assert report.two_universal
    assert report.threshold == pytest.approx(0.5)


def test_composition_preserves_two_universality():
    # random two-universal inner families, balanced outer
    rng = np.random.default_rng(13)
    cases = 0
    for output_bits, max_input in ((1, 4), (2, 3), (3, 2)):
        for _ in range(17):
            input_bits = int(rng.integers(1, max_input + 1))
            inner = random_two_universal_family(rng, input_bits, output_bits)
            assert is_two_universal(inner).two_universal
            composed = compose(BalancedPredicateFamily(2**output_bits), inner)
            assert is_two_universal(composed).two_universal
            cases += 1
    assert cases >= 50


def test_weighted_explicit_family():
    # non-uniform weights: collision probability is the weighted average
    tables = [
        FunctionTable(np.array([0, 0]), 2),  # collides everywhere
        FunctionTable(np.array([0, 1]), 2),  # never collides
    ]
    family = ExplicitFamily(tables, weights=[0.25, 0.75])
    assert collision_matrix(family)[0, 1] == pytest.approx(0.25)
    assert is_two_universal(family).two_universal
    heavy_constant = ExplicitFamily(tables, weights=[0.75, 0.25])
    assert collision_matrix(heavy_constant)[0, 1] == pytest.approx(0.75)
    assert not is_two_universal(heavy_constant).two_universal


def test_agreement_coefficient_values():
    matrix = agreement_matrix(BalancedPredicateFamily(4))
    assert matrix[2, 2] == 1.0
    assert matrix[0, 3] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert agreement_matrix(UniformFunctionFamily(4, 2))[0, 1] == pytest.approx(0.0)
    with pytest.raises(ValueError):
        agreement_matrix(UniformFunctionFamily(3, 3))


def test_agreement_matrix_balanced_closed_form():
    for m in (2, 4, 8, 16):
        family = BalancedPredicateFamily(m)
        matrix = agreement_matrix(family)
        off = -1.0 / (m - 1)
        expected = np.full((m, m), off)
        np.fill_diagonal(expected, 1.0)
        assert np.abs(matrix - expected).max() <= 1e-12


def test_collision_matrix_symmetry():
    matrix = collision_matrix(AffineFamily(3, 1))
    assert np.allclose(matrix, matrix.T)
    assert np.allclose(np.diag(matrix), 1.0)


def test_family_json_shapes():
    family = AffineFamily(3, 2)
    blob = family.to_json(seed=9)
    assert blob == {
        "kind": "affine-gf2",
        "params": {"input_bits": 3, "output_bits": 2},
        "seed": 9,
    }
    composed = compose(BalancedPredicateFamily(4), family)
    blob = composed.to_json()
    assert blob["kind"] == "composed"
    assert blob["params"]["inner"]["kind"] == "affine-gf2"
    assert blob["params"]["outer"]["kind"] == "uniform-balanced"
