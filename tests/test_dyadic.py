"""Exact weights are dyadic rationals, held as fractions.Fraction."""
from fractions import Fraction

from dpcover import analysis, constructions
from dpcover.core import Family, make_partial_map

from oracles import random_family, slow_weight


def fam(*entry_lists):
    return Family.of([make_partial_map(entries) for entries in entry_lists])


def is_dyadic(value) -> bool:
    return isinstance(value, Fraction) and value.denominator & (value.denominator - 1) == 0


# Odd side of the split on {0} weighs 1/8 + 1/4; the even side is empty.
ODD_HEAVY = fam([(0, 1), (1, 0), (2, 0)], [(0, 1), (1, 1)])


def test_values_are_fractions_with_power_of_two_denominators(rng):
    for _ in range(50):
        family = random_family(rng, max_vertices=5, min_map_size=0, allow_empty=True)
        assert is_dyadic(analysis.weight(family))
        assert all(is_dyadic(analysis.map_weight(m)) for m in family.maps)
        audit = analysis.weight_one_audit(family)
        assert is_dyadic(audit.family_weight)
        for s in (family.universe[:1], family.universe[::2]):
            res = analysis.parity_identity(family, s)
            assert is_dyadic(res.lhs) and is_dyadic(res.rhs)


def test_weight_matches_slow_sum(rng):
    for _ in range(300):
        family = random_family(
            rng, max_vertices=7, max_maps=10, min_map_size=0, allow_empty=True
        )
        assert analysis.weight(family) == slow_weight(family)


def test_random_arithmetic_matches_fraction(rng):
    """Sums, differences and comparisons of weights agree with the slow Fraction sums."""
    for _ in range(300):
        a, b = (
            random_family(rng, max_vertices=6, max_maps=8, min_map_size=0, allow_empty=True)
            for _ in range(2)
        )
        wa, wb = analysis.weight(a), analysis.weight(b)
        fa, fb = slow_weight(a), slow_weight(b)
        assert is_dyadic(wa + wb) and is_dyadic(wa - wb)
        assert wa + wb == fa + fb
        assert wa - wb == fa - fb
        assert (wa < wb) == (fa < fb)
        assert (wa == wb) == (fa == fb)
        assert (wa >= wb) == (fa >= fb)
        if set(a.maps).isdisjoint(b.maps):
            assert analysis.weight(Family.of(list(a.maps) + list(b.maps))) == wa + wb
        s = a.universe[::2]
        even, odd = analysis.sub_family(a, s)
        assert analysis.parity_identity(a, s).lhs == slow_weight(even) - slow_weight(odd)


def test_sum_builtin_starts_at_zero():
    """The empty family weighs 0; sum() of map weights from 0 gives the family weight."""
    assert analysis.weight(Family.of([])) == slow_weight(Family.of([])) == 0
    assert sum((analysis.map_weight(m) for m in Family.of([]).maps), Fraction(0)) == 0
    assert analysis.weight(fam([])) == 1
    quarters = fam([(0, 0), (1, 0)], [(0, 0), (1, 1)], [(0, 1), (1, 0)], [(0, 1), (1, 1)])
    assert sum(map(analysis.map_weight, quarters.maps), Fraction(0)) == 1
    assert analysis.weight(quarters) == 1
    mixed = fam([], [(0, 1)], [(0, 0), (3, 1), (9, 0)])
    assert sum(map(analysis.map_weight, mixed.maps), Fraction(0)) == Fraction(13, 8)
    assert analysis.weight(mixed) == slow_weight(mixed) == Fraction(13, 8)


def test_str_forms():
    assert str(analysis.weight(Family.of([]))) == "0"
    assert str(analysis.weight(constructions.k43_cover().family)) == "1"
    assert str(analysis.weight(fam([(0, 0)], [(1, 0)], [(2, 0), (3, 0)]))) == "5/4"
    res = analysis.parity_identity(ODD_HEAVY, (0,))
    assert str(res.lhs) == str(res.rhs) == "-3/8"
    assert str(analysis.weight_one_audit(ODD_HEAVY).family_weight) == "3/8"


def test_comparisons():
    """Weights compare exactly with each other and with integers."""
    assert analysis.map_weight(make_partial_map([(0, 0), (1, 0)])) < analysis.map_weight(
        make_partial_map([(0, 0)])
    ) < 1
    assert analysis.weight(constructions.binary_family(3).family) == 1
    assert analysis.weight(constructions.unary_upper_even(4).family) > 1
    assert analysis.parity_identity(ODD_HEAVY, (0,)).lhs < 0


def test_normalization_strips_factors_of_two():
    """Weights come out in lowest terms, whatever the common denominator 2^e."""
    halves = fam([(0, 0), (1, 0)], [(0, 0), (1, 1)])
    w = analysis.weight(halves)
    assert (w.numerator, w.denominator) == (1, 2)
    w = analysis.weight(fam([(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 0), (2, 1)], [(3, 1)]))
    assert (w.numerator, w.denominator) == (3, 4)
    assert analysis.weight(Family.of([])).denominator == 1


def test_equality_with_integers_and_hash():
    one = analysis.weight(constructions.k43_cover().family)
    assert one == 1 and hash(one) == hash(1)
    quarters = [[(0, 0), (1, 0)], [(0, 1), (1, 1)], [(0, 0), (1, 1)], [(0, 1), (1, 0)]]
    two = analysis.weight(fam([], *quarters))
    assert two == 2 and hash(two) == hash(2)
    half = analysis.map_weight(make_partial_map([(0, 1)]))
    assert half != 1
    assert half != "1/2"
