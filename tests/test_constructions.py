"""Gadget generators against independently transcribed tables and slow oracles.

The expected tables here are written as explicit entry tuples, not row
strings, so the two encodings of the same data are produced by different
code paths and a transcription slip in either shows up as a mismatch.
"""
import tracemalloc

import pytest

from dpcover import analysis, cli, constructions
from dpcover.core import Family, Hypergraph, classify, domain_hypergraph, make_partial_map, relabel_family
from dpcover.errors import (
    NotUnaryError,
    OddRError,
    OverlappingTriplesError,
    PartnerCollisionError,
    UniverseOverlapError,
)

from oracles import all_assignments, contains, slow_colorable, slow_colorings

X0, X1, X2, Y = 0, 1, 2, 3


def fam(*entry_lists):
    return Family.of([make_partial_map(entries) for entries in entry_lists])


EXPECTED_K43 = fam(
    [(X0, 0), (X1, 0), (X2, 0)],
    [(X0, 1), (X1, 1), (X2, 1)],
    [(X0, 0), (X1, 1), (Y, 0)],
    [(X0, 1), (X1, 0), (Y, 1)],
    [(X0, 1), (X2, 0), (Y, 0)],
    [(X0, 0), (X2, 1), (Y, 1)],
    [(X1, 0), (X2, 1), (Y, 0)],
    [(X1, 1), (X2, 0), (Y, 1)],
)

# Columns x0, x1, x2, y0, y1 mapped to 0..4.
EXPECTED_NEQ = fam(
    [(0, 0), (1, 1), (3, 0), (4, 0)],
    [(0, 1), (1, 0), (3, 1), (4, 1)],
    [(0, 1), (2, 0), (3, 0), (4, 0)],
    [(0, 0), (2, 1), (3, 1), (4, 1)],
    [(1, 0), (2, 1), (3, 0), (4, 0)],
    [(1, 1), (2, 0), (3, 1), (4, 1)],
    [(0, 0), (1, 0), (2, 0), (3, 0)],
    [(0, 1), (1, 1), (2, 1), (3, 1)],
    [(0, 0), (1, 0), (2, 0), (4, 1)],
    [(0, 1), (1, 1), (2, 1), (4, 0)],
)

EXPECTED_EQ = fam(
    [(0, 0), (1, 1), (3, 0), (4, 1)],
    [(0, 1), (1, 0), (3, 1), (4, 0)],
    [(0, 1), (2, 0), (3, 0), (4, 1)],
    [(0, 0), (2, 1), (3, 1), (4, 0)],
    [(1, 0), (2, 1), (3, 0), (4, 1)],
    [(1, 1), (2, 0), (3, 1), (4, 0)],
    [(0, 0), (1, 0), (2, 0), (3, 0)],
    [(0, 1), (1, 1), (2, 1), (3, 1)],
    [(0, 0), (1, 0), (2, 0), (4, 0)],
    [(0, 1), (1, 1), (2, 1), (4, 1)],
)

# Columns x0, x1, x2, y0, y1, y2 mapped to 0..5.
EXPECTED_COPY = fam(
    [(0, 0), (1, 0), (2, 0), (3, 0), (4, 1)],
    [(0, 1), (1, 1), (2, 1), (3, 1), (4, 0)],
    [(0, 0), (1, 0), (2, 0), (3, 1), (5, 0)],
    [(0, 1), (1, 1), (2, 1), (3, 0), (5, 1)],
    [(0, 0), (1, 0), (2, 0), (4, 0), (5, 1)],
    [(0, 1), (1, 1), (2, 1), (4, 1), (5, 0)],
)

# Columns y0, y1, y2, z0, z1, z2 mapped to 0..5.
EXPECTED_TWO_EDGE = fam(
    [(0, 0), (1, 0), (3, 0), (4, 0), (5, 0)],
    [(0, 1), (1, 1), (3, 1), (4, 1), (5, 1)],
    [(1, 1), (2, 1), (3, 0), (4, 0), (5, 0)],
    [(1, 0), (2, 0), (3, 1), (4, 1), (5, 1)],
)


def all_claims_pass(gadget):
    results = analysis.check_claims(gadget.family, gadget.claimed_properties)
    return [(r.kind, r.message) for r in results if not r.ok]


class TestK43:
    def test_table_matches_transcription(self):
        g = constructions.k43_cover()
        assert g.family == EXPECTED_K43
        assert g.labels == {"x0": 0, "x1": 1, "x2": 2, "y": 3}

    def test_profile_and_noncolorability(self):
        g = constructions.k43_cover()
        profile = classify(g.family)
        assert profile.uniformity == 3
        assert profile.is_binary and not profile.is_unary
        k43 = Hypergraph.of([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert profile.cover_of == k43
        assert not slow_colorable(g.family)
        assert analysis.weight(g.family) == 1

    def test_claims_verify(self):
        assert all_claims_pass(constructions.k43_cover()) == []


class TestK54Covers:
    def test_tables_match_transcription(self):
        assert constructions.k54_neq_cover().family == EXPECTED_NEQ
        assert constructions.k54_eq_cover().family == EXPECTED_EQ

    def test_covers_of_complete_4_uniform(self):
        complete = Hypergraph.of(
            [e for e in [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)]]
        )
        for g in (constructions.k54_neq_cover(), constructions.k54_eq_cover()):
            profile = classify(g.family, complete)
            assert profile.cover_of == complete
            assert profile.uniformity == 4

    def test_forced_relations_by_enumeration(self):
        neq = constructions.k54_neq_cover().family
        colorings = slow_colorings(neq)
        assert colorings and all(f[3] != f[4] for f in colorings)
        eq = constructions.k54_eq_cover().family
        colorings = slow_colorings(eq)
        assert colorings and all(f[3] == f[4] for f in colorings)

    def test_claims_verify(self):
        assert all_claims_pass(constructions.k54_neq_cover()) == []
        assert all_claims_pass(constructions.k54_eq_cover()) == []


class TestFourUniform10:
    def test_assembly(self):
        g = constructions.four_uniform_10()
        h = domain_hypergraph(g.family)
        assert len(h) == 10
        assert len(g.family) == 20
        assert len(g.family.universe) == 8
        block0 = {e for e in h.edges if set(e) & {0, 1, 2}}
        block1 = {e for e in h.edges if set(e) & {3, 4, 5}}
        assert not block0 & block1
        assert len(block0) == len(block1) == 5

    def test_noncolorable(self):
        g = constructions.four_uniform_10()
        assert not slow_colorable(g.family)
        report = analysis.find_coloring(g.family, count=True)
        assert not report.colorable
        assert report.enumerated == 256
        assert report.coloring_count == 0


class TestNineEdge:
    def test_edge_formula_transcription(self):
        g = constructions.nine_edge_gadget()
        xs, ys, v = (0, 1, 2), (3, 4, 5), 6
        expected = []
        for i in range(3):
            for j in range(3):
                phi = make_partial_map(
                    [
                        (xs[i], 0),
                        (xs[(i + 1) % 3], 1),
                        (ys[j], 0),
                        (ys[(j + 1) % 3], 1),
                        (v, 0),
                    ]
                )
                expected.append(phi)
                expected.append(phi.complement())
        assert g.family == Family.of(expected)
        assert len(domain_hypergraph(g.family)) == 9

    def test_every_coloring_is_constant_on_a_triple(self):
        g = constructions.nine_edge_gadget()
        for f in slow_colorings(g.family):
            xs_const = f[0] == f[1] == f[2]
            ys_const = f[3] == f[4] == f[5]
            assert xs_const or ys_const

    def test_claims_verify(self):
        assert all_claims_pass(constructions.nine_edge_gadget()) == []


class TestCopyGadget:
    def test_table_matches_transcription(self):
        g = constructions.copy_gadget((0, 1, 2), (3, 4, 5))
        assert g.family == EXPECTED_COPY

    def test_relabeling_by_arguments(self):
        g = constructions.copy_gadget((10, 11, 12), (20, 21, 22))
        mapping = {0: 10, 1: 11, 2: 12, 3: 20, 4: 21, 5: 22}
        assert g.family == relabel_family(EXPECTED_COPY, mapping)

    def test_constant_src_forces_constant_dst(self):
        g = constructions.copy_gadget((0, 1, 2), (3, 4, 5))
        for f in slow_colorings(g.family):
            if f[0] == f[1] == f[2]:
                assert f[3] == f[4] == f[5]

    def test_overlapping_triples_rejected(self):
        with pytest.raises(OverlappingTriplesError):
            constructions.copy_gadget((0, 1, 2), (2, 3, 4))
        with pytest.raises(OverlappingTriplesError):
            constructions.copy_gadget((0, 1, 1), (3, 4, 5))
        with pytest.raises(ValueError):
            constructions.copy_gadget((0, 1), (3, 4, 5))


class TestTwoEdge:
    def test_table_matches_transcription(self):
        assert constructions.two_edge_gadget().family == EXPECTED_TWO_EDGE

    def test_four_doubly_constant_patterns_each_contain_a_map(self):
        family = constructions.two_edge_gadget().family
        for y_val in (0, 1):
            for z_val in (0, 1):
                f = {0: y_val, 1: y_val, 2: y_val, 3: z_val, 4: z_val, 5: z_val}
                assert any(contains(f, phi) for phi in family.maps)

    def test_claims_verify(self):
        assert all_claims_pass(constructions.two_edge_gadget()) == []


class TestFiveUniform17:
    def test_assembly_counts(self):
        g = constructions.five_uniform_17()
        h = domain_hypergraph(g.family)
        assert len(h) == 17
        assert len(g.family) == 34
        assert len(g.family.universe) == 10
        xs, ys, zs = {0, 1, 2}, {3, 4, 5}, {6, 7, 8}
        nine = [e for e in h.edges if 9 in e]
        copy_xy = [e for e in h.edges if xs <= set(e) and 9 not in e]
        copy_yz = [e for e in h.edges if ys <= set(e) and len(set(e) & zs) == 2]
        two = [e for e in h.edges if zs <= set(e)]
        assert len(nine) == 9 and len(copy_xy) == 3
        assert len(copy_yz) == 3 and len(two) == 2
        blocks = [set(nine), set(copy_xy), set(copy_yz), set(two)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not blocks[i] & blocks[j]

    def test_noncolorable_both_paths(self):
        g = constructions.five_uniform_17()
        assert not slow_colorable(g.family)
        report = analysis.find_coloring(g.family, count=True)
        assert report.enumerated == 1024
        assert report.coloring_count == 0


class TestJoinWithPivot:
    def test_tiny_example(self):
        f0 = fam([(0, 0)], [(0, 1)])
        f1 = fam([(1, 0)], [(1, 1)])
        joined = constructions.join_with_pivot(f0, f1, 2)
        assert len(joined) == 4
        assert classify(joined).uniformity == 2
        assert not slow_colorable(joined)

    def test_universe_overlap_rejected(self):
        f0 = fam([(0, 0)])
        f1 = fam([(0, 1)])
        with pytest.raises(UniverseOverlapError):
            constructions.join_with_pivot(f0, f1, 5)
        with pytest.raises(UniverseOverlapError):
            constructions.join_with_pivot(fam([(0, 0)]), fam([(1, 0)]), 1)


class TestBinaryFamily:
    def test_base_case(self):
        g = constructions.binary_family(1)
        assert g.family == fam([(0, 0)], [(0, 1)])

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_structure_and_noncolorability(self, r):
        g = constructions.binary_family(r)
        profile = classify(g.family)
        assert profile.uniformity == r
        assert profile.is_binary
        assert len(g.family) == 1 << r
        assert len(g.family.universe) == (1 << r) - 1
        assert analysis.weight(g.family) == 1
        assert not slow_colorable(g.family)

    @pytest.mark.parametrize("r", range(2, 9))
    def test_closed_form_matches_the_recursion(self, r):
        side = constructions.binary_family(r - 1).family
        shifted = relabel_family(side, {v: v + (1 << (r - 1)) - 1 for v in side.universe})
        joined = constructions.join_with_pivot(side, shifted, (1 << r) - 2)
        assert constructions.binary_family(r).family == joined

    @pytest.mark.parametrize("r", range(1, 11))
    def test_unchecked_maps_equal_the_checked_constructors(self, r):
        # binary_family skips the checks in make_partial_map and Family.of;
        # run both on its entries, reversed map by map and in reverse order.
        entries = constructions._binary_entries(r)
        checked = Family.of(make_partial_map(e[::-1]) for e in reversed(entries))
        assert constructions.binary_family(r).family.maps == checked.maps

    def test_binary_but_not_a_cover(self):
        # Same-domain siblings differ only at one vertex, so they share
        # entries and fail the disjointness requirement of a valid cover.
        profile = classify(constructions.binary_family(3).family)
        assert profile.is_binary
        assert profile.cover_of is None
        assert profile.cover_violation[0] == "same-domain-maps-overlap"

    @pytest.mark.parametrize("r", range(1, 13))
    def test_profile_matches_materialized(self, r):
        profile = constructions.binary_family_profile(r)
        family = constructions.binary_family(r).family
        assert profile["map_count"] == len(family)
        assert profile["universe_size"] == len(family.universe)
        assert profile["uniformity"] == classify(family).uniformity

    @pytest.mark.parametrize("r", range(13, 21))
    def test_profile_recurrence_at_scale(self, r):
        profile = constructions.binary_family_profile(r)
        assert profile["map_count"] == 1 << r
        assert profile["universe_size"] == (1 << r) - 1
        assert profile["uniformity"] == r

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            constructions.binary_family(0)


class TestParityGadget:
    def test_r2_first_row(self):
        g = constructions.parity_gadget(2)
        # Transversal {x0, x1}: each value is the next pair's choice, and both
        # choices pick the x side, so both values are 0.
        assert make_partial_map([(0, 0), (1, 0)]) in g.family

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_domains_are_the_transversals(self, r):
        g = constructions.parity_gadget(r)
        h = domain_hypergraph(g.family)
        assert len(h) == 1 << r
        assert len(g.family) == 1 << r
        assert classify(g.family).is_unary
        for edge in h.edges:
            for i in range(r):
                assert len(set(edge) & {i, r + i}) == 1

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_coloring_bullets(self, r):
        g = constructions.parity_gadget(r)
        colorings = slow_colorings(g.family)
        assert len(colorings) == 1 << (r - 1)
        for f in colorings:
            for i in range(r):
                assert f[i] != f[r + i]
            assert sum(f[i] for i in range(r)) % 2 == 1

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_edge_construction_parity_equivalence(self, r):
        """Building an edge from z0 = x0 by following f lands on x_i exactly
        when the number of ones among f(x_0) .. f(x_{i-1}) is even."""
        g = constructions.parity_gadget(r)
        for f in all_assignments(range(2 * r)):
            if any(f[i] == f[r + i] for i in range(r)):
                continue
            z = [0]  # vertex ids; x_i is i, y_i is r + i
            for i in range(r - 1):
                nxt = i + 1
                z.append(nxt if f[z[i]] == 0 else r + nxt)
            ones = 0
            for i in range(r):
                assert (z[i] == i) == (ones % 2 == 0)
                ones += f[i]

    def test_cyclic_rotation_invariance(self):
        for r in (2, 3, 4):
            g = constructions.parity_gadget(r)
            rotation = {i: (i + 1) % r for i in range(r)}
            mapping = {i: rotation[i] for i in range(r)}
            mapping.update({r + i: r + rotation[i] for i in range(r)})
            assert relabel_family(g.family, mapping) == g.family

    def test_claims_verify(self):
        for r in (1, 2, 3, 4):
            assert all_claims_pass(constructions.parity_gadget(r)) == []


class TestUniformize:
    def test_worked_example(self):
        # x0=0 with partner y0=1, w1=10 with partner z1=11.
        family = fam([(0, 0), (10, 1)])
        partner = {0: 1, 1: 0, 10: 11, 11: 10}
        result = constructions.uniformize(family, partner)
        assert result == fam([(0, 0), (1, 1), (10, 1), (11, 0)])

    def test_sizes_preserved(self):
        family = constructions.parity_gadget(2).family
        partner = {0: 10, 10: 0, 1: 11, 11: 1, 2: 12, 12: 2, 3: 13, 13: 3}
        assert len(constructions.uniformize(family, partner)) == len(family)

    def test_partner_collision(self):
        family = fam([(0, 0), (1, 1)])
        with pytest.raises(PartnerCollisionError):
            constructions.uniformize(family, {0: 1, 1: 0})

    def test_bad_involutions_rejected(self):
        family = fam([(0, 0)])
        with pytest.raises(ValueError):
            constructions.uniformize(family, {0: 0})
        with pytest.raises(ValueError):
            constructions.uniformize(family, {0: 1, 1: 2, 2: 1})
        with pytest.raises(ValueError):
            constructions.uniformize(family, {5: 6, 6: 5})


class TestUnaryUpperEven:
    def test_r2_is_the_six_map_k4_family(self):
        g = constructions.unary_upper_even(2)
        expected = fam(
            [(0, 0), (2, 0)],
            [(0, 1), (3, 0)],
            [(1, 0), (2, 1)],
            [(1, 1), (3, 1)],
            [(0, 0), (1, 1)],
            [(2, 0), (3, 1)],
        )
        assert g.family == expected
        assert len(domain_hypergraph(g.family)) == 6  # all edges of K4

    @pytest.mark.parametrize("r", [2, 4, 6])
    def test_size_and_shape(self, r):
        g = constructions.unary_upper_even(r)
        profile = classify(g.family)
        assert profile.uniformity == r
        assert profile.is_unary
        assert len(g.family) == (1 << r) + (1 << (r // 2))
        assert len(g.family.universe) == 2 * r

    @pytest.mark.parametrize("r", [2, 4])
    def test_noncolorable_slow_oracle(self, r):
        assert not slow_colorable(constructions.unary_upper_even(r).family)

    def test_weight_value(self):
        assert str(analysis.weight(constructions.unary_upper_even(4).family)) == "5/4"

    def test_odd_r_rejected(self):
        with pytest.raises(OddRError):
            constructions.unary_upper_even(3)
        with pytest.raises(OddRError):
            constructions.unary_upper_even(0)


class TestLiftToCover:
    def test_lift_of_the_2_uniform_witness(self):
        base = constructions.unary_upper_even(2).family
        g = constructions.lift_to_cover(base)
        profile = classify(g.family)
        assert profile.uniformity == 3
        assert len(g.family) == 12
        assert len(domain_hypergraph(g.family)) == 6
        assert profile.cover_of is not None
        assert not slow_colorable(g.family)
        assert g.notes["input-noncolorability"] == "certified-by-enumeration"

    def test_lift_of_r4_witness_consistency(self):
        base = constructions.unary_upper_even(4).family
        g = constructions.lift_to_cover(base)
        assert classify(g.family).uniformity == 5
        assert len(domain_hypergraph(g.family)) == 20
        report = analysis.find_coloring(g.family)
        assert not report.colorable
        assert report.enumerated == 512

    def test_input_over_the_table_limit_is_trusted(self):
        base = constructions.double_unary_gadget(7).family  # 25 vertices
        g = constructions.lift_to_cover(base)
        assert g.notes["input-noncolorability"] == "trusted"
        assert len(g.family) == 2 * len(base)

    def test_colorable_input_rejected(self):
        with pytest.raises(ValueError):
            constructions.lift_to_cover(fam([(0, 0), (1, 0)]))

    def test_colorable_input_is_refused_at_its_first_avoiding_chunk(self):
        # Nearly all 2^22 colorings avoid this one map; holding every one of
        # them peaked at 64 MB.
        family = fam([(v, 0) for v in range(22)])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^input family admits an avoiding coloring$"):
                constructions.lift_to_cover(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_non_unary_input_rejected(self):
        with pytest.raises(NotUnaryError):
            constructions.lift_to_cover(constructions.binary_family(2).family)

    def test_pivot_inside_universe_rejected(self):
        base = constructions.unary_upper_even(2).family
        with pytest.raises(UniverseOverlapError):
            constructions.lift_to_cover(base, pivot=0)


class TestDoubleUnary:
    def test_two_copies_of_the_2_uniform_witness(self):
        block = constructions.unary_upper_even(2).family
        other = relabel_family(block, {v: v + 4 for v in block.universe})
        joined = constructions.double_unary(block, other, 8)
        profile = classify(joined)
        assert profile.is_unary
        assert profile.uniformity == 3
        assert len(joined) == 12
        report = analysis.find_coloring(joined)
        assert not report.colorable
        assert report.enumerated == 512

    def test_non_unary_rejected(self):
        binary = constructions.binary_family(2).family
        with pytest.raises(NotUnaryError):
            constructions.double_unary(binary, relabel_family(binary, {v: v + 10 for v in binary.universe}), 99)

    def test_gadget_wrapper(self):
        g = constructions.double_unary_gadget(3)
        assert all_claims_pass(g) == []
        with pytest.raises(OddRError):
            constructions.double_unary_gadget(4)


def test_every_gadget_claim_passes():
    gadgets = [
        constructions.k43_cover(),
        constructions.k54_neq_cover(),
        constructions.k54_eq_cover(),
        constructions.four_uniform_10(),
        constructions.nine_edge_gadget(),
        constructions.copy_gadget((0, 1, 2), (3, 4, 5)),
        constructions.two_edge_gadget(),
        constructions.five_uniform_17(),
        constructions.binary_family(3),
        constructions.parity_gadget(3),
        constructions.unary_upper_even(4),
        constructions.double_unary_gadget(3),
        constructions.lift_to_cover(constructions.unary_upper_even(2).family),
    ]
    for g in gadgets:
        assert all_claims_pass(g) == [], g.source


NONCOLORABLE_BUILDS = [
    ("k43", None, "no-coloring"),
    ("four-uniform-10", None, "no-coloring"),
    ("five-uniform-17", None, "no-coloring"),
    ("binary", 4, "no-coloring"),  # 15 vertices
    ("binary", 5, "sampled-no-coloring"),  # 31
    ("double-unary", 5, "no-coloring"),  # 17
    ("double-unary", 7, "sampled-no-coloring"),  # 25
    ("unary-even", 12, "no-coloring"),  # 24, the table limit
    ("unary-even", 14, "sampled-no-coloring"),  # 28
    ("lifted-cover", 5, "no-coloring"),  # 9
    ("lifted-cover", 8, "sampled-no-coloring"),  # 26
]


@pytest.mark.parametrize("name, r, kind", NONCOLORABLE_BUILDS)
def test_noncolorability_claim_comes_from_one_place(name, r, kind):
    if r is None:
        gadget = cli._PLAIN_GADGETS[name]()
    else:
        gadget = cli._PARAMETRIC_GADGETS[name](r)
    (claim,) = [c for c in gadget.claimed_properties if c["kind"].endswith("no-coloring")]
    assert claim["kind"] == kind
    assert claim == constructions._noncolorability_claim(gadget.family)[0]


def test_weight_bound_versus_noncolorability_on_gadgets():
    """Non-colorable generator outputs have weight at least one."""
    for family in (
        constructions.k43_cover().family,
        constructions.four_uniform_10().family,
        constructions.five_uniform_17().family,
        constructions.binary_family(3).family,
        constructions.unary_upper_even(2).family,
        constructions.unary_upper_even(4).family,
    ):
        if len(family.universe) <= 10:
            assert not slow_colorable(family)
        assert analysis.weight(family) >= 1
        assert analysis.weight_lower_bound_certificate(family) == "inconclusive"
