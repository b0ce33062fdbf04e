"""Value types and structural predicates."""
import random
import re

import pytest

from dpcover.core import (
    Coloring,
    Family,
    Hypergraph,
    PartialMap,
    avoids,
    classify,
    colors,
    domain_hypergraph,
    make_partial_map,
    relabel_family,
)
from dpcover.errors import DuplicateMapError, DuplicateVertexError, OutOfUniverseError

from oracles import random_family, slow_make_partial_map


def pm(*pairs):
    return make_partial_map(pairs)


class TestPartialMap:
    def test_empty_map(self):
        phi = pm()
        assert len(phi) == 0
        assert phi.domain == ()

    def test_construction_sorts(self):
        phi = pm((3, 1), (0, 0))
        assert phi.entries == ((0, 0), (3, 1))
        assert phi.domain == (0, 3)
        assert phi.value(3) == 1
        assert phi.as_dict() == {0: 0, 3: 1}
        with pytest.raises(KeyError):
            phi.value(1)  # absent

    def test_duplicate_vertex_rejected_even_when_agreeing(self):
        with pytest.raises(DuplicateVertexError):
            pm((0, 0), (0, 0))
        with pytest.raises(DuplicateVertexError):
            pm((0, 0), (0, 1))

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            PartialMap(((1, 0), (0, 1)))  # unsorted
        with pytest.raises(ValueError):
            pm((-1, 0))
        with pytest.raises(ValueError):
            pm((0, 2))

    def test_lone_one_shot_pair_raises_what_the_reference_raises(self):
        # The duplicate scan unpacks the iterator, so the check finds it empty.
        expected = "not enough values to unpack (expected 2, got 0)"
        with pytest.raises(ValueError, match=re.escape(expected)):
            slow_make_partial_map([iter((0, 1))])
        with pytest.raises(ValueError, match=re.escape(expected)):
            make_partial_map([iter((0, 1))])
        assert make_partial_map([[1, 0]]) == slow_make_partial_map([[1, 0]])

    def test_complement_involution(self):
        phi = pm((0, 0), (1, 1))
        assert phi.complement() == pm((0, 1), (1, 0))
        assert phi.complement().complement() == phi
        assert pm().complement() == pm()
        assert pm((3, 1)).complement().domain == (3,)


class TestFamily:
    def test_duplicates_rejected_not_merged(self):
        with pytest.raises(DuplicateMapError):
            Family.of([pm((0, 0)), pm((0, 0))])

    def test_sorted_storage_and_universe(self):
        fam = Family.of([pm((4, 1)), pm((0, 0), (2, 1))])
        assert fam.maps[0] == pm((0, 0), (2, 1))
        assert list(fam) == list(fam.maps)
        assert fam.universe == (0, 2, 4)
        assert pm((4, 1)) in fam
        assert len(fam) == 2

    def test_universe_needs_no_contiguity(self):
        fam = Family.of([pm((10, 0), (100, 1))])
        assert fam.universe == (10, 100)

    def test_universe_is_computed_once_and_stays_out_of_equality(self):
        fam = Family.of([pm((4, 1)), pm((0, 0), (2, 1))])
        assert fam.universe is fam.universe
        assert fam == Family.of([pm((4, 1)), pm((0, 0), (2, 1))])
        assert repr(fam) == f"Family(maps={fam.maps!r})"

    def test_profile_is_computed_once_and_stays_out_of_equality(self):
        fam = Family.of([pm((4, 1)), pm((0, 0), (2, 1))])
        assert fam.profile is fam.profile
        assert classify(fam) is fam.profile
        assert fam == Family.of([pm((4, 1)), pm((0, 0), (2, 1))])
        assert repr(fam) == f"Family(maps={fam.maps!r})"

    def test_domains_group_maps_by_domain_once(self):
        fam = Family.of([
            pm((2, 0)), pm((0, 1), (1, 0)), pm((0, 0), (1, 1)), pm((0, 0)),
            pm(), pm((1, 0), (2, 1)), pm((0, 1), (2, 0)),
        ])
        domains = fam.domains
        assert [d for d, _ in domains] == [(), (0,), (2,), (0, 1), (0, 2), (1, 2)]
        assert domains[3] == ((0, 1), (pm((0, 0), (1, 1)), pm((0, 1), (1, 0))))
        for d, group in domains:
            assert group == tuple(m for m in fam.maps if m.domain == d)
        assert type(domains) is tuple and all(type(g) is tuple for _, g in domains)
        with pytest.raises(TypeError):
            domains[0] = ((), ())  # type: ignore[index]
        with pytest.raises(AttributeError):
            fam.domains = ()  # type: ignore[misc]
        assert fam.domains is domains
        assert Family.of([]).domains == ()

    def test_domain_hypergraph_collapses_shared_domains(self):
        fam = Family.of([pm((0, 0), (1, 0)), pm((0, 1), (1, 1))])
        assert domain_hypergraph(fam).edges == ((0, 1),)

    def test_empty_family(self):
        fam = Family.of([])
        assert fam.universe == ()
        assert domain_hypergraph(fam).edges == ()


class TestHypergraph:
    def test_dedup_and_order(self):
        h = Hypergraph.of([(2, 1), (1, 2), (0,)])
        assert h.edges == ((0,), (1, 2))
        assert (1, 2) in h
        assert h.vertices == (0, 1, 2)
        assert h.uniformity is None
        assert Hypergraph.of([(0, 1), (1, 2)]).uniformity == 2


class TestColoring:
    def test_value_and_dict(self):
        f = Coloring((0, 3, 5), 0b101)
        assert f.value(0) == 1
        assert f.value(3) == 0
        assert f.value(5) == 1
        assert f.as_dict() == {0: 1, 3: 0, 5: 1}

    @pytest.mark.parametrize(
        "universe, bits, message",
        [
            ((3, 1), 0, "universe must be sorted and duplicate-free"),
            ((1, 1), 0, "universe must be sorted and duplicate-free"),
            ((0, 1), 4, "bits out of range for universe size"),
            ((0, 1), -1, "bits out of range for universe size"),
        ],
    )
    def test_bad_universe_or_bits_rejected(self, universe, bits, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Coloring(universe, bits)

    def test_from_assignment_round_trip(self):
        f = Coloring.from_assignment({7: 1, 2: 0})
        assert f.universe == (2, 7)
        assert f.value(7) == 1

    def test_out_of_universe(self):
        f = Coloring((0, 1), 0)
        with pytest.raises(OutOfUniverseError):
            f.value(9)
        sparse = Coloring((2, 5, 2**70), 0b111)
        for vertex in (0, 3, 6, 2**70 - 1, 2**70 + 1):  # below, between, above
            with pytest.raises(OutOfUniverseError):
                sparse.value(vertex)
        with pytest.raises(OutOfUniverseError):
            Coloring((), 0).value(0)

    def test_avoids(self):
        f = Coloring.from_assignment({0: 0, 1: 1})
        assert avoids(f, pm((0, 0), (1, 0)))
        assert not avoids(f, pm((0, 0), (1, 1)))
        assert not avoids(f, pm())  # empty map contained in everything

    def test_colors_requires_avoiding_all(self):
        fam = Family.of([pm((0, 0)), pm((1, 0))])
        assert colors(Coloring.from_assignment({0: 1, 1: 1}), fam)
        assert not colors(Coloring.from_assignment({0: 1, 1: 0}), fam)

    def test_family_with_empty_map_colors_nothing(self):
        fam = Family.of([pm()])
        assert not colors(Coloring((), 0), fam)


class TestClassify:
    def test_unary_family_is_a_valid_cover(self):
        fam = Family.of([pm((0, 0), (1, 0)), pm((1, 1), (2, 0))])
        profile = classify(fam)
        assert profile.uniformity == 2
        assert profile.is_unary and profile.is_binary
        assert profile.cover_of == domain_hypergraph(fam)
        assert profile.cover_violation is None

    def test_same_domain_overlap_is_not_a_cover(self):
        fam = Family.of([pm((0, 0), (1, 0)), pm((0, 0), (1, 1))])
        profile = classify(fam)
        assert not profile.is_unary and profile.is_binary
        assert profile.cover_of is None
        assert profile.cover_violation == ("same-domain-maps-overlap", (0, 1))

    def test_three_maps_on_an_edge(self):
        fam = Family.of([pm((0, 0), (1, 0)), pm((0, 1), (1, 1)), pm((0, 0), (1, 1))])
        profile = classify(fam)
        assert not profile.is_binary
        assert profile.cover_violation == ("more-than-two-maps-on-edge", (0, 1))

    def test_candidate_hypergraph_mismatch(self):
        fam = Family.of([pm((0, 0), (1, 0))])
        target = Hypergraph.of([(0, 2)])
        profile = classify(fam, target)
        assert profile.cover_violation == ("domain-not-in-hypergraph", (0, 1))

    def test_candidate_never_reads_the_cache(self):
        fam = Family.of([pm((0, 0), (1, 0)), pm((1, 1), (2, 0))])
        target = Hypergraph.of([(0, 1), (1, 2), (2, 3)])
        expected = classify(Family.of(fam.maps), target)
        assert expected.cover_of == target
        assert classify(fam, target) == expected
        assert "profile" not in vars(fam)
        planted = classify(Family.of([pm((5, 0))]))
        vars(fam)["profile"] = planted
        assert classify(fam) is planted
        assert classify(fam, target) == expected

    def test_mixed_sizes_have_no_uniformity(self):
        fam = Family.of([pm((0, 0)), pm((1, 0), (2, 0))])
        assert classify(fam).uniformity is None

    def test_classify_stable_under_relabeling(self, rng: random.Random):
        for _ in range(50):
            fam = random_family(rng)
            profile = classify(fam)
            shift = rng.randint(1, 40)
            perm = {v: v * 3 + shift for v in fam.universe}
            relabeled = relabel_family(fam, perm)
            other = classify(relabeled)
            assert (
                profile.uniformity,
                profile.is_unary,
                profile.is_binary,
                profile.cover_of is None,
                profile.universe_size,
                profile.map_count,
            ) == (
                other.uniformity,
                other.is_unary,
                other.is_binary,
                other.cover_of is None,
                other.universe_size,
                other.map_count,
            )


def test_membership_agrees_with_a_linear_scan(rng):
    """`in` on the sorted tuples matches a scan, for members and non-members,
    with edges given unsorted and duplicated."""
    for _ in range(200):
        fam = random_family(rng, max_vertices=5, min_map_size=0, allow_empty=True)
        others = random_family(rng, max_vertices=5).maps
        for probe in fam.maps + others:
            assert (probe in fam) == any(m == probe for m in fam.maps)
        assert others[0].entries not in fam  # not a PartialMap
        raw = [rng.sample(range(6), rng.randint(0, 4)) for _ in range(rng.randint(0, 6))]
        hg = Hypergraph.of(raw + raw[:2])
        for edge in raw + [rng.sample(range(7), rng.randint(0, 4)) for _ in range(4)]:
            probe_edge = edge[::-1] + edge[:1]
            assert (probe_edge in hg) == any(set(e) == set(edge) for e in hg.edges)


def test_relabel_requires_injectivity():
    fam = Family.of([pm((0, 0), (1, 0))])
    with pytest.raises(ValueError):
        relabel_family(fam, {0: 5, 1: 5})
