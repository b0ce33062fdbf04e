"""Canonical keys, the exhaustive minimality search, and bound bracketing."""
import itertools
import math

import pytest

from dpcover import analysis, constructions, search
from dpcover.core import Family, classify, make_partial_map, relabel_family
from dpcover.errors import SearchSpaceTooLargeError, UniverseTooLargeError

import oracles
from oracles import random_family, slow_colorable, slow_completion_dfs


def fam(*entry_lists):
    return Family.of([make_partial_map(entries) for entries in entry_lists])


def flip_family(family: Family) -> Family:
    return Family.of([m.complement() for m in family.maps])


def brute_isomorphic(a: Family, b: Family, n: int) -> bool:
    """Group-orbit check: some vertex permutation of 0..n-1, with or without
    the global flip, carries a onto b."""
    if len(a) != len(b) or len(a.universe) != len(b.universe):
        return False
    for perm in itertools.permutations(range(n)):
        mapping = {v: perm[v] for v in a.universe}
        image = relabel_family(a, mapping)
        if image == b or flip_family(image) == b:
            return True
    return False


class TestCanonicalKey:
    def test_invariant_under_relabeling_and_flip(self, rng):
        for _ in range(50):
            family = random_family(rng, max_vertices=6)
            key = search.canonical_key(family)
            universe = family.universe
            perm = list(universe)
            rng.shuffle(perm)
            relabeled = relabel_family(family, dict(zip(universe, perm)))
            assert search.canonical_key(relabeled) == key
            assert search.canonical_key(flip_family(relabeled)) == key
            sparse = relabel_family(family, {v: 3 * v + 7 for v in universe})
            assert search.canonical_key(sparse) == key

    def test_distinguishes_equal_from_distinct_values(self):
        same = fam([(0, 0), (1, 0)])
        mixed = fam([(0, 0), (1, 1)])
        assert search.canonical_key(same) != search.canonical_key(mixed)

    def test_per_vertex_flips_are_not_in_the_group(self):
        # Flipping one vertex of a two-map family changes its orbit.
        a = fam([(0, 0), (1, 0)], [(0, 0), (2, 0)])
        b = fam([(0, 1), (1, 0)], [(0, 1), (2, 0)])
        assert search.canonical_key(a) != search.canonical_key(b)
        assert search.canonical_key(flip_family(a)) == search.canonical_key(a)

    def test_matches_brute_force_orbit_test(self, rng):
        n = 4
        pairs = []
        for _ in range(30):
            a = random_family(rng, max_vertices=n, max_maps=3)
            perm = rng.sample(range(n), n)
            mapping = {v: perm[v] for v in a.universe}
            image = relabel_family(a, mapping)
            if rng.random() < 0.5:
                image = flip_family(image)
            pairs.append((a, image))
            pairs.append((a, random_family(rng, max_vertices=n, max_maps=3)))
        for a, b in pairs:
            same_key = search.canonical_key(a) == search.canonical_key(b)
            assert same_key == brute_isomorphic(a, b, n)

    def test_empty_family(self):
        assert search.canonical_key(Family.of([])) == search.canonical_key(Family.of([]))

    def test_universe_limit(self, monkeypatch):
        nested = fam(*[[(j, 0) for j in range(k + 1)] for k in range(13)])
        with pytest.raises(UniverseTooLargeError):
            search.canonical_key(nested)
        monkeypatch.setattr(search, "_KEY_UNIVERSE_LIMIT", 13)
        assert search.canonical_key(nested)

    def test_losing_orientation_is_not_held_to_the_cap(self, monkeypatch):
        # The flipped maps lose at the first step, where their big map alone
        # ties in 3! orders; the maps as given never keep more than 2 states.
        maps = [((1, 0),), ((1, 1), (2, 1), (3, 0), (4, 1))]
        monkeypatch.setattr(search, "_KEY_STATE_CAP", 5)
        monkeypatch.setattr(oracles, "_KEY_STATE_CAP", 5)
        with pytest.raises(SearchSpaceTooLargeError):
            oracles.slow_key_of_entries(maps)
        as_given = oracles._encode_sequence(oracles._min_code_sequence(maps))
        assert search._key_of_entries(maps) == as_given

    def test_cap_on_the_last_step_alone(self, monkeypatch):
        # The singleton is emitted first and keeps one state; the last map's
        # three fresh zeros then tie in 3! orders, which are only counted.
        maps = [((0, 0),), ((1, 0), (2, 0), (3, 0))]
        for cap, raises in [(5, True), (6, False)]:
            monkeypatch.setattr(search, "_KEY_STATE_CAP", cap)
            monkeypatch.setattr(oracles, "_KEY_STATE_CAP", cap)
            outcomes = []
            for key_of in (search._key_of_entries, oracles.slow_key_of_entries):
                try:
                    outcomes.append(key_of(maps))
                except SearchSpaceTooLargeError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert isinstance(outcomes[0], str) == raises
            if raises:
                assert outcomes[0] == f"canonical key tie set exceeded {cap} states"

    def test_tie_state_cap(self):
        # Ten interchangeable singletons tie on every step, so the kept
        # state set grows factorially until the cap trips.
        symmetric = fam(*([(v, 0)] for v in range(10)))
        with pytest.raises(SearchSpaceTooLargeError):
            search.canonical_key(symmetric)


class TestDegreeOneReduction:
    def test_single_domain_vertices(self):
        family = fam([(0, 0), (1, 0)], [(1, 1), (2, 0)])
        assert search.single_domain_vertices(family) == (0, 2)

    def test_delete_requires_degree_one(self):
        family = fam([(0, 0), (1, 0)], [(1, 1), (2, 0)])
        with pytest.raises(ValueError):
            search.delete_vertex_constraint(family, 1)
        with pytest.raises(ValueError):
            search.delete_vertex_constraint(family, 9)

    def test_delete_shrinks_the_unique_holder(self):
        family = fam([(0, 0), (1, 0)], [(1, 1), (2, 0)])
        reduced = search.delete_vertex_constraint(family, 0)
        assert reduced == fam([(1, 0)], [(1, 1), (2, 0)])

    def test_noncolorability_survives_deletion(self):
        base = constructions.binary_family(2).family
        extended = Family.of(base.maps + (make_partial_map([(0, 0), (3, 0)]),))
        assert not slow_colorable(extended)
        reduced = search.delete_vertex_constraint(extended, 3)
        assert not slow_colorable(reduced)
        dropped = Family.of([m for m in extended.maps if 3 not in m.domain])
        assert not slow_colorable(dropped)

    def test_sound_direction_on_random_families(self, rng):
        checked = 0
        for _ in range(200):
            family = random_family(rng, max_vertices=4, max_maps=6)
            if slow_colorable(family):
                continue
            for v in search.single_domain_vertices(family):
                reduced = search.delete_vertex_constraint(family, v)
                assert not slow_colorable(reduced)
                checked += 1
        assert checked > 0


def brute_min_noncolorable_size(r: int, n: int, max_size: int) -> int | None:
    """Smallest non-colorable unary r-uniform family over vertices 0..n-1,
    by direct enumeration of every domain-distinct map subset."""
    candidates = []
    for domain in itertools.combinations(range(n), r):
        for bits in itertools.product((0, 1), repeat=r):
            candidates.append(tuple(zip(domain, bits)))
    for size in range(1, max_size + 1):
        for chosen in itertools.combinations(candidates, size):
            domains = {tuple(v for v, _ in m) for m in chosen}
            if len(domains) < size:
                continue
            family = Family.of([make_partial_map(m) for m in chosen])
            if not slow_colorable(family):
                return size
    return None


class TestSearchMinUnary:
    def test_weight_certificate_short_circuits(self):
        report = search.search_min_unary(2, 3, 6)
        assert report.witness is None
        assert report.families_examined == 0
        assert report.canonical_classes == 0
        assert report.result == "all-colorable"

    def test_frozen_verdicts_at_r2(self):
        four = search.search_min_unary(2, 4, 6)
        assert four.witness is None
        assert (four.families_examined, four.canonical_classes) == (424, 47)
        five = search.search_min_unary(2, 5, 6)
        assert five.witness is None
        assert (five.families_examined, five.canonical_classes) == (22116, 74)
        six = search.search_min_unary(2, 6, 6)
        assert six.witness_size == 6
        assert (six.families_examined, six.canonical_classes) == (36418, 74)
        seven_vertices = search.search_min_unary(2, 6, 7)
        assert seven_vertices.witness_size == 6
        assert (
            seven_vertices.families_examined, seven_vertices.canonical_classes
        ) == (95226, 74)

    def test_witness_is_reverified_and_minimal(self):
        report = search.search_min_unary(2, 6, 6)
        witness = report.witness
        assert witness is not None
        profile = classify(witness)
        assert profile.is_unary
        assert profile.uniformity == 2
        assert not slow_colorable(witness)
        assert analysis.weight(witness) >= 1
        assert report.result is witness

    def test_matches_brute_force_on_four_vertices(self):
        assert brute_min_noncolorable_size(2, 4, 6) == 6
        assert search.search_min_unary(2, 5, 4).witness is None
        assert search.search_min_unary(2, 6, 4).witness_size == 6

    def test_unary_one_uniform_families_are_always_colorable(self):
        report = search.search_min_unary(1, 3, 3)
        assert report.witness is None
        assert report.families_examined > 0

    def test_workers_agree_exactly(self):
        one = search.search_min_unary(2, 6, 6, workers=1)
        two = search.search_min_unary(2, 6, 6, workers=2)
        assert one == two

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            search.search_min_unary(0, 4, 4)
        with pytest.raises(ValueError):
            search.search_min_unary(2, 0, 4)
        with pytest.raises(ValueError):
            search.search_min_unary(3, 4, 2)
        with pytest.raises(UniverseTooLargeError):
            search.search_min_unary(2, 6, 13)
        with pytest.raises(SearchSpaceTooLargeError):
            search.search_min_unary(2, 30, 12)


# (r, max_size, max_vertices); (2, 7, 7) and (3, 8, 5) trip the node cap.
_DFS_PARAMS = [(2, b, v) for b in range(4, 8) for v in range(4, 8)] + [
    (1, 4, 5), (3, 8, 5),
]
_TOO_LARGE = {(2, 7, 7), (3, 8, 5)}


class TestCompletionAgainstOracle:
    """The candidate-list DFS against its domain-testing predecessor."""

    @pytest.mark.parametrize("r,max_size,max_vertices", _DFS_PARAMS)
    def test_every_phase1_representative(
        self, monkeypatch, r, max_size, max_vertices
    ):
        fast = search._completion_dfs
        reps = []

        def both(pool, rep, budget):
            got = fast(pool, rep, budget)
            assert got == slow_completion_dfs(pool, rep, budget), rep
            reps.append(rep)
            return got

        monkeypatch.setattr(search, "_completion_dfs", both)
        if (r, max_size, max_vertices) in _TOO_LARGE:
            with pytest.raises(SearchSpaceTooLargeError):
                search.search_min_unary(r, max_size, max_vertices)
            return
        search.search_min_unary(r, max_size, max_vertices)
        assert reps

    @pytest.mark.parametrize(
        "r,n,budget", [(1, 5, 4), (1, 5, 5), (2, 5, 6), (3, 4, 9)]
    )
    def test_empty_representative(self, r, n, budget):
        pool = search._Pool(r, n)
        got = search._completion_dfs(pool, (), budget)
        assert got == slow_completion_dfs(pool, (), budget)

    def test_r3_representatives(self):
        pool = search._Pool(3, 5)
        for rep in [(0,), (0, 9), (0, 8, 16)]:
            for budget in (7, 8):
                got = search._completion_dfs(pool, rep, budget)
                assert got == slow_completion_dfs(pool, rep, budget)

    def test_budget_equal_to_the_representative(self):
        pool = search._Pool(2, 5)
        for rep in [(0,), (0, 4), (0, 4, 8)]:
            assert search._completion_dfs(pool, rep, len(rep)) == (None, None, 0)
            assert slow_completion_dfs(pool, rep, len(rep)) == (None, None, 0)


class TestPool:
    @pytest.mark.parametrize("r,n", [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (3, 6)])
    def test_kill_masks_match_brute_force(self, r, n):
        pool = search._Pool(r, n)
        assert len(pool.maps) == len(pool.kill) == math.comb(n, r) << r
        assignments = list(oracles.all_assignments(range(n)))
        for entries, kill in zip(pool.maps, pool.kill):
            phi = make_partial_map(entries)
            want = sum(
                1 << sum(bit << v for v, bit in f.items())
                for f in assignments
                if oracles.contains(f, phi)
            )
            assert kill == want, entries
        assert pool.full == (1 << (1 << n)) - 1


    @pytest.mark.parametrize("r,n", [(1, 4), (2, 5), (3, 5)])
    def test_no_three_domain_distinct_maps_leave_no_survivor(self, r, n):
        """The canonical levels run at most _CANONICAL_DEPTH = 3 maps deep,
        and no such family is non-colorable, so they never find a witness."""
        pool = search._Pool(r, n)
        assert search._CANONICAL_DEPTH == 3
        for k in (1, 2, 3):
            for chosen in itertools.combinations(range(len(pool.maps)), k):
                if len({pool.domain_id[i] for i in chosen}) < k:
                    continue
                surv = pool.full
                for i in chosen:
                    surv &= ~pool.kill[i]
                assert surv, [pool.maps[i] for i in chosen]


class TestRunningBestBudget:
    """Phase 2 against the full budget for every representative."""

    @pytest.mark.parametrize(
        "r,max_size,max_vertices",
        [params for params in _DFS_PARAMS if params not in _TOO_LARGE],
    )
    def test_same_result_with_fewer_nodes(
        self, monkeypatch, r, max_size, max_vertices
    ):
        pruned = search.search_min_unary(r, max_size, max_vertices)
        fast = search._completion_dfs
        monkeypatch.setattr(
            search,
            "_completion_dfs",
            lambda pool, rep, budget: fast(pool, rep, max_size),
        )
        full = search.search_min_unary(r, max_size, max_vertices)
        assert pruned.witness == full.witness
        assert pruned.witness_size == full.witness_size
        assert pruned.canonical_classes == full.canonical_classes
        assert pruned.families_examined <= full.families_examined


class TestPhase1AgainstOracle:
    """The shape skip against the loop that keys every child."""

    # Phase 1 alone stays small at (3, 8, 5); only the completion trips the cap.
    @pytest.mark.parametrize(
        "r,max_size,max_vertices",
        [params for params in _DFS_PARAMS if params not in _TOO_LARGE] + [(3, 8, 5)],
    )
    def test_same_levels_examined_and_classes(self, r, max_size, max_vertices):
        pool = search._Pool(r, max_vertices)
        depth = min(search._CANONICAL_DEPTH, max_size)
        got = search._phase1(pool, max_size, depth)
        assert got == oracles.slow_phase1(pool, max_size, depth)
        assert got[0]


class TestPhase1Keys:
    @pytest.mark.parametrize(
        "max_size,max_vertices,keys", [(4, 6, 82), (6, 6, 279), (6, 7, 279)]
    )
    def test_keys_match_canonical_key(self, monkeypatch, max_size, max_vertices, keys):
        fast = search._key_of_entries
        seen = []

        def record(maps):
            key = fast(maps)
            seen.append((list(maps), key))
            return key

        monkeypatch.setattr(search, "_key_of_entries", record)
        search.search_min_unary(2, max_size, max_vertices)
        monkeypatch.undo()
        assert len(seen) == keys
        for maps, key in seen:
            family = Family.of([make_partial_map(entries) for entries in maps])
            assert key == search.canonical_key(family).data


class TestVerifyBracket:
    def test_r2_is_pinned_exactly(self):
        report = search.verify_bracket(2)
        assert report.lower_bound == 5
        assert report.upper_bound == 6
        assert report.witness_size == 6
        assert report.witness_source == "gadget:unary-even(r=2)"
        assert report.certification == "enumerated"
        assert report.search_min_size == 6
        assert report.consistent

    def test_odd_r_uses_the_doubled_witness(self):
        report = search.verify_bracket(3)
        assert report.lower_bound == 9
        assert report.upper_bound == 12
        assert report.witness_size == 12
        assert report.witness_source == "gadget:double-unary(r=3)"
        assert report.certification == "enumerated"
        assert report.search_min_size is None
        assert report.consistent

    def test_even_r_beyond_search(self):
        report = search.verify_bracket(4)
        assert report.lower_bound == 17
        assert report.upper_bound == 20
        assert report.witness_size == 20
        assert report.certification == "enumerated"
        assert report.consistent

    @pytest.mark.parametrize("r", [7, 14])
    def test_witness_over_the_table_limit_is_sampled(self, r):
        report = search.verify_bracket(r)
        assert report.upper_bound == report.witness_size == (1 << r) + (1 << ((r + 1) // 2))
        assert report.certification == "sampled"
        assert report.consistent

    def test_certification_reads_the_table_limit(self, monkeypatch):
        monkeypatch.setenv("DPCOVER_PARITY_LIMIT", "10")  # double-unary(5) has 17 vertices
        with pytest.raises(UniverseTooLargeError):
            search.verify_bracket(5)
        monkeypatch.setenv("DPCOVER_ENUM_LIMIT", "10")
        monkeypatch.setenv("DPCOVER_PARITY_LIMIT", "17")
        assert search.verify_bracket(5).certification == "enumerated"

    def test_colorable_witness_is_refused(self, monkeypatch):
        real = constructions.unary_upper_even

        def colorable_stand_in(r):
            """The real gadget's claims on 20 maps of the colorable parity gadget."""
            gadget = real(r)
            gadget.family = Family(constructions.parity_gadget(5).family.maps[:20])
            return gadget

        monkeypatch.setattr(constructions, "unary_upper_even", colorable_stand_in)
        with pytest.raises(RuntimeError, match="unexpectedly colorable"):
            search.verify_bracket(4)

    def test_rejects_r_below_two(self):
        with pytest.raises(ValueError):
            search.verify_bracket(1)
