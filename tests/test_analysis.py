"""Certification engine against brute-force oracles."""
import itertools
import multiprocessing
import os
import random
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dpcover import analysis, cli, constructions, search
from dpcover.core import Coloring, Family, make_partial_map
from dpcover.errors import OutOfUniverseError, UniverseTooLargeError

from oracles import (
    all_assignments,
    random_family,
    slow_check_claim,
    slow_colorable,
    slow_colorings,
    slow_domination_orphans,
    slow_first_imbalance,
    slow_multiplicities,
    slow_parity_rhs,
    slow_sample,
    slow_weight,
)


def fam(*entry_lists):
    return Family.of([make_partial_map(entries) for entries in entry_lists])


class TestFindColoring:
    def test_matches_slow_oracle_on_random_families(self, rng):
        for _ in range(100):
            family = random_family(rng)
            report = analysis.find_coloring(family, count=True)
            colorings = slow_colorings(family)
            assert report.colorable == bool(colorings)
            assert report.coloring_count == len(colorings)
            if colorings:
                expected_bits = min(
                    sum(f[v] << i for i, v in enumerate(family.universe))
                    for f in colorings
                )
                assert report.witness.bits == expected_bits

    def test_witness_is_smallest_code(self):
        family = fam([(0, 0)], [(1, 0), (2, 0)])
        report = analysis.find_coloring(family)
        assert report.witness.bits == 3
        assert report.enumerated == 4
        counted = analysis.find_coloring(family, count=True)
        assert counted.coloring_count == 3
        assert counted.enumerated == 8

    def test_noncolorable_enumerates_everything(self):
        report = analysis.find_coloring(constructions.binary_family(2).family)
        assert not report.colorable
        assert report.witness is None
        assert report.enumerated == 8

    def test_empty_family_is_colorable(self):
        report = analysis.find_coloring(Family.of([]))
        assert report.colorable
        assert report.witness.bits == 0
        assert report.enumerated == 1

    def test_workers_give_identical_reports(self, monkeypatch):
        family = constructions.unary_upper_even(4).family
        monkeypatch.setattr(analysis, "DEFAULT_CHUNK", 32)
        one = analysis.find_coloring(family, count=True)
        two = analysis.find_coloring(family, count=True, workers=2)
        assert one == two
        colorable = constructions.parity_gadget(4).family
        monkeypatch.setattr(analysis, "DEFAULT_CHUNK", 16)
        one = analysis.find_coloring(colorable, count=True)
        two = analysis.find_coloring(colorable, count=True, workers=2)
        assert one == two

    def test_parallel_scan_stops_at_the_first_witness(self, monkeypatch):
        # Code 0 avoids every map: the witness lies in chunk 0 of 64.
        family = fam(*([(v, 1), (v + 1, 1)] for v in range(9)))
        monkeypatch.setattr(analysis, "DEFAULT_CHUNK", 16)
        one = analysis.find_coloring(family)
        two = analysis.find_coloring(family, workers=2)
        assert one == two
        assert two.witness.bits == 0 and two.enumerated == 1

    def test_enumeration_starts_no_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        family = constructions.parity_gadget(4).family  # 8 vertices: 16 chunks
        monkeypatch.setattr(analysis, "DEFAULT_CHUNK", 16)
        two = analysis.find_coloring(family, count=True, workers=2)
        assert two == analysis.find_coloring(family, count=True)
        report = search.search_min_unary(2, 6, 6, workers=2)
        assert report == search.search_min_unary(2, 6, 6)

    def test_universe_limit(self, monkeypatch):
        big = fam(*([(v, 0)] for v in range(8)))
        monkeypatch.setenv("DPCOVER_ENUM_LIMIT", "7")
        with pytest.raises(UniverseTooLargeError, match="universe has 8 vertices, limit is 7"):
            analysis.find_coloring(big)
        monkeypatch.setenv("DPCOVER_ENUM_LIMIT", "8")
        report = analysis.find_coloring(big)
        assert report.colorable
        assert report.witness.bits == 255  # all ones is the only avoider

    def test_the_scan_builds_the_family_ranks_and_weight_does_not(self):
        family = fam([(7, 0), (2**70, 1)], [(40, 1)])
        analysis.weight(family)
        assert "ranks" not in family.__dict__
        analysis.find_coloring(family)
        assert family.__dict__["ranks"] == {7: 0, 40: 1, 2**70: 2}

    def test_avoiding_codes_ascending_and_complete(self, rng):
        for _ in range(25):
            family = random_family(rng)
            codes = analysis.avoiding_codes(family)
            assert list(codes) == sorted(codes)
            assert len(codes) == len(slow_colorings(family))


class TestSampling:
    def test_deterministic_in_family_trials_seed(self):
        family = constructions.unary_upper_even(4).family
        a = analysis.sample_noncolorability(family, 500, seed=7)
        b = analysis.sample_noncolorability(family, 500, seed=7)
        assert a == b
        c = analysis.sample_noncolorability(family, 500, seed=8)
        assert (a.trials, a.seed) != (c.trials, c.seed)

    def test_empty_family_every_trial_is_a_counterexample(self):
        report = analysis.sample_noncolorability(Family.of([]), 50, seed=1)
        assert report.counterexamples == 50
        assert report.first_counterexample is not None

    def test_negative_trials_or_seed_rejected(self):
        family = constructions.binary_family(3).family
        with pytest.raises(ValueError, match="^trials must be nonnegative, got -1$"):
            analysis.sample_noncolorability(family, -1, seed=0)
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -2$"):
            analysis.sample_noncolorability(family, 10, seed=-2)
        assert analysis.sample_noncolorability(family, 0, seed=0).counterexamples == 0

    def test_trials_over_the_bound_rejected(self, monkeypatch):
        family = constructions.binary_family(3).family
        monkeypatch.setattr(analysis, "_MAX_TRIALS", 5)
        assert analysis.sample_noncolorability(family, 5, seed=0).trials == 5
        with pytest.raises(ValueError, match="^trials must be at most 5, got 6$"):
            analysis.sample_noncolorability(family, 6, seed=0)

    def test_colorable_family_finds_counterexamples(self):
        family = constructions.parity_gadget(3).family
        report = analysis.sample_noncolorability(family, 2000, seed=3)
        assert report.counterexamples > 0
        assert report.first_counterexample is not None

    def test_counterexamples_avoid_every_map(self, rng):
        for _ in range(20):
            family = random_family(rng)
            report = analysis.sample_noncolorability(family, 200, seed=11)
            if report.first_counterexample is not None:
                f = report.first_counterexample.as_dict()
                for m in family.maps:
                    assert any(f[v] != bit for v, bit in m.entries)

    def test_matches_slow_sampler_on_the_same_stream(self, rng):
        families = [random_family(rng, max_vertices=12, max_maps=10) for _ in range(40)]
        families += [
            Family.of([]),
            constructions.parity_gadget(3).family,
            fam([], [(0, 1), (2, 0)]),
            fam([(0, 0), (3, 1)], [(5, 1)], [(9, 0), (40, 1)]),
            fam([(0, 0), (2**70, 1)], [(5, 1), (2**64, 0)]),
        ]
        for family in families:
            for trials, seed in ((1, 4), (300, 5)):
                report = analysis.sample_noncolorability(family, trials, seed)
                count, first = slow_sample(family, trials, seed)
                assert report.counterexamples == count
                got = report.first_counterexample
                assert (got.as_dict() if got is not None else None) == first

    def test_three_byte_trials_match_slow_sampler(self, rng):
        for n in (17, 20, 23, 24):
            cover = [(v, rng.randint(0, 1)) for v in range(n)]  # pins the universe to n
            maps = set(random_family(rng, max_vertices=n, max_maps=12, min_map_size=2).maps)
            family = Family.of(maps | {make_partial_map(cover)})
            assert len(family.universe) == n
            for trials, seed in ((1, 4), (5, 2), (700, 5)):
                report = analysis.sample_noncolorability(family, trials, seed)
                count, first = slow_sample(family, trials, seed)
                assert report.counterexamples == count
                got = report.first_counterexample
                assert (got.as_dict() if got is not None else None) == first

    def test_stream_is_the_generators_bytes(self):
        ours = np.random.Generator(np.random.PCG64(77))
        theirs = np.random.Generator(np.random.PCG64(77))
        for length in (1, 13, 3, 1 << 21, 4, 7):
            assert analysis._stream_bytes(ours, length).tobytes() == theirs.bytes(length)
        assert ours.integers(0, 1 << 62) == theirs.integers(0, 1 << 62)

    def test_several_blocks_in_one_call_match_generator_bytes(self, monkeypatch):
        # 2125 bytes a trial, so a 2 MiB block holds 986 trials and 2500 trials
        # take three blocks; about 3/8 of the trials avoid every map.
        wide = fam([(0, 0), (1, 0)], [(2, 1)], [(v, 0) for v in range(3, 17000)])
        report = analysis.sample_noncolorability(wide, 2500, seed=9)
        assert 800 < report.counterexamples < 1100
        monkeypatch.setattr(
            analysis, "_stream_bytes", lambda rng, n: np.frombuffer(rng.bytes(n), dtype=np.uint8)
        )
        assert analysis.sample_noncolorability(wide, 2500, seed=9) == report

    def test_large_binary_family_samples_clean(self):
        family = constructions.binary_family(16).family
        report = analysis.sample_noncolorability(family, 1000, seed=0x5EED)
        assert report.counterexamples == 0


class TestWeight:
    def test_matches_slow_oracle(self, rng):
        for _ in range(200):
            family = random_family(rng, max_maps=8)
            assert analysis.weight(family) == slow_weight(family)

    def test_map_weight(self):
        assert analysis.map_weight(make_partial_map([(0, 0)])) == Fraction(1, 2)
        assert analysis.map_weight(make_partial_map([])) == 1
        assert analysis.map_weight(make_partial_map([(0, 0), (5, 1), (9, 0)])) == Fraction(1, 8)

    def test_certificate_thresholds(self):
        three_triples = fam([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)], [(0, 0), (1, 1), (2, 0)])
        assert analysis.weight(three_triples) == Fraction(3, 8)
        assert analysis.weight_lower_bound_certificate(three_triples) == "colorable-guaranteed"
        assert slow_colorable(three_triples)
        assert analysis.weight_lower_bound_certificate(constructions.binary_family(3).family) == "inconclusive"

    def test_certificate_is_sound_on_random_families(self, rng):
        for _ in range(100):
            family = random_family(rng)
            if analysis.weight_lower_bound_certificate(family) == "colorable-guaranteed":
                assert slow_colorable(family)

    def test_small_cover_certificate(self):
        # A valid 2-fold cover of e edges weighs e * 2^(1-r), so few edges
        # force weight below one.
        g = constructions.lift_to_cover(constructions.unary_upper_even(2).family)
        trimmed = Family.of(g.family.maps[:4])
        assert analysis.weight(trimmed) < 1
        assert analysis.weight_lower_bound_certificate(trimmed) == "colorable-guaranteed"


class TestSubFamily:
    def test_empty_subset_selects_everything_even(self):
        family = constructions.k43_cover().family
        even, odd = analysis.sub_family(family, ())
        assert even == family
        assert len(odd) == 0

    def test_subset_outside_every_domain(self):
        family = constructions.k43_cover().family
        even, odd = analysis.sub_family(family, (0, 1, 2, 3))
        assert len(even) == len(odd) == 0

    def test_split_by_parity_on_shared_triple(self):
        family = constructions.k54_neq_cover().family
        even, odd = analysis.sub_family(family, (0, 1, 2))
        qualifying = [m for m in family.maps if {0, 1, 2} <= set(m.domain)]
        assert len(qualifying) == 4
        assert set(even.maps) | set(odd.maps) == set(qualifying)
        for m in even.maps:
            assert (m.as_dict()[0] + m.as_dict()[1] + m.as_dict()[2]) % 2 == 0
        for m in odd.maps:
            assert (m.as_dict()[0] + m.as_dict()[1] + m.as_dict()[2]) % 2 == 1

    def test_matches_direct_enumeration(self, rng):
        for _ in range(50):
            family = random_family(rng)
            universe = family.universe
            if not universe:
                continue
            size = rng.randint(1, min(3, len(universe)))
            s = tuple(rng.sample(universe, size))
            even, odd = analysis.sub_family(family, s)
            for m in family.maps:
                d = m.as_dict()
                if set(s) <= d.keys():
                    target = odd if sum(d[v] for v in s) % 2 else even
                    assert m in target
                else:
                    assert m not in even and m not in odd


class TestParityIdentity:
    def test_holds_on_random_families_and_subsets(self, rng):
        for _ in range(60):
            family = random_family(rng, max_vertices=6)
            universe = family.universe
            table = analysis.MultiplicityTable(family)
            for size in range(0, len(universe) + 1):
                for s in itertools.combinations(universe, size):
                    res = analysis.parity_identity(family, s, table=table)
                    assert res.holds

    def test_rhs_matches_fraction_oracle(self, rng):
        for _ in range(25):
            family = random_family(rng, max_vertices=5, max_maps=5)
            universe = family.universe
            if not universe:
                continue
            for _ in range(4):
                size = rng.randint(1, len(universe))
                s = tuple(sorted(rng.sample(universe, size)))
                res = analysis.parity_identity(family, s)
                oracle = slow_parity_rhs(family, s, res.ambient)
                assert res.rhs == oracle
                assert res.lhs == oracle

    def test_lhs_uses_weights_of_the_split(self, rng):
        for _ in range(25):
            family = random_family(rng, max_vertices=6)
            universe = family.universe
            if not universe:
                continue
            s = (universe[0],)
            even, odd = analysis.sub_family(family, s)
            res = analysis.parity_identity(family, s)
            assert res.lhs == analysis.weight(even) - analysis.weight(odd)

    def test_weight_one_families_balance_on_every_nonempty_subset(self):
        family = constructions.binary_family(3).family
        for size in range(1, 4):
            for s in itertools.combinations(family.universe, size):
                res = analysis.parity_identity(family, s)
                assert res.holds
                assert res.lhs == 0

    def test_ambient_extension_scales_rhs_consistently(self):
        family = fam([(0, 0)])
        inside = analysis.parity_identity(family, (0,))
        table = analysis.MultiplicityTable(family, (0, 1, 2))
        extended = analysis.parity_identity(family, (0,), table=table)
        assert inside.holds and extended.holds
        assert inside.lhs == extended.lhs

    def test_shared_table_reuse(self):
        family = constructions.k43_cover().family
        table = analysis.MultiplicityTable(family)
        for s in ((0,), (0, 1), (3,)):
            res = analysis.parity_identity(family, s, table=table)
            assert res.holds
        with pytest.raises(OutOfUniverseError):
            analysis.parity_identity(family, (9,), table=table)

    def test_single_map_signed_extension_count(self, rng):
        """For one map, the signed count of its extensions collapses to a
        power of two with the sign of the map's values on the subset, and to
        zero when the subset leaves the domain."""
        for _ in range(50):
            n = rng.randint(1, 6)
            universe = tuple(range(n))
            k = rng.randint(0, n)
            dom = sorted(rng.sample(universe, k))
            phi = {v: rng.randint(0, 1) for v in dom}
            size = rng.randint(0, n)
            s = set(rng.sample(universe, size))
            signed = 0
            for f in all_assignments(universe):
                if all(f[v] == b for v, b in phi.items()):
                    signed += -1 if sum(f[v] for v in s) % 2 else 1
            if s <= set(dom):
                want = (1 << (n - k)) * (-1 if sum(phi[v] for v in s) % 2 else 1)
            else:
                want = 0
            assert signed == want


class TestMultiplicityTable:
    def test_counts_match_cover_multiplicity(self, rng):
        for _ in range(25):
            family = random_family(rng, max_vertices=5)
            table = analysis.MultiplicityTable(family)
            for bits in range(1 << len(table.ambient)):
                coloring = Coloring(table.ambient, bits)
                assert table.multiplicity(bits) == analysis.cover_multiplicity(family, coloring)

    def test_histogram_totals(self):
        family = constructions.binary_family(3).family
        table = analysis.MultiplicityTable(family)
        hist = table.histogram()
        assert hist == {1: 128}
        assert table.min() == table.max() == 1

    def test_ambient_must_contain_universe(self):
        family = fam([(0, 0), (5, 1)])
        with pytest.raises(OutOfUniverseError):
            analysis.MultiplicityTable(family, ambient=(0, 1))
        table = analysis.MultiplicityTable(family, ambient=(0, 1, 5))
        assert table.ambient == (0, 1, 5)

    def test_limit_guard(self, monkeypatch):
        family = fam(*([(v, 0)] for v in range(6)))
        monkeypatch.setenv("DPCOVER_PARITY_LIMIT", "5")
        with pytest.raises(UniverseTooLargeError, match="ambient has 6 vertices, limit is 5"):
            analysis.MultiplicityTable(family)
        with pytest.raises(UniverseTooLargeError, match="ambient has 6 vertices, limit is 5"):
            analysis.parity_identity(family, [0])
        monkeypatch.setenv("DPCOVER_PARITY_LIMIT", "6")
        assert analysis.MultiplicityTable(family).n == 6


class TestKernelAgainstOracles:
    """The table, the avoiding codes and the full count read one chunked kernel.

    Chunk sizes (DEFAULT_CHUNK, patched) below 2^n split the code space;
    sizes that are not powers of two round down to one.  The table's uint8
    word holds 8 cells and its uint16 word 4, so 4, 8 and 16 (2, 4 and 8) are
    chunks below, at and above one word; the scan's and the avoiding codes'
    word holds 64 one-bit cells, so 32, 64 and 128 are.
    """

    CHUNKS = (1, 3, 4, 8, 16, 32, 64, 128, analysis.DEFAULT_CHUNK)

    @staticmethod
    def check(family, ambient=None, chunk_size=analysis.DEFAULT_CHUNK):
        with mock.patch.object(analysis, "DEFAULT_CHUNK", chunk_size):
            want = slow_multiplicities(family, ambient)
            table = analysis.MultiplicityTable(family, ambient)
            assert table.counts.tolist() == want
            if ambient is not None:
                return
            free = [code for code, m in enumerate(want) if m == 0]
            assert analysis.avoiding_codes(family).tolist() == free
            report = analysis.find_coloring(family, count=True)
            assert report.coloring_count == len(free) and type(report.coloring_count) is int
            assert report.witness == (Coloring(family.universe, free[0]) if free else None)
            assert report.enumerated == len(want)
            first = analysis.find_coloring(family)
            assert first.enumerated == (free[0] + 1 if free else len(want))

    def test_random_families_across_chunk_sizes(self, rng):
        for _ in range(40):
            family = random_family(rng, max_vertices=7, max_maps=10)
            for chunk_size in self.CHUNKS:
                self.check(family, chunk_size=chunk_size)

    def test_empty_family(self):
        for chunk_size in self.CHUNKS:
            self.check(Family.of([]), chunk_size=chunk_size)
            self.check(Family.of([]), ambient=(0, 1, 2), chunk_size=chunk_size)

    def test_empty_map_lies_in_every_code(self):
        family = fam([], [(0, 1)], [(1, 0), (2, 1)])
        for chunk_size in self.CHUNKS:
            self.check(family, chunk_size=chunk_size)
        assert analysis.MultiplicityTable(family).min() == 1

    def test_ambient_larger_than_the_universe(self, rng):
        for _ in range(10):
            family = random_family(rng, max_vertices=5)
            for chunk_size in self.CHUNKS:
                self.check(family, ambient=range(8), chunk_size=chunk_size)

    def test_code_in_more_maps_than_uint8_holds(self):
        zeros = [
            [(v, 0) for v in subset]
            for k in range(1, 10)
            for subset in itertools.combinations(range(9), k)
        ]
        family = fam(*zeros)
        assert len(family) == 511
        for chunk_size in (2, 4, 8, analysis.DEFAULT_CHUNK):
            self.check(family, chunk_size=chunk_size)
        table = analysis.MultiplicityTable(family)
        assert table.multiplicity(0) == table.max() == 511
        s = (0, 3)
        rhs = analysis.parity_identity(family, s, table=table).rhs
        assert rhs == slow_parity_rhs(family, s, family.universe)

    def test_counts_use_the_smallest_unsigned_dtype(self):
        assert analysis.MultiplicityTable(fam([(0, 1)])).counts.dtype == np.uint8
        many = fam(*([(v, 0), (w, 1)] for v in range(17) for w in range(17) if v != w))
        assert len(many) == 272
        assert analysis.MultiplicityTable(many).counts.dtype == np.uint16

    def test_uint16_chunks_across_one_word(self, monkeypatch):
        # 2^17 codes, so a whole pass in chunks of a few cells takes seconds:
        # the kernel counts the first and last 2^8 codes and some chunks
        # between, against a vectorised brute force.
        many = fam(*([(v, 0), (w, 1)] for v in range(17) for w in range(17) if v != w))
        codes = np.arange(1 << 17)
        want = np.zeros(codes.size, dtype=np.int64)
        for m in many.maps:
            mask = sum(1 << v for v, _ in m.entries)
            pattern = sum(b << v for v, b in m.entries)
            want += (codes & mask) == pattern
        for chunk_size in (2, 4, 8):
            monkeypatch.setattr(analysis, "DEFAULT_CHUNK", chunk_size)
            cubes = analysis._Subcubes(many, many.ranks, multiplicity=True)
            assert cubes.dtype == np.uint16
            for lo, j in cubes.chunks():
                assert 1 << j <= chunk_size  # the patched cap holds
                if lo < 1 << 8 or lo >= (1 << 17) - (1 << 8) or lo % 4099 < chunk_size:
                    counts = cubes.cells(lo, j)
                    assert counts.dtype == np.uint16 and counts.size == 1 << j
                    assert (counts == want[lo : lo + (1 << j)]).all()
        monkeypatch.undo()
        assert (analysis.MultiplicityTable(many).counts == want).all()

    @staticmethod
    def first_code_family(n, first):
        """A family on vertices 0 .. n-1 whose smallest avoiding code is
        `first`, or with no avoiding code when first is None: for each bit i
        set in first, a map that agrees with first above i and puts 0 at i,
        and a map on every vertex that rules out one other code."""
        code = (1 << n) - 1 if first is None else first
        maps = [
            [(j, code >> j & 1) for j in range(i + 1, n)] + [(i, 0)]
            for i in range(n)
            if code >> i & 1
        ]
        other = code if first is None else (code + 1) % (1 << n)
        maps.append([(j, other >> j & 1) for j in range(n)])
        return fam(*maps)

    def test_first_witness_in_the_probe_and_the_full_chunks(self, monkeypatch):
        # 14 vertices: first-witness scans probe [0, 2^12), then walk one
        # full chunk, or two of 2^13 codes; with a cap of 2^12 or 8 there is
        # no probe.
        n, k = 14, analysis.FIRST_CHUNK.bit_length() - 1
        chunks = (8, 1 << k, 1 << k + 1, analysis.DEFAULT_CHUNK)
        for first in (0, (1 << k) - 1, 1 << k, (1 << k + 1) - 1, 1 << k + 1, (1 << n) - 1, None):
            family = self.first_code_family(n, first)
            free = [code for code, m in enumerate(slow_multiplicities(family)) if m == 0]
            assert (free[0] if free else None) == first
            for chunk_size in chunks:
                monkeypatch.setattr(analysis, "DEFAULT_CHUNK", chunk_size)
                report = analysis.find_coloring(family)
                if first is None:
                    assert report.witness is None and report.enumerated == 1 << n
                else:
                    assert report.witness == Coloring(family.universe, first)
                    assert report.enumerated == first + 1

    def test_first_witness_at_the_word_edge(self, monkeypatch):
        # A probe of 64 codes is one word of one-bit cells: witness 63 is its
        # last bit, and 64 and 65 lie in the next word of a full chunk.  A
        # probe of 4 codes leaves 4 codes to a word, so that 63 ends the 16th
        # word of a full chunk.
        for probe in (64, 4):
            monkeypatch.setattr(analysis, "FIRST_CHUNK", probe)
            for n in (7, 9):
                for first in (63, 64, 65):
                    family = self.first_code_family(n, first)
                    free = [code for code, m in enumerate(slow_multiplicities(family)) if m == 0]
                    assert free[0] == first
                    for chunk_size in self.CHUNKS:
                        self.check(family, chunk_size=chunk_size)

    def test_families_filling_one_word_and_two(self, rng):
        # 6 vertices are 64 codes, one word of one-bit cells; 7 are two.
        for n in (6, 7):
            for _ in range(15):
                family = random_family(rng, max_vertices=n, max_maps=10)
                while len(family.universe) < n:
                    family = random_family(rng, max_vertices=n, max_maps=10)
                for chunk_size in self.CHUNKS:
                    self.check(family, chunk_size=chunk_size)

    def test_chunks_visited(self, monkeypatch):
        visited = []
        cells = analysis._Subcubes.cells

        def recording(cubes, lo, j, out=None):
            visited.append((lo, j))
            return cells(cubes, lo, j, out)

        monkeypatch.setattr(analysis._Subcubes, "cells", recording)
        # A non-colorable family at the default cap: the probe and one chunk.
        analysis.find_coloring(self.first_code_family(20, None))
        assert visited == [(0, 12), (0, 20)]
        monkeypatch.setattr(analysis, "DEFAULT_CHUNK", 1 << 13)
        for first, count, want in [
            (None, False, [(0, 12), (0, 13), (8192, 13)]),
            ((1 << 12) - 1, False, [(0, 12)]),
            (1 << 12, False, [(0, 12), (0, 13)]),
            (1 << 12, True, [(0, 13), (8192, 13)]),
        ]:
            visited.clear()
            analysis.find_coloring(self.first_code_family(14, first), count=count)
            assert visited == want, (first, count)

    def test_count_mode_holds_one_chunk(self, monkeypatch):
        # 2^20 - 1 avoiders in one chunk of 2^20 one-bit cells, 128 KB of
        # words: counting them allocates no index per avoider and no byte per
        # code.
        chunk = 1 << 20
        family = fam([(v, 1) for v in range(20)])
        monkeypatch.setattr(analysis, "DEFAULT_CHUNK", chunk)
        tracemalloc.start()
        try:
            report = analysis.find_coloring(family, count=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.coloring_count == chunk - 1 and report.witness.bits == 0
        assert peak < chunk // 2

    def test_signed_sum_below_zero(self):
        # Unsigned counts must not wrap: only codes with bit 0 set hold the map.
        table = analysis.MultiplicityTable(fam([(0, 1)]), ambient=(0, 1))
        assert table.signed_sum(0b01) == -2
        assert table.signed_sum(0b11) == 0
        assert table.signed_sum(0) == 2


class TestCoverMultiplicity:
    def test_weight_one_family_has_multiplicity_one_everywhere(self):
        family = constructions.binary_family(3).family
        for f in all_assignments(family.universe):
            coloring = Coloring.from_assignment(f)
            assert analysis.cover_multiplicity(family, coloring) == 1

    def test_k43_all_zeros(self):
        family = constructions.k43_cover().family
        coloring = Coloring(family.universe, 0)
        assert analysis.cover_multiplicity(family, coloring) == 1

    def test_empty_family(self):
        assert analysis.cover_multiplicity(Family.of([]), Coloring((0,), 1)) == 0


class TestWeightOneAudit:
    def test_binary_families_are_consistent(self):
        for r in (2, 3):
            audit = analysis.weight_one_audit(constructions.binary_family(r).family)
            assert audit.consistent
            assert audit.family_weight == 1
            assert audit.verdict == "consistent"

    def test_weight_clause(self):
        audit = analysis.weight_one_audit(fam([(0, 0)]))
        clauses = {v.clause for v in audit.violations}
        assert "weight-is-one" in clauses

    def test_hand_built_weight_one_family_is_consistent(self):
        family = fam([(0, 0)], [(0, 1), (1, 0)], [(0, 1), (1, 1)])
        audit = analysis.weight_one_audit(family)
        assert audit.consistent
        assert audit.first_violation is None

    def test_weight_one_but_colorable(self):
        # Two singleton maps on distinct vertices weigh one yet leave the
        # all-ones coloring uncovered, so every downstream clause trips.
        family = fam([(0, 0)], [(1, 0)])
        audit = analysis.weight_one_audit(family)
        assert audit.family_weight == 1
        clauses = [v.clause for v in audit.violations]
        assert clauses == ["no-coloring", "multiplicity-one", "parity-balance"]
        assert audit.verdict == "violated:no-coloring"

    def test_noncolorable_but_overweight(self):
        # Adding a redundant map to a weight-one family keeps it
        # non-colorable while breaking weight, multiplicity, and balance.
        base = constructions.binary_family(2).family
        family = Family.of(base.maps + (make_partial_map([(0, 0), (1, 0)]),))
        audit = analysis.weight_one_audit(family)
        clauses = [v.clause for v in audit.violations]
        assert clauses == ["weight-is-one", "multiplicity-one", "parity-balance"]
        assert "no-coloring" not in clauses

    def test_parity_clause_reports_offending_subset(self):
        audit = analysis.weight_one_audit(fam([(0, 0)]))
        parity = [v for v in audit.violations if v.clause == "parity-balance"]
        assert parity and "S=" in parity[0].detail
        assert audit.verdict == "violated:weight-is-one"

    @staticmethod
    def assert_parity_clause_matches_oracle(family):
        audit = analysis.weight_one_audit(family)
        found = [v for v in audit.violations if v.clause == "parity-balance"]
        first = slow_first_imbalance(family)
        if first is None:
            assert found == [], family
        else:
            s, w0, w1 = first
            detail = f"S={list(s)}: even side weighs {w0}, odd side weighs {w1}"
            assert found == [analysis.AuditViolation("parity-balance", detail)], family

    def test_parity_clause_matches_slow_oracle(self, rng):
        for _ in range(600):
            family = random_family(
                rng,
                max_vertices=rng.randint(1, 7),
                max_maps=rng.randint(1, 10),
                min_map_size=rng.randint(0, 1),
                allow_empty=True,
            )
            self.assert_parity_clause_matches_oracle(family)

    @staticmethod
    def parity_blocks_family(rng, n):
        """Up to three blocks of up to seven of n vertices, each holding every
        map on it with one parity of ones.  Such a block is balanced on every
        S but itself; a block drawn twice with both parities is balanced on
        every S.  The first unbalanced S, if any, is a whole block."""
        maps = set()
        for _ in range(rng.randint(1, 3)):
            block = rng.sample(range(n), rng.randint(1, min(7, n)))
            parity = rng.randint(0, 1)
            for bits in itertools.product((0, 1), repeat=len(block)):
                if sum(bits) % 2 == parity:
                    maps.add(make_partial_map(zip(block, bits)))
        return Family.of(maps)

    @pytest.mark.parametrize("batch", [analysis._WHT_BATCH, 1 << 7])
    def test_parity_clause_matches_slow_oracle_up_to_twelve_vertices(
        self, rng, monkeypatch, batch
    ):
        # Random families on up to 12 vertices with maps as long as the
        # universe, planted parity blocks, and the edge cases: the empty
        # family, {empty map} and the one-vertex families.  A 2^7-cell batch
        # splits these tables into several blocks and batches.
        monkeypatch.setattr(analysis, "_WHT_BATCH", batch)
        small = [make_partial_map([]), make_partial_map([(3, 0)]), make_partial_map([(3, 1)])]
        for k in range(len(small) + 1):
            for maps in itertools.combinations(small, k):
                self.assert_parity_clause_matches_oracle(Family.of(maps))
        for _ in range(300):
            family = random_family(
                rng,
                max_vertices=rng.randint(1, 12),
                max_maps=rng.randint(1, 10),
                min_map_size=0,
                allow_empty=True,
            )
            self.assert_parity_clause_matches_oracle(family)
        for _ in range(100):
            family = self.parity_blocks_family(rng, rng.randint(1, 12))
            self.assert_parity_clause_matches_oracle(family)

    @pytest.mark.parametrize("batch", [analysis._WHT_BATCH, 1 << 7])
    def test_first_unbalanced_matches_a_direct_transform(self, rng, monkeypatch, batch):
        # Constant tables plus up to three Walsh functions (-1)^popcount(f & T),
        # whose only nonzero coefficients lie at their T, so the first
        # unbalanced S can be deep and can tie across blocks and batches;
        # then random tables.
        monkeypatch.setattr(analysis, "_WHT_BATCH", batch)
        np_rng = np.random.default_rng(rng.randrange(1 << 32))
        for n in range(11):
            size = 1 << n
            odd = np.bitwise_count(np.arange(size)[:, None] & np.arange(size)) & 1
            walsh = 1 - 2 * odd.astype(np.int64)  # row T is the Walsh function of T
            for dtype in (np.uint8, np.uint16):
                top = int(np.iinfo(dtype).max)
                for waves in range(5):
                    if waves < 4:
                        ts = np_rng.integers(0, size, waves)
                        steps = np_rng.integers(1, top // 8, waves)
                        counts = (top // 2 + steps @ walsh[ts]).astype(dtype)
                    else:
                        counts = np_rng.integers(0, top, size, dtype=dtype, endpoint=True)
                    coefficients = walsh @ counts.astype(np.int64)
                    expected = min(
                        (s for s in range(1, size) if coefficients[s]),
                        key=lambda s: (s.bit_count(), [i for i in range(n) if s >> i & 1]),
                        default=None,
                    )
                    assert analysis._first_unbalanced(counts) == expected, (n, counts)

    def test_first_unbalanced_widens_past_int32(self):
        # The table sums to 2^32, and so does the coefficient of S = {0},
        # which int32 cells would hold as 0.
        counts = np.array([1 << 31, 0, 1 << 31, 0], dtype=np.uint32)
        assert analysis._first_unbalanced(counts) == 0b01

    def test_parity_clause_finds_an_imbalance_at_two_vertices(self):
        audit = analysis.weight_one_audit(fam([(0, 0), (1, 0)], [(0, 1), (1, 1)]))
        assert audit.violations[-1] == analysis.AuditViolation(
            "parity-balance", "S=[0, 1]: even side weighs 1/2, odd side weighs 0"
        )

    @pytest.mark.parametrize("depth", [2, 3, 4, 12])
    def test_parity_clause_finds_a_planted_deep_imbalance(self, depth, tmp_path, capsys):
        # The even-parity maps on `depth` vertices split evenly on every
        # smaller S and all lie on the even side of the whole block.  Next to
        # a weight-one family, which balances on every S, that block's
        # vertices are the first unbalanced S.  At 12 vertices the block has
        # 2048 maps of 12 entries, more subsets than the slow oracle can walk.
        block = [10, 12, 15, 19, *range(20, 28)][:depth]
        planted = [
            make_partial_map(zip(block, bits))
            for bits in itertools.product((0, 1), repeat=depth)
            if sum(bits) % 2 == 0
        ]
        family = Family.of(constructions.binary_family(2).family.maps + tuple(planted))
        if depth <= 4:
            assert slow_first_imbalance(family) == (tuple(block), Fraction(1, 2), Fraction(0))
        start = time.perf_counter()
        parity = analysis.weight_one_audit(family).violations[-1]
        elapsed = time.perf_counter() - start
        assert parity.clause == "parity-balance"
        assert parity.detail == f"S={block}: even side weighs 1/2, odd side weighs 0"
        assert elapsed < 1

        path = tmp_path / "planted.json"
        path.write_text(cli.serialize(family))
        start = time.perf_counter()
        assert cli.cli_main(["audit-weight-one", str(path)]) == 1
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out == "weight: 3/2\nviolated:weight-is-one\n"
        assert elapsed < 1

    def test_limit_guard(self, monkeypatch):
        family = constructions.binary_family(3).family
        monkeypatch.setenv("DPCOVER_PARITY_LIMIT", "6")
        with pytest.raises(UniverseTooLargeError, match="universe has 7 vertices, limit is 6"):
            analysis.weight_one_audit(family)

    @staticmethod
    def heap_tree_family(n):
        """The leaf paths of the decision tree whose inner node i, for i < n,
        splits on vertex i and has children 2i + 1 and 2i + 2: weight one, and
        every coloring contains exactly one map, so the audit is consistent."""
        paths = []

        def walk(i, path):
            if i >= n:
                paths.append(path)
                return
            for b in (0, 1):
                walk(2 * i + 1 + b, path + [(i, b)])

        walk(0, [])
        return fam(*paths)

    def test_table_limit_bounds_the_audit(self):
        for n in (21, 24):
            assert analysis.weight_one_audit(self.heap_tree_family(n)).consistent
        with pytest.raises(UniverseTooLargeError, match="universe has 25 vertices, limit is 24"):
            analysis.weight_one_audit(self.heap_tree_family(25))

    def test_first_index_reads_build_no_index_arrays(self):
        # Every coloring but one contains some map, and coloring 0 contains
        # ten: both clauses fail, and each needs only its first index.
        family = fam(*([(v, v % 2)] for v in range(20)))
        tracemalloc.start()
        try:
            audit = analysis.weight_one_audit(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [v.clause for v in audit.violations][1:3] == ["no-coloring", "multiplicity-one"]
        assert audit.violations[2].detail == "coloring 0 contains 10 maps"
        table = analysis.MultiplicityTable(family)
        assert peak < 4 * table.counts.nbytes

    def test_constant_table_balances_every_subset_without_a_scatter(self):
        # The decision chain on 24 vertices: map k sets vertices 0..k-1 to 1
        # and vertex k to 0, and the last map sets all 24 to 1.  Its maps are
        # long, so a scatter over their subsets would take minutes.
        n = 24
        chain = [[(j, 1) for j in range(k)] + [(k, 0)] for k in range(n)]
        family = fam(*chain, [(j, 1) for j in range(n)])
        tracemalloc.start()
        try:
            start = time.perf_counter()
            audit = analysis.weight_one_audit(family)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert audit.verdict == "consistent"
        assert elapsed < 5
        assert peak < 4 * (1 << n)  # the table holds one uint8 per coloring

    def test_unbalanced_table_is_transformed_within_the_bounds(self):
        # The same chain with the singleton map {0: 1} added: the table is
        # not constant, so clause (d) transforms it to name S = [0].
        n = 24
        chain = [[(j, 1) for j in range(k)] + [(k, 0)] for k in range(n)]
        family = fam(*chain, [(j, 1) for j in range(n)], [(0, 1)])
        tracemalloc.start()
        try:
            start = time.perf_counter()
            audit = analysis.weight_one_audit(family)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert audit.violations[-1] == analysis.AuditViolation(
            "parity-balance", "S=[0]: even side weighs 1/2, odd side weighs 1"
        )
        assert elapsed < 5
        assert peak < 4 * (1 << n)

    def test_no_separate_audit_limit(self, monkeypatch):
        monkeypatch.setenv("DPCOVER_AUDIT_LIMIT", "6")
        family = constructions.parity_gadget(4).family  # 8 vertices
        assert analysis.weight_one_audit(family).verdict == "violated:no-coloring"


class TestDomination:
    def test_weight_one_noncolorable_families_have_no_orphans(self):
        for family in (
            constructions.binary_family(2).family,
            constructions.binary_family(3).family,
            constructions.binary_family(4).family,
            constructions.k43_cover().family,
        ):
            assert analysis.weight(family) == 1
            assert analysis.domination_orphans(family) == ()

    def test_removing_a_map_creates_an_avoider(self):
        family = constructions.binary_family(3).family
        smaller = Family.of(family.maps[1:])
        assert analysis.weight(smaller) < 1
        assert slow_colorable(smaller)

    def test_orphans_found_when_domains_are_incomparable(self):
        family = fam([(0, 0), (1, 0)], [(2, 0), (3, 0)])
        assert analysis.domination_orphans(family) == family.maps

    def test_nested_domains_have_no_orphan_below(self):
        family = fam([(0, 0)], [(0, 1), (1, 0)])
        orphans = analysis.domination_orphans(family)
        assert orphans == (make_partial_map([(0, 1), (1, 0)]),)


    def test_matches_slow_oracle_on_random_families(self, rng):
        for _ in range(300):
            family = random_family(
                rng,
                max_vertices=rng.randint(1, 6),
                max_maps=rng.randint(1, 10),
                min_map_size=rng.randint(0, 1),
                allow_empty=True,
            )
            assert analysis.domination_orphans(family) == slow_domination_orphans(family)


class TestComplementPairParity:
    def test_even_uniformity_never_mismatches(self, rng):
        for _ in range(40):
            r = rng.choice([2, 4])
            n = rng.randint(r, 7)
            maps = []
            seen = set()
            for _ in range(rng.randint(1, 4)):
                dom = tuple(sorted(rng.sample(range(n), r)))
                if dom in seen:
                    continue
                seen.add(dom)
                phi = make_partial_map([(v, rng.randint(0, 1)) for v in dom])
                maps += [phi, phi.complement()]
            family = Family.of(maps)
            assert analysis.complement_pair_parity_mismatches(family) == ()

    def test_odd_uniformity_always_mismatches(self):
        phi = make_partial_map([(0, 0), (1, 0), (2, 1)])
        family = Family.of([phi, phi.complement()])
        assert analysis.complement_pair_parity_mismatches(family) == ((0, 1, 2),)

    def test_non_complementary_pairs_ignored(self):
        family = fam([(0, 0), (1, 0)], [(0, 0), (1, 1)])
        assert analysis.complement_pair_parity_mismatches(family) == ()


class TestClaimChecking:
    def test_each_kind_passes_and_fails(self):
        family = constructions.k43_cover().family
        passing = [
            {"kind": "map-count", "value": 8},
            {"kind": "universe-size", "value": 4},
            {"kind": "uniform", "r": 3},
            {"kind": "binary"},
            {"kind": "valid-cover", "edges": 4},
            {"kind": "weight", "value": "1"},
            {"kind": "no-coloring"},
            {"kind": "multiplicity-histogram", "histogram": {"1": 16}},
        ]
        for claim in passing:
            result = analysis.check_claim(family, claim)
            assert result.ok, (claim, result.message)
        failing = [
            {"kind": "map-count", "value": 9},
            {"kind": "universe-size", "value": 5},
            {"kind": "uniform", "r": 4},
            {"kind": "unary"},
            {"kind": "valid-cover", "edges": 5},
            {"kind": "weight", "value": "1/2"},
            {"kind": "colorable"},
            {"kind": "coloring-count", "value": 3},
            {"kind": "multiplicity-histogram", "histogram": {"1": 15}},
        ]
        for claim in failing:
            result = analysis.check_claim(family, claim)
            assert not result.ok, claim
            assert result.message

    def test_quantified_kinds_on_colorable_gadgets(self):
        neq = constructions.k54_neq_cover().family
        assert analysis.check_claim(neq, {"kind": "forces-distinct", "vertices": [3, 4]}).ok
        assert not analysis.check_claim(neq, {"kind": "forces-equal", "vertices": [3, 4]}).ok
        eq = constructions.k54_eq_cover().family
        assert analysis.check_claim(eq, {"kind": "forces-equal", "vertices": [3, 4]}).ok
        par = constructions.parity_gadget(2).family
        assert analysis.check_claim(
            par, {"kind": "pair-disagreement", "pairs": [[0, 2], [1, 3]]}
        ).ok
        assert analysis.check_claim(par, {"kind": "odd-ones", "vertices": [0, 1]}).ok
        assert not analysis.check_claim(par, {"kind": "odd-ones", "vertices": [0]}).ok
        assert analysis.check_claim(
            par,
            {"kind": "transversal-domains", "pairs": [[0, 2], [1, 3]]},
        ).ok
        copy = constructions.copy_gadget((0, 1, 2), (3, 4, 5)).family
        assert analysis.check_claim(
            copy, {"kind": "constant-implies-constant", "src": [0, 1, 2], "dst": [3, 4, 5]}
        ).ok
        assert not analysis.check_claim(
            copy, {"kind": "constant-implies-constant", "src": [3, 4, 5], "dst": [0, 1, 2]}
        ).ok
        two = constructions.two_edge_gadget().family
        assert analysis.check_claim(
            two, {"kind": "never-both-constant", "left": [0, 1, 2], "right": [3, 4, 5]}
        ).ok
        nine = constructions.nine_edge_gadget().family
        assert analysis.check_claim(
            nine, {"kind": "constant-side", "left": [0, 1, 2], "right": [3, 4, 5]}
        ).ok

    @pytest.mark.parametrize(
        "gadget,claim,message",
        [
            ("parity", {"kind": "no-coloring"}, "coloring 6 avoids every map"),
            (
                "neq",
                {"kind": "forces-equal", "vertices": [3, 4]},
                "coloring 8 is not constant there",
            ),
            ("eq", {"kind": "forces-distinct", "vertices": [3, 4]}, "coloring 1 agrees on the pair"),
            (
                "parity",
                {"kind": "pair-disagreement", "pairs": [[0, 2], [1, 2], [0, 3]]},
                "coloring 6 agrees on pair [1, 2]",
            ),
            (
                "parity",
                {"kind": "odd-ones", "vertices": [0]},
                "coloring 6 has an even number of ones there",
            ),
            (
                "parity",
                {"kind": "odd-ones", "vertices": []},
                "coloring 6 has an even number of ones there",
            ),
            (
                "copy",
                {"kind": "constant-implies-constant", "src": [3, 4, 5], "dst": [0, 1, 2]},
                "coloring 1 is constant on src, not on dst",
            ),
            (
                "copy",
                {"kind": "never-both-constant", "left": [0, 1, 2], "right": [3, 4, 5]},
                "coloring 0 is constant on both sides",
            ),
            (
                "two",
                {"kind": "constant-side", "left": [0, 1, 2], "right": [3, 4, 5]},
                "coloring 9 is constant on neither side",
            ),
        ],
    )
    def test_fail_line_of_each_counterexample_kind(self, gadget, claim, message):
        family = {
            "parity": constructions.parity_gadget(2),  # avoiders 6 and 9
            "neq": constructions.k54_neq_cover(),
            "eq": constructions.k54_eq_cover(),
            "copy": constructions.copy_gadget((0, 1, 2), (3, 4, 5)),
            "two": constructions.two_edge_gadget(),
        }[gadget].family
        expected = analysis.ClaimResult(claim["kind"], False, message)
        assert analysis.check_claim(family, claim) == expected
        assert analysis.check_claims(family, [claim]) == (expected,)

    def test_only_shape_kinds_build_the_profile(self):
        family = constructions.unary_upper_even(6).family
        for claim in (
            {"kind": "weight", "value": "9/8"},
            {"kind": "map-count", "value": 72},
            {"kind": "no-coloring"},
        ):
            assert analysis.check_claim(family, claim).ok
        assert "profile" not in family.__dict__
        assert analysis.check_claim(family, {"kind": "unary"}).ok
        assert "profile" in family.__dict__

    def test_false_no_coloring_stops_at_the_first_chunk_with_an_avoider(self, monkeypatch):
        # 10 vertices in 16-code chunks; the smallest avoider, 40, lies in
        # the third chunk of 64.
        family = TestKernelAgainstOracles.first_code_family(10, 40)
        chunks = []
        cells = analysis._Subcubes.cells

        def counting(cubes, lo, j, out=None):
            chunks.append(lo)
            return cells(cubes, lo, j, out)

        monkeypatch.setattr(analysis, "DEFAULT_CHUNK", 16)
        monkeypatch.setattr(analysis._Subcubes, "cells", counting)
        result = analysis.check_claim(family, {"kind": "no-coloring"})
        assert result == analysis.ClaimResult("no-coloring", False, "coloring 40 avoids every map")
        assert chunks == [0, 16, 32]

    def test_counterexample_kinds_match_the_reference(self, rng):
        gadgets = [
            constructions.k54_neq_cover(),
            constructions.k54_eq_cover(),
            constructions.copy_gadget((0, 1, 2), (3, 4, 5)),
            constructions.two_edge_gadget(),
            constructions.nine_edge_gadget(),
            constructions.parity_gadget(3),
            constructions.binary_family(3),
        ]
        families = [g.family for g in gadgets] + [
            random_family(rng, max_vertices=6, max_maps=5, min_map_size=2) for _ in range(20)
        ]
        seen = set()
        for family in families:
            universe = family.universe

            def ids(k=None):
                k = rng.randint(0, 4) if k is None else k
                return [rng.choice(universe) if rng.random() < 0.95 else -1 for _ in range(k)]

            for _ in range(20):
                claims = [
                    {"kind": "no-coloring"},
                    {"kind": "forces-equal", "vertices": ids()},
                    {"kind": "forces-distinct", "vertices": ids(2)},
                    {"kind": "pair-disagreement", "pairs": [ids(2) for _ in range(rng.randint(0, 3))]},
                    {"kind": "odd-ones", "vertices": ids()},
                    {"kind": "constant-implies-constant", "src": ids(), "dst": ids()},
                    {"kind": "never-both-constant", "left": ids(), "right": ids()},
                    {"kind": "constant-side", "left": ids(), "right": ids()},
                ]
                for claim in claims:
                    result = analysis.check_claim(family, claim)
                    assert result == slow_check_claim(family, claim), claim
                    seen.add((claim["kind"], result.ok, "outside" in result.message))
        # Every kind passed, failed at a coloring, and, but for no-coloring,
        # failed at a vertex outside the universe.
        assert len(seen) == 3 * 8 - 1

    def test_sampled_claim(self):
        family = constructions.binary_family(3).family
        good = analysis.check_claim(
            family, {"kind": "sampled-no-coloring", "trials": 100, "seed": 5}
        )
        assert good.ok
        colorable = constructions.parity_gadget(3).family
        bad = analysis.check_claim(
            colorable, {"kind": "sampled-no-coloring", "trials": 2000, "seed": 5}
        )
        assert not bad.ok

    def test_vertices_outside_universe_fail_cleanly(self):
        family = constructions.k54_neq_cover().family
        result = analysis.check_claim(family, {"kind": "forces-distinct", "vertices": [3, 99]})
        assert not result.ok
        assert "outside the universe" in result.message
        big = constructions.binary_family(5).family  # 31 vertices, over the table limit
        a, b = big.universe[:2]
        result = analysis.check_claim(big, {"kind": "forces-equal", "vertices": [a, 99]})
        assert result == analysis.ClaimResult(
            "forces-equal", False, "claim mentions a vertex outside the universe"
        )
        with pytest.raises(UniverseTooLargeError, match="universe has 31 vertices, limit is 24"):
            analysis.check_claim(big, {"kind": "forces-equal", "vertices": [a, b]})

    def test_pair_disagreement_checks_every_pair_before_the_table(self):
        big = constructions.binary_family(5).family  # 31 vertices, over the table limit
        a, b = big.universe[:2]
        outside = analysis.ClaimResult(
            "pair-disagreement", False, "claim mentions a vertex outside the universe"
        )
        for pairs in ([[a, b], [a, 999]], [[a, 999], [a, b]]):
            claim = {"kind": "pair-disagreement", "pairs": pairs}
            assert analysis.check_claim(big, claim) == outside

    @pytest.mark.parametrize(
        "claim",
        [
            {"kind": "map-count", "value": "8"},
            {"kind": "map-count", "value": True},
            {"kind": "weight", "value": 1},
            {"kind": "valid-cover", "edges": "4"},
            {"kind": "sampled-no-coloring", "trials": "x", "seed": 1},
            {"kind": "multiplicity-histogram", "histogram": [["1", 16]]},
            {"kind": "forces-equal", "vertices": 5},
            {"kind": "forces-equal", "vertices": [0, "1"]},
            {"kind": "forces-distinct", "vertices": [0, 1, 2]},
            {"kind": "pair-disagreement", "pairs": [[0, 1, 2]]},
            {"kind": "transversal-domains", "pairs": [0, 1]},
        ],
    )
    def test_field_of_the_wrong_type_raises_value_error(self, claim):
        # binary_family(5) has 31 vertices, over the table limit: the fields
        # are checked before any table is built.
        for family in (constructions.k43_cover().family, constructions.binary_family(5).family):
            with pytest.raises(ValueError, match=repr(claim["kind"])):
                analysis.check_claim(family, claim)

    def test_unknown_kind_fails(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "avoiding_codes", calls.append)
        for family in (
            Family.of([]),
            constructions.parity_gadget(3).family,
            constructions.binary_family(5).family,  # over the table limit
        ):
            result = analysis.check_claim(family, {"kind": "mystery"})
            assert result == analysis.ClaimResult("mystery", False, "unknown claim kind 'mystery'")
            assert analysis.check_claims(family, [{"kind": "mystery"}]) == (result,)
        assert calls == []

    def test_check_claims_matches_check_claim_on_every_gadget(self):
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
            constructions.parity_gadget(4),
            constructions.unary_upper_even(4),
            constructions.double_unary_gadget(5),
            constructions.lift_to_cover(constructions.unary_upper_even(2).family),
        ]
        for gadget in gadgets:
            family = gadget.family
            a, b = family.universe[:2]
            failing = [
                {"kind": "map-count", "value": len(family) + 1},
                {"kind": "colorable"},
                {"kind": "no-coloring"},
                {"kind": "coloring-count", "value": -1},
                {"kind": "forces-equal", "vertices": [a, b]},
                {"kind": "forces-distinct", "vertices": [a, b]},
                {"kind": "odd-ones", "vertices": [a]},
                {"kind": "never-both-constant", "left": [a], "right": [b]},
                {"kind": "forces-equal", "vertices": [a, -1]},
                {"kind": "mystery"},
            ]
            claims = gadget.claimed_properties + failing
            assert gadget.claimed_properties, gadget.source
            expected = tuple(analysis.check_claim(family, c) for c in claims)
            assert analysis.check_claims(family, claims) == expected
            assert not all(r.ok for r in expected[len(gadget.claimed_properties):])

    def test_check_claims_enumerates_codes_at_most_once(self, monkeypatch):
        calls = []
        avoiding_codes = analysis.avoiding_codes

        def counting(family, **kwargs):
            calls.append(family)
            return avoiding_codes(family, **kwargs)

        monkeypatch.setattr(analysis, "avoiding_codes", counting)
        gadget = constructions.parity_gadget(4)
        claims = gadget.claimed_properties + [{"kind": "coloring-count", "value": 8}]
        assert all(r.ok for r in analysis.check_claims(gadget.family, claims))
        assert calls == [gadget.family]
        analysis.check_claims(gadget.family, [{"kind": "map-count", "value": 1}])
        assert len(calls) == 1
        analysis.check_claims(gadget.family, claims)
        assert len(calls) == 2

    def test_check_claim_ignores_the_scope_of_another_call(self, monkeypatch):
        colorable = constructions.parity_gadget(2).family
        other = analysis._ClaimScope(constructions.binary_family(2).family)
        token = analysis._SCOPE.set(other)
        try:
            assert analysis.check_claim(colorable, {"kind": "colorable"}).ok
            other.family = colorable
            monkeypatch.setenv("DPCOVER_PARITY_LIMIT", "2")
            with pytest.raises(UniverseTooLargeError):
                analysis.check_claim(colorable, {"kind": "colorable"})
        finally:
            analysis._SCOPE.reset(token)

    def test_check_claims_order_preserved(self):
        family = constructions.k43_cover().family
        claims = [{"kind": "map-count", "value": 8}, {"kind": "unary"}]
        results = analysis.check_claims(family, claims)
        assert [r.kind for r in results] == ["map-count", "unary"]
        assert results[0].ok and not results[1].ok


def test_two_size_limits_each_set_by_one_env_var():
    root = Path(__file__).resolve().parents[1]
    names = set()
    for path in (root / "src" / "dpcover").rglob("*.py"):
        names.update(re.findall(r"DPCOVER_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert names == {"DPCOVER_ENUM_LIMIT", "DPCOVER_PARITY_LIMIT"}
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert all(f"`{name}`" in readme for name in names)
