"""Acceptance gate: one test per shipped criterion, exact tolerances.

Each test prints one `C<n>: PASS` line (visible with -s); `pytest -v` shows
one pass/fail line per criterion either way.  Numbers frozen here were
derived by independent enumeration before the implementations existed.
"""
import itertools
import random
import time
from unittest import mock

import pytest

from dpcover import analysis, cli, constructions, search
from dpcover.core import Coloring, Family, classify, domain_hypergraph, make_partial_map

from oracles import cnf_satisfiable


@pytest.fixture(scope="module", autouse=True)
def warmup():
    """Absorb numpy and import overhead before the timed criteria."""
    analysis.find_coloring(constructions.k43_cover().family, count=True)


def timed():
    return time.perf_counter()


def test_c01_k43_cover_is_a_noncolorable_2fold_cover():
    t0 = timed()
    gadget = constructions.k43_cover()
    profile = classify(gadget.family)
    assert profile.uniformity == 3
    assert len(gadget.family) == 8
    assert profile.cover_of is not None
    assert sorted(profile.cover_of.edges) == [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    ]
    report = analysis.find_coloring(gadget.family, count=True)
    assert report.coloring_count == 0
    assert report.enumerated == 16
    elapsed = timed() - t0
    assert elapsed < 0.010
    print(f"C1: PASS k43 cover certified over 16 assignments ({elapsed*1000:.1f} ms)")


def test_c02_k54_covers_force_the_claimed_relation():
    t0 = timed()
    neq = constructions.k54_neq_cover().family
    codes = analysis.avoiding_codes(neq)
    assert codes.size == 14  # nonempty, frozen by independent enumeration
    assert all(((int(f) >> 3) & 1) != ((int(f) >> 4) & 1) for f in codes)
    eq = constructions.k54_eq_cover().family
    codes = analysis.avoiding_codes(eq)
    assert codes.size == 14
    assert all(((int(f) >> 3) & 1) == ((int(f) >> 4) & 1) for f in codes)
    elapsed = timed() - t0
    assert elapsed < 0.010
    print(f"C2: PASS forced relations over 32 assignments each ({elapsed*1000:.1f} ms)")


def test_c03_upper_bound_assemblies():
    t0 = timed()
    ten = constructions.four_uniform_10()
    assert len(domain_hypergraph(ten.family)) == 10
    profile = classify(ten.family)
    assert profile.uniformity == 4
    assert profile.cover_of is not None
    report = analysis.find_coloring(ten.family, count=True)
    assert report.coloring_count == 0 and report.enumerated == 256

    seventeen = constructions.five_uniform_17()
    h = domain_hypergraph(seventeen.family)
    assert len(h) == 17
    xs, ys, zs = {0, 1, 2}, {3, 4, 5}, {6, 7, 8}
    blocks = (
        [e for e in h.edges if 9 in e],
        [e for e in h.edges if xs <= set(e) and 9 not in e],
        [e for e in h.edges if ys <= set(e) and len(set(e) & zs) == 2],
        [e for e in h.edges if zs <= set(e)],
    )
    assert [len(b) for b in blocks] == [9, 3, 3, 2]
    report = analysis.find_coloring(seventeen.family, count=True)
    assert report.coloring_count == 0 and report.enumerated == 1024
    elapsed = timed() - t0
    assert elapsed < 0.100
    print(f"C3: PASS 10-edge and 17-edge assemblies certified ({elapsed*1000:.1f} ms)")


def test_c04_binary_families_to_r16():
    t0 = timed()
    for r in (1, 2, 3, 4):
        family = constructions.binary_family(r).family
        profile = classify(family)
        assert profile.is_binary and profile.uniformity == r
        assert len(family) == 1 << r
        report = analysis.find_coloring(family)
        assert not report.colorable
        assert report.enumerated == 1 << ((1 << r) - 1)
    for r in range(5, 17):
        profile = constructions.binary_family_profile(r)
        assert profile == {
            "universe_size": (1 << r) - 1,
            "map_count": 1 << r,
            "uniformity": r,
        }
    for r in (5, 8):
        family = constructions.binary_family(r).family
        profile = classify(family)
        assert profile.is_binary and profile.uniformity == r
        assert len(family) == 1 << r
    big = constructions.binary_family(16).family
    assert len(big) == 65536 and len(big.universe) == 65535
    sample = analysis.sample_noncolorability(big, 100_000, seed=0x5EED)
    assert sample.counterexamples == 0
    elapsed = timed() - t0
    assert elapsed < 5.0
    print(f"C4: PASS binary r<=4 exhaustive, r<=16 structural + 1e5 samples ({elapsed:.2f} s)")


def test_c05_parity_gadget_bullets_and_induction():
    t0 = timed()
    for r in (2, 3, 4):
        gadget = constructions.parity_gadget(r)
        family = gadget.family
        h = domain_hypergraph(family)
        assert len(h) == 1 << r
        assert classify(family).is_unary
        for edge in h.edges:
            for i in range(r):
                assert len(set(edge) & {i, r + i}) == 1
        codes = analysis.avoiding_codes(family)
        assert codes.size == 1 << (r - 1)
        for code in map(int, codes):
            f = [(code >> i) & 1 for i in range(2 * r)]
            assert all(f[i] != f[r + i] for i in range(r))
            assert sum(f[:r]) % 2 == 1
        # Chain equivalence: walk z_0 = x_0, stepping by the coloring's value,
        # for every coloring splitting all pairs; landing on the x side at
        # step i must coincide with evenness of the ones seen so far.
        for code in range(1 << (2 * r)):
            f = [(code >> i) & 1 for i in range(2 * r)]
            if any(f[i] == f[r + i] for i in range(r)):
                continue
            z = 0
            ones = 0
            for i in range(r):
                assert (z == i) == (ones % 2 == 0)
                ones += f[i]
                z = (i + 1) if f[z] == 0 else r + (i + 1)
    elapsed = timed() - t0
    assert elapsed < 1.0
    print(f"C5: PASS parity gadget r in {{2,3,4}} bullets and chain rule ({elapsed*1000:.1f} ms)")


def test_c06_unary_even_sizes_and_noncolorability():
    t0 = timed()
    for r in (2, 4, 6, 8):
        family = constructions.unary_upper_even(r).family
        profile = classify(family)
        assert profile.is_unary and profile.uniformity == r
        assert len(family) == (1 << r) + (1 << (r // 2))
        report = analysis.find_coloring(family, count=True)
        assert report.coloring_count == 0
        assert report.enumerated == 1 << (2 * r)
    elapsed = timed() - t0
    assert elapsed < 10.0
    print(f"C6: PASS unary even witnesses up to r=8 over 65536 assignments ({elapsed:.2f} s)")


def test_c07_lift_and_double_unary():
    base = constructions.unary_upper_even(2).family
    lifted = constructions.lift_to_cover(base)
    profile = classify(lifted.family)
    assert profile.uniformity == 3
    assert profile.cover_of is not None
    assert len(domain_hypergraph(lifted.family)) == 6
    report = analysis.find_coloring(lifted.family, count=True)
    assert report.coloring_count == 0 and report.enumerated == 32

    other = Family.of(
        [make_partial_map([(v + 4, b) for v, b in m.entries]) for m in base.maps]
    )
    doubled = constructions.double_unary(base, other, 8)
    profile = classify(doubled)
    assert profile.is_unary and profile.uniformity == 3
    assert len(doubled) == 12
    report = analysis.find_coloring(doubled, count=True)
    assert report.coloring_count == 0 and report.enumerated == 512
    print("C7: PASS lifted cover and doubled unary family certified")


def test_c08_parity_identity_and_signed_extension_counts():
    t0 = timed()
    rng = random.Random(20260815)
    ambient = tuple(range(8))
    for _ in range(100):
        n_maps = rng.randint(1, 6)
        maps = set()
        while len(maps) < n_maps:
            size = rng.randint(1, 4)
            dom = tuple(sorted(rng.sample(ambient, size)))
            maps.add(tuple((v, rng.randint(0, 1)) for v in dom))
        family = Family.of([make_partial_map(m) for m in maps])
        table = analysis.MultiplicityTable(family, ambient)
        for size in range(0, 9):
            for s in itertools.combinations(ambient, size):
                assert analysis.parity_identity(family, s, table=table).holds

    for n in range(1, 7):
        space = 1 << n
        pop = [bin(x).count("1") & 1 for x in range(space)]
        for dom_mask in range(space):
            free = n - bin(dom_mask).count("1")
            sub_patterns = [p for p in range(space) if (p & ~dom_mask) == 0]
            for pattern in sub_patterns:
                extensions = [
                    f for f in range(space) if (f & dom_mask) == pattern
                ]
                for s_mask in range(space):
                    signed = sum(1 - 2 * pop[f & s_mask] for f in extensions)
                    if s_mask & ~dom_mask:
                        assert signed == 0
                    else:
                        sign = 1 - 2 * pop[pattern & s_mask]
                        assert signed == sign * (1 << free)
    elapsed = timed() - t0
    assert elapsed < 30.0
    print(f"C8: PASS identity on 100 families x 256 subsets + signed counts ({elapsed:.2f} s)")


def test_c09_weight_one_audits():
    for r in (2, 3):
        family = constructions.binary_family(r).family
        audit = analysis.weight_one_audit(family)
        assert audit.verdict == "consistent"
        assert audit.family_weight == 1
        table = analysis.MultiplicityTable(family)
        assert table.min() == table.max() == 1
        for size in range(1, len(family.universe) + 1):
            for s in itertools.combinations(family.universe, size):
                even, odd = analysis.sub_family(family, s)
                assert analysis.weight(even) == analysis.weight(odd)
    print("C9: PASS weight-one audits consistent for binary r in {2,3}")


def test_c10_domination_and_removal():
    for family in (
        constructions.binary_family(2).family,
        constructions.binary_family(3).family,
        constructions.binary_family(4).family,
        constructions.k43_cover().family,
    ):
        assert analysis.weight(family) == 1
        assert not analysis.find_coloring(family).colorable
        assert analysis.domination_orphans(family) == ()
    family = constructions.binary_family(3).family
    for drop in range(len(family)):
        smaller = Family.of(family.maps[:drop] + family.maps[drop + 1 :])
        assert analysis.weight(smaller) < 1
        assert analysis.find_coloring(smaller).colorable
    print("C10: PASS domination holds; every single-map removal opens a coloring")


def test_c11_minimality_search_brackets_r2():
    t0 = timed()
    four = search.search_min_unary(2, 4, 6, workers=4)
    assert four.witness is None
    five = search.search_min_unary(2, 5, 6, workers=4)
    assert five.witness is None  # derived verdict: sizes up to 5 all colorable
    six = search.search_min_unary(2, 6, 6, workers=4)
    assert six.witness_size == 6
    witness = six.witness
    profile = classify(witness)
    assert profile.is_unary and profile.uniformity == 2
    assert not analysis.find_coloring(witness).colorable
    elapsed = timed() - t0
    assert elapsed < 300.0
    print(f"C11: PASS minimum unary 2-uniform size is exactly 6 ({elapsed:.2f} s)")


DESK_GADGETS = [
    constructions.k43_cover,
    constructions.k54_neq_cover,
    constructions.k54_eq_cover,
    constructions.four_uniform_10,
    constructions.nine_edge_gadget,
    lambda: constructions.copy_gadget((0, 1, 2), (3, 4, 5)),
    constructions.two_edge_gadget,
    constructions.five_uniform_17,
    lambda: constructions.binary_family(2),
    lambda: constructions.binary_family(3),
    lambda: constructions.parity_gadget(2),
    lambda: constructions.parity_gadget(3),
    lambda: constructions.unary_upper_even(2),
    lambda: constructions.unary_upper_even(4),
    lambda: constructions.double_unary_gadget(3),
    lambda: constructions.lift_to_cover(constructions.unary_upper_even(2).family),
]


def test_c12_cnf_bridge():
    for factory in DESK_GADGETS:
        gadget = factory()
        expected = analysis.find_coloring(gadget.family).colorable
        assert cnf_satisfiable(cli.export_cnf(gadget.family)) == expected, gadget.source
    print(f"C12: PASS CNF satisfiability matches colorability on {len(DESK_GADGETS)} gadgets")


def build_report(workers: int) -> str:
    """Deterministic composite of the reports behind criteria 1 through 12."""
    lines = []
    for factory in DESK_GADGETS:
        gadget = factory()
        lines.append(cli.serialize(gadget))
        report = analysis.find_coloring(gadget.family, count=True, workers=workers)
        lines.append(repr(report))
        lines.append(str(analysis.weight(gadget.family)))
        lines.append(cli.export_cnf(gadget.family))
    big = constructions.unary_upper_even(8).family
    lines.append(repr(analysis.find_coloring(big, count=True, workers=workers)))
    with mock.patch.object(analysis, "DEFAULT_CHUNK", 4096):
        lines.append(repr(analysis.find_coloring(big, count=True, workers=workers)))
    wide = constructions.binary_family(16).family
    lines.append(repr(analysis.sample_noncolorability(wide, 100_000, seed=0x5EED)))
    for r in (2, 3):
        family = constructions.binary_family(r).family
        lines.append(analysis.weight_one_audit(family).verdict)
        for s in ((0,), (0, 1), tuple(family.universe)):
            residual = analysis.parity_identity(family, s)
            lines.append(f"{residual.subset} {residual.lhs} {residual.rhs}")
    for budget in (4, 5, 6):
        lines.append(repr(search.search_min_unary(2, budget, 6, workers=workers)))
    for r in (2, 3, 4):
        lines.append(repr(search.verify_bracket(r)))
    return "\n".join(lines)


def test_c13_reports_are_byte_identical_across_runs_and_workers():
    first = build_report(1)
    second = build_report(1)
    eight = build_report(8)
    assert first == second
    assert first == eight
    print(f"C13: PASS {len(first)} report bytes identical across runs and workers 1 vs 8")
