"""Property tests: serialize/parse round trips, CNF export, entry types, and
the constructors, parser, canonical keys, claim checks and by-domain
predicates against their references in `oracles`."""
import gc
import json
import os
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpcover.analysis import (
    check_claim,
    check_claims,
    complement_pair_parity_mismatches,
    domination_orphans,
)
from dpcover.cli import export_cnf, parse, serialize
from dpcover.core import Family, Hypergraph, classify, domain_hypergraph, make_partial_map
from dpcover.errors import EmptyMapPresentError
from dpcover.search import _key_of_entries

from oracles import (
    cnf_satisfiable,
    slow_check_claim,
    slow_classify,
    slow_colorable,
    slow_complement_pair_parity_mismatches,
    slow_domain_hypergraph,
    slow_domination_orphans,
    slow_family_of,
    slow_key_of_entries,
    slow_make_partial_map,
    slow_parse,
    slow_serialize,
)

SETTINGS = settings(max_examples=150, deadline=None, database=None)

# Small ids collide often; the others reach past 2^63 and 2^64.
vertex_ids = st.one_of(
    st.integers(0, 8),
    st.integers(2**63 - 2, 2**64 + 2),
    st.integers(0, 2**80),
)


def families(vertices=vertex_ids, max_entries=4, max_maps=6, min_entries=0):
    maps = st.dictionaries(vertices, st.integers(0, 1), min_size=min_entries, max_size=max_entries)
    return st.lists(
        maps, max_size=max_maps, unique_by=lambda d: tuple(sorted(d.items()))
    ).map(lambda ms: Family.of(make_partial_map(m.items()) for m in ms))


@SETTINGS
@given(families())
@example(Family.of([]))
@example(Family.of([make_partial_map([])]))
@example(Family.of([make_partial_map([(2**63, 1)]), make_partial_map([(2**64, 0)])]))
def test_serialize_round_trips_with_the_plain_encoder_bytes(family):
    text = serialize(family)
    assert text == slow_serialize(family)
    assert parse(text).family == family


@SETTINGS
@given(families(vertices=st.integers(0, 5), max_entries=3, max_maps=5))
def test_cnf_is_satisfiable_iff_the_family_is_colorable(family):
    if not len(family):
        with pytest.raises(ValueError):
            export_cnf(family)
    elif any(not len(m) for m in family.maps):
        with pytest.raises(EmptyMapPresentError):
            export_cnf(family)
    else:
        assert cnf_satisfiable(export_cnf(family)) == slow_colorable(family)


# Values equal to a vertex id or a bit that are not plain ints.
not_ints = st.one_of(
    st.booleans(),
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.integers(0, 100).map(np.int64),
    st.integers(0, 1).map(np.uint8),
)


@SETTINGS
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(0, 100), not_ints), st.one_of(st.integers(0, 1), not_ints)
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda pair: pair[0],
    ).filter(lambda pairs: any(type(x) is not int for pair in pairs for x in pair))
)
def test_entries_that_are_not_ints_are_rejected(pairs):
    with pytest.raises(ValueError):
        make_partial_map(pairs)


def outcome(f, *args):
    """("ok", repr of the result, the result) or ("raised", class, message)."""
    try:
        result = f(*args)
    except Exception as exc:  # the reference's exception is the expectation
        return ("raised", type(exc), str(exc))
    return ("ok", repr(result), result)


# Vertex ids and bits: plain ints that collide often, reach below 0 and
# above 1, and pass 2^63; and values equal to such ints that are not ints.
plain = st.one_of(st.integers(-2, 6), st.integers(2**63 - 1, 2**63 + 1))
odd = st.one_of(
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.integers(-1, 3).map(np.int64),
    st.integers(0, 1).map(np.uint8),
    st.sampled_from([None, "0"]),
)
pair_lists = st.one_of(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 1)), max_size=5, unique_by=lambda p: p[0]),
    st.lists(st.tuples(plain, st.integers(-1, 2)), max_size=5),
    st.lists(
        st.one_of(
            st.tuples(plain, plain),
            st.tuples(st.one_of(plain, odd), st.one_of(plain, odd)),
            st.lists(st.one_of(plain, odd), max_size=3),
            st.tuples(plain),
            st.tuples(plain, plain, plain),
        ),
        max_size=4,
    ),
)


@SETTINGS
@given(pair_lists)
@example([(3, 1), (0, 0), (3, 1)])
@example([(1, 0), (True, 1)])
@example([(True, 1), (1, 0)])
@example([(0, None), (0, 1)])
@example([(0.0, 1), (-1, 0), (0, 0)])
@example([(5,), (2, 3, 4)])
@example([[2, 1], [0, 0]])
@example([(4, 2), (-1, 0)])
def test_make_partial_map_matches_the_reference(pairs):
    assert outcome(make_partial_map, pairs) == outcome(slow_make_partial_map, pairs)
    assert outcome(make_partial_map, iter(pairs)) == outcome(slow_make_partial_map, pairs)


@SETTINGS
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), max_size=3).map(
            lambda pairs: dict(pairs).items()
        ),
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_family_of_matches_the_reference(entry_sets, rng):
    maps = [make_partial_map(entries) for entries in entry_sets]
    rng.shuffle(maps)
    assert outcome(Family.of, maps) == outcome(slow_family_of, maps)
    assert outcome(Family.of, iter(maps)) == outcome(slow_family_of, maps)


@st.composite
def grouped_families(draw):
    """Families of one to three maps on each of a few domains of 0..3
    vertices out of 0..4: mixed sizes, the empty map and the empty family,
    same-domain pairs and triples."""
    domains = draw(st.lists(st.sets(st.integers(0, 4), max_size=3), max_size=5))
    maps = {}
    for domain in map(sorted, domains):
        bits = st.tuples(*[st.integers(0, 1)] * len(domain))
        for pattern in draw(st.lists(bits, min_size=1, max_size=3, unique=True)):
            maps[tuple(zip(domain, pattern))] = None
    return Family.of(make_partial_map(entries) for entries in maps)


edge_lists = st.lists(st.sets(st.integers(0, 4), max_size=3), max_size=6)


def pm(*pairs):
    return make_partial_map(pairs)


@SETTINGS
@given(grouped_families(), edge_lists)
@example(Family.of([]), [])
@example(Family.of([pm()]), [[]])
@example(Family.of([pm((0, 0), (1, 1), (2, 0)), pm((0, 1), (1, 0), (2, 1))]), [])
@example(Family.of([pm((0, 0), (1, 1)), pm((0, 1), (1, 0)), pm((2, 0))]), [[0, 1]])
@example(Family.of([pm((0, 0)), pm((0, 1)), pm((0, 1), (1, 0)), pm((1, 0), (2, 0))]), [[0]])
def test_by_domain_predicates_match_the_reference(family, edges):
    """classify, domain_hypergraph and the by-domain analysis predicates give
    what the earlier code, which grouped the maps on each call, gives."""
    candidate = Hypergraph.of(edges)
    assert outcome(classify, family) == outcome(slow_classify, family)
    assert outcome(classify, family, candidate) == outcome(slow_classify, family, candidate)
    own = slow_domain_hypergraph(family)
    assert outcome(classify, family, own) == outcome(slow_classify, family, own)
    assert outcome(domain_hypergraph, family) == outcome(slow_domain_hypergraph, family)
    assert outcome(complement_pair_parity_mismatches, family) == outcome(
        slow_complement_pair_parity_mismatches, family
    )
    assert outcome(domination_orphans, family) == outcome(slow_domination_orphans, family)


# Documents for parse: JSON values in every field, valid ones more often.
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
json_pairs = st.tuples(st.integers(-1, 5), st.integers(-1, 2)).map(list)
good_maps = st.lists(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)).map(list), max_size=4),
    max_size=6,
)


def with_reordered_copies(maps):
    """maps plus reversed copies of some of them: equal maps written in
    another order, or the same map twice when it has at most one entry."""
    if not maps:
        return st.just(maps)
    copies = st.lists(st.sampled_from(maps).map(lambda m: m[::-1]), max_size=2)
    return copies.map(lambda extra: maps + extra)


documents = st.fixed_dictionaries(
    {"format_version": st.just("1")},
    optional={
        "source": st.one_of(st.text(max_size=4), json_values),
        "labels": st.one_of(
            st.dictionaries(st.text(max_size=2), st.integers(-1, 9), max_size=3),
            st.dictionaries(st.text(max_size=2), json_values, max_size=3),
            json_values,
        ),
        "maps": st.one_of(
            good_maps.flatmap(with_reordered_copies),
            st.lists(
                st.one_of(st.lists(st.one_of(json_pairs, json_values), max_size=3), json_values),
                max_size=4,
            ),
            json_values,
        ),
        "claimed_properties": st.one_of(
            st.lists(st.fixed_dictionaries({"kind": st.text(max_size=4)}), max_size=3),
            st.lists(json_values, max_size=3),
            json_values,
        ),
        "notes": st.one_of(
            st.dictionaries(st.text(max_size=2), st.text(max_size=3), max_size=3),
            st.dictionaries(st.text(max_size=2), json_values, max_size=3),
            json_values,
        ),
    },
)


@SETTINGS
@given(st.one_of(documents, documents, json_values), st.booleans(), st.booleans())
@example({"format_version": "1", "maps": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}, False, True)
@example({"format_version": 1, "maps": []}, False, True)
@example({"maps": []}, False, False)
@example({"format_version": "1", "maps": [[], []]}, False, True)
@example({"format_version": "1", "maps": [[[0, 1], [0, 1]]]}, False, False)
@example({"format_version": "1", "maps": [[[0, 1]], [[True, 1]]]}, False, True)
def test_parse_matches_the_reference_and_restores_the_collector(doc, truncate, collector_on):
    text = json.dumps(doc)
    if truncate:
        text = text[:-1]
    expected = outcome(slow_parse, text)
    if collector_on:
        gc.enable()
    else:
        gc.disable()
    try:
        got = outcome(parse, text)
        assert gc.isenabled() == collector_on
    finally:
        gc.enable()
    assert got == expected


_DEEP = "[" * 900 + "]" * 900  # a list vertex nested as deep as json.loads allows here


@pytest.mark.parametrize(
    "entries",
    [
        '""', "{}", "[[0, true]]", "[[0, 1], [0, 1.5]]", "[[0, 1], [1]]", "[[0, 1], 5]",
        '[[0, 1], "ab"]', "[[0, 1], [0, 1]]", "[[0, 2]]", "[[-1, 0]]",
        f"[[{_DEEP}, 0], [{_DEEP}, 0]]",
    ],
)
def test_parse_matches_the_reference_on_malformed_maps(entries):
    text = '{"format_version": "1", "maps": [[[0, 1]], ' + entries + "]}"
    expected = outcome(slow_parse, text)
    assert expected[0] == "raised"
    assert outcome(parse, text) == expected


# Entry tuples for canonical keys: families with maps of mixed sizes, unary
# r-uniform families, and families closed under the global flip.
def unary_families(r):
    domains = st.lists(
        st.sampled_from(list(combinations(range(6), r))), max_size=7, unique=True
    )
    return domains.flatmap(
        lambda ds: st.tuples(*(st.tuples(*(st.integers(0, 1),) * r) for _ in ds)).map(
            lambda bits: [tuple(zip(d, b)) for d, b in zip(ds, bits)]
        )
    )


def flip_closed(maps):
    flips = {tuple((v, 1 - bit) for v, bit in m) for m in maps}
    return sorted(set(maps) | flips)


mixed = families(vertices=st.integers(0, 6), max_entries=4, max_maps=6).map(
    lambda family: [m.entries for m in family.maps]
)
key_inputs = st.one_of(
    mixed,
    st.sampled_from((1, 2, 3)).flatmap(unary_families),
    st.one_of(mixed, unary_families(2)).map(flip_closed),
)


@SETTINGS
@given(key_inputs)
@example([])
@example([()])
@example([((0, 0),), ((0, 1),)])
def test_key_of_entries_matches_the_reference(maps):
    assert outcome(_key_of_entries, maps) == outcome(slow_key_of_entries, maps)


# Claims of every kind: each field a kind reads is there or missing, and of
# its own type or not.  One vertex id in ten is 6, which the universe, a
# subset of 0 .. 5, never holds; the others come from the universe.
mistyped = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.text(max_size=2),
    st.lists(st.one_of(st.integers(0, 6), st.booleans(), st.text(max_size=1)), max_size=3),
    st.lists(st.lists(st.integers(0, 6), max_size=3), max_size=3),
)


def pick(*options):
    return st.sampled_from(options).flatmap(lambda s: s)


def claims(universe):
    ids = pick(*[st.sampled_from(universe) if universe else st.just(6)] * 9, st.just(6))
    vs = st.sampled_from([2, 0, 1, 2, 3]).flatmap(lambda k: st.lists(ids, min_size=k, max_size=k))
    vs = st.one_of(vs, vs.map(tuple))
    pairs = st.lists(st.lists(ids, min_size=2, max_size=2), max_size=3)
    number = st.integers(-1, 20)
    fields = {
        "map-count": {"value": number},
        "universe-size": {"value": number},
        "uniform": {"r": st.integers(0, 3)},
        "unary": {},
        "binary": {},
        "valid-cover": {"edges": st.integers(0, 4)},
        "weight": {"value": st.sampled_from(["0", "1/2", "1"])},
        "transversal-domains": {"pairs": pairs},
        "sampled-no-coloring": {"trials": st.integers(0, 20), "seed": st.integers(0, 3)},
        "multiplicity-histogram": {
            "histogram": st.dictionaries(
                st.sampled_from(["0", "1", "2"]), st.integers(0, 64), max_size=3
            )
        },
        "no-coloring": {},
        "colorable": {},
        "coloring-count": {"value": number},
        "forces-equal": {"vertices": vs},
        "forces-distinct": {"vertices": st.lists(ids, min_size=2, max_size=2)},
        "pair-disagreement": {"pairs": pairs},
        "odd-ones": {"vertices": vs},
        "constant-implies-constant": {"src": vs, "dst": vs},
        "never-both-constant": {"left": vs, "right": vs},
        "constant-side": {"left": vs, "right": vs},
        "mystery": {"vertices": vs},
    }

    def of_kind(kind):
        # Three in four fields are well typed; one in three claims may lack some.
        own = {name: pick(good, good, good, mistyped) for name, good in fields[kind].items()}
        every = st.fixed_dictionaries({"kind": st.just(kind), **own})
        return pick(every, every, st.fixed_dictionaries({"kind": st.just(kind)}, optional=own))

    return st.sampled_from(list(fields)).flatmap(of_kind)


# Maps of two or three entries leave most families colorable.
family_with_claims = st.one_of(
    families(vertices=st.integers(0, 5), max_entries=3, max_maps=6),
    families(vertices=st.integers(0, 5), max_entries=3, max_maps=4, min_entries=2),
).flatmap(
    lambda family: st.tuples(
        st.just(family), st.lists(claims(family.universe), min_size=1, max_size=4)
    )
)


@settings(SETTINGS, max_examples=300)
@given(family_with_claims, st.sampled_from([None, "2"]))
@example(
    (Family.of([make_partial_map([(0, 0)])]), [{"kind": "odd-ones", "vertices": []}]), None
)
@example(
    (
        Family.of([make_partial_map([(0, 0), (1, 1), (2, 0)])]),
        [{"kind": "pair-disagreement", "pairs": []}, {"kind": "forces-equal", "vertices": [0, 9]}],
    ),
    "2",
)
@example(
    (
        Family.of([make_partial_map([(0, 0), (1, 1), (2, 0)])]),
        [{"kind": "pair-disagreement", "pairs": [[0, 1], [1, 9]]}],
    ),
    "2",
)
def test_check_claim_matches_the_reference(family_and_claims, table_limit):
    """check_claim and check_claims give what slow_check_claim gives: the
    same result, or the same exception type and message; under a table
    limit of 2, so do the kinds that would build a table too large."""
    family, claim_list = family_and_claims
    saved = os.environ.get("DPCOVER_PARITY_LIMIT")
    if table_limit is not None:
        os.environ["DPCOVER_PARITY_LIMIT"] = table_limit
    try:
        for claim in claim_list:
            assert outcome(check_claim, family, claim) == outcome(slow_check_claim, family, claim)
        expected = outcome(lambda: tuple(slow_check_claim(family, c) for c in claim_list))
        assert outcome(check_claims, family, claim_list) == expected
    finally:
        if saved is None:
            os.environ.pop("DPCOVER_PARITY_LIMIT", None)
        else:
            os.environ["DPCOVER_PARITY_LIMIT"] = saved


def test_transversal_domains_matches_the_reference():
    """check_claim's transversal-domains, which counts the transversals
    before it builds any, against slow_check_claim, which builds them all, on
    20 000 seeded cases: pairs that share vertices or repeat one ([v, v]),
    and families whose domains are the transversals, with one dropped or one
    added, or random."""
    rng = random.Random(18)
    for _ in range(20_000):
        pairs = [[rng.randrange(7), rng.randrange(7)] for _ in range(rng.randrange(5))]
        transversals = {tuple(sorted(set(c))) for c in product(*pairs) if len(set(c)) == len(c)}
        domains = list(transversals) if rng.random() < 0.7 else []
        rng.shuffle(domains)
        if domains and rng.random() < 0.3:
            domains.pop()
        if rng.random() < 0.3:
            domains.append(tuple(sorted(rng.sample(range(7), rng.randrange(4)))))
        maps = {tuple((v, rng.randrange(2)) for v in d) for d in domains for _ in range(2)}
        family = Family.of([make_partial_map(m) for m in maps])
        claim = {"kind": "transversal-domains", "pairs": pairs}
        assert check_claim(family, claim) == slow_check_claim(family, claim), (pairs, maps)
