"""Property tests: serialize/parse round trips, CNF export and entry types."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpcover.cli import export_cnf, parse, serialize
from dpcover.core import Family, make_partial_map
from dpcover.errors import EmptyMapPresentError

from oracles import cnf_satisfiable, slow_colorable, slow_serialize

SETTINGS = settings(max_examples=150, deadline=None, database=None)

# Small ids collide often; the others reach past 2^63 and 2^64.
vertex_ids = st.one_of(
    st.integers(0, 8),
    st.integers(2**63 - 2, 2**64 + 2),
    st.integers(0, 2**80),
)


def families(vertices=vertex_ids, max_entries=4, max_maps=6):
    maps = st.dictionaries(vertices, st.integers(0, 1), max_size=max_entries)
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
