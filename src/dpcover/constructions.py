"""Gadget generators: explicit families with labels and machine-checkable claims.

Each generator returns a GadgetOutput bundling the family, a name-to-vertex
label table, a self-describing source string, claim descriptors that the
analysis module can verify by direct computation, and free-form notes.  Tables
are embedded as literal row strings over a fixed column order ('_' marks an
unconstrained vertex), so they can be proofread character by character.
Index arithmetic is written with explicit `% r`; residues are never negative.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import analysis
from .core import (
    Family,
    PartialMap,
    VertexId,
    _partial_map,
    make_partial_map,
    relabel_family,
)
from .errors import (
    NotUnaryError,
    OddRError,
    OverlappingTriplesError,
    PartnerCollisionError,
    UniverseOverlapError,
)

# The seeded stream behind every sampled non-colorability claim.
_SAMPLED_CLAIM_TRIALS = 2000
_SAMPLED_CLAIM_SEED = 0x5EED

_MAX_MAPS = 1 << 20  # the most maps a parametric generator builds


def _check_map_count(name: str, r: int, maps: Callable[[int], int]) -> None:
    """Raise ValueError before `name` builds maps(r) > _MAX_MAPS maps.  Each
    generator builds at least 2^r, so a larger r is refused before maps(r) is formed."""
    if r >= _MAX_MAPS.bit_length() or maps(r) > _MAX_MAPS:
        raise ValueError(f"{name}(r={r}) would have more than {_MAX_MAPS} maps")


@dataclass
class GadgetOutput:
    family: Family
    labels: dict[str, VertexId]
    source: str
    claimed_properties: list[dict] = field(default_factory=list)
    notes: dict[str, str] = field(default_factory=dict)


def _from_rows(columns: Sequence[VertexId], rows: Iterable[str]) -> list[PartialMap]:
    maps = []
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row {row!r} does not match {len(columns)} columns")
        maps.append(
            make_partial_map(
                (columns[i], int(ch)) for i, ch in enumerate(row) if ch != "_"
            )
        )
    return maps


def _shape_claims(family: Family, *, uniform: int, edges: int | None = None) -> list[dict]:
    claims: list[dict] = [
        {"kind": "uniform", "r": uniform},
        {"kind": "map-count", "value": len(family)},
        {"kind": "universe-size", "value": len(family.universe)},
    ]
    if edges is not None:
        claims.append({"kind": "valid-cover", "edges": edges})
    return claims


def _noncolorability_claim(family: Family) -> tuple[dict, str]:
    """An exhaustive claim at desk scale, a seeded sampling claim beyond it;
    the only code that chooses between the two."""
    if len(family.universe) <= analysis.DEFAULT_PARITY_LIMIT:
        return {"kind": "no-coloring"}, "certified-by-enumeration"
    return (
        {
            "kind": "sampled-no-coloring",
            "trials": _SAMPLED_CLAIM_TRIALS,
            "seed": _SAMPLED_CLAIM_SEED,
        },
        "trusted",
    )


# ---------------------------------------------------------------------------
# Fixed tables.
# ---------------------------------------------------------------------------

# Columns x0 x1 x2 y.  Two complementary maps per 3-vertex edge of the
# complete 3-uniform hypergraph on 4 vertices; total weight 8 * 1/8 = 1.
_K43_ROWS = (
    "000_", "111_",
    "01_0", "10_1",
    "1_00", "0_11",
    "_010", "_101",
)

# Columns x0 x1 x2 y0 y1.  Ten maps, two per 4-vertex edge of the complete
# 4-uniform hypergraph on 5 vertices.  Every coloring avoiding the first
# table gives y0 and y1 distinct colors; the second forces them equal.
_K54_NEQ_ROWS = (
    "01_00", "10_11",
    "1_000", "0_111",
    "_0100", "_1011",
    "0000_", "1111_",
    "000_1", "111_0",
)
_K54_EQ_ROWS = (
    "01_01", "10_10",
    "1_001", "0_110",
    "_0101", "_1010",
    "0000_", "1111_",
    "000_0", "111_1",
)

# Columns x0 x1 x2 y0 y1 y2.  Any avoiding coloring constant on the x-triple
# is constant on the y-triple.
_COPY_ROWS = (
    "00001_", "11110_",
    "0001_0", "1110_1",
    "000_01", "111_10",
)

# Columns y0 y1 y2 z0 z1 z2.  No avoiding coloring is constant on both triples.
_TWO_EDGE_ROWS = (
    "00_000", "11_111",
    "_11000", "_00111",
)


def k43_cover() -> GadgetOutput:
    """Weight-1 non-colorable 2-fold cover of the complete 3-uniform hypergraph on 4 vertices."""
    labels = {"x0": 0, "x1": 1, "x2": 2, "y": 3}
    family = Family.of(_from_rows((0, 1, 2, 3), _K43_ROWS))
    claims = _shape_claims(family, uniform=3, edges=4)
    claims.append({"kind": "weight", "value": "1"})
    claims.append(_noncolorability_claim(family)[0])
    return GadgetOutput(family, labels, "gadget:k43-cover", claims)


def _k54_labels() -> dict[str, VertexId]:
    return {"x0": 0, "x1": 1, "x2": 2, "y0": 3, "y1": 4}


def k54_neq_cover() -> GadgetOutput:
    """Cover of the complete 4-uniform hypergraph on 5 vertices forcing f(y0) != f(y1)."""
    labels = _k54_labels()
    family = Family.of(_from_rows((0, 1, 2, 3, 4), _K54_NEQ_ROWS))
    claims = _shape_claims(family, uniform=4, edges=5)
    claims.append({"kind": "colorable"})
    claims.append({"kind": "forces-distinct", "vertices": [3, 4]})
    return GadgetOutput(family, labels, "gadget:k54-neq-cover", claims)


def k54_eq_cover() -> GadgetOutput:
    """Cover of the complete 4-uniform hypergraph on 5 vertices forcing f(y0) = f(y1)."""
    labels = _k54_labels()
    family = Family.of(_from_rows((0, 1, 2, 3, 4), _K54_EQ_ROWS))
    claims = _shape_claims(family, uniform=4, edges=5)
    claims.append({"kind": "colorable"})
    claims.append({"kind": "forces-equal", "vertices": [3, 4]})
    return GadgetOutput(family, labels, "gadget:k54-eq-cover", claims)


def four_uniform_10() -> GadgetOutput:
    """Non-colorable 4-uniform cover with 10 edges on 8 vertices.

    Two complete 4-uniform blocks share the pair {y0, y1}: the first block
    carries the inequality table, the second the equality table, so no
    coloring can satisfy both.  The blocks are edge-disjoint.
    """
    labels = {
        "x0_0": 0, "x0_1": 1, "x0_2": 2,
        "x1_0": 3, "x1_1": 4, "x1_2": 5,
        "y0": 6, "y1": 7,
    }
    block0 = _from_rows((0, 1, 2, 6, 7), _K54_NEQ_ROWS)
    block1 = _from_rows((3, 4, 5, 6, 7), _K54_EQ_ROWS)
    family = Family.of(block0 + block1)
    claims = _shape_claims(family, uniform=4, edges=10)
    claims.append(_noncolorability_claim(family)[0])
    return GadgetOutput(family, labels, "gadget:four-uniform-10", claims)


def nine_edge_gadget() -> GadgetOutput:
    """The 9-edge block on two triples and a shared vertex.

    Edges are the 5-sets meeting each triple in exactly two consecutive
    vertices plus v; every avoiding coloring is constant on the x-triple or
    constant on the y-triple.
    """
    xs, ys, v = (0, 1, 2), (3, 4, 5), 6
    labels = {"x0": 0, "x1": 1, "x2": 2, "y0": 3, "y1": 4, "y2": 5, "v": 6}
    family = Family.of(_nine_edge_maps(xs, ys, v))
    claims = _shape_claims(family, uniform=5, edges=9)
    claims.append({"kind": "colorable"})
    claims.append({"kind": "constant-side", "left": list(xs), "right": list(ys)})
    return GadgetOutput(family, labels, "gadget:nine-edge", claims)


def _nine_edge_maps(
    xs: Sequence[VertexId], ys: Sequence[VertexId], v: VertexId
) -> list[PartialMap]:
    maps = []
    for i in range(3):
        for j in range(3):
            base = [
                (xs[i], 0),
                (xs[(i + 1) % 3], 1),
                (ys[j], 0),
                (ys[(j + 1) % 3], 1),
                (v, 0),
            ]
            phi = make_partial_map(base)
            maps.append(phi)
            maps.append(phi.complement())
    return maps


def copy_gadget(src: Sequence[VertexId], dst: Sequence[VertexId]) -> GadgetOutput:
    """Three edges over two disjoint triples: constant on src forces constant on dst."""
    src, dst = tuple(src), tuple(dst)
    if len(src) != 3 or len(dst) != 3:
        raise ValueError("src and dst must be triples")
    if len(set(src)) != 3 or len(set(dst)) != 3 or set(src) & set(dst):
        raise OverlappingTriplesError(f"triples {src} and {dst} must be disjoint")
    labels = {f"x{i}": src[i] for i in range(3)} | {f"y{i}": dst[i] for i in range(3)}
    family = Family.of(_from_rows(src + dst, _COPY_ROWS))
    claims = _shape_claims(family, uniform=5, edges=3)
    claims.append({"kind": "colorable"})
    claims.append({"kind": "constant-implies-constant", "src": list(src), "dst": list(dst)})
    return GadgetOutput(family, labels, "gadget:copy", claims)


def two_edge_gadget() -> GadgetOutput:
    """Two edges over two disjoint triples: no avoiding coloring is constant on both."""
    ys, zs = (0, 1, 2), (3, 4, 5)
    labels = {"y0": 0, "y1": 1, "y2": 2, "z0": 3, "z1": 4, "z2": 5}
    family = Family.of(_from_rows(ys + zs, _TWO_EDGE_ROWS))
    claims = _shape_claims(family, uniform=5, edges=2)
    claims.append({"kind": "colorable"})
    claims.append({"kind": "never-both-constant", "left": list(ys), "right": list(zs)})
    return GadgetOutput(family, labels, "gadget:two-edge", claims)


def five_uniform_17() -> GadgetOutput:
    """Non-colorable 5-uniform cover with 17 = 9 + 3 + 3 + 2 edges on 10 vertices.

    The 9-edge block leaves one triple constant; two copy blocks push the
    constant from the x-triple to the y-triple and on to the z-triple; the
    2-edge block refuses colorings constant on both y and z.  The four blocks
    are pairwise edge-disjoint.
    """
    xs, ys, zs, v = (0, 1, 2), (3, 4, 5), (6, 7, 8), 9
    labels = (
        {f"x{i}": xs[i] for i in range(3)}
        | {f"y{i}": ys[i] for i in range(3)}
        | {f"z{i}": zs[i] for i in range(3)}
        | {"v": v}
    )
    maps = _nine_edge_maps(xs, ys, v)
    maps += _from_rows(xs + ys, _COPY_ROWS)
    maps += _from_rows(ys + zs, _COPY_ROWS)
    maps += _from_rows(ys + zs, _TWO_EDGE_ROWS)
    family = Family.of(maps)
    claims = _shape_claims(family, uniform=5, edges=17)
    claims.append(_noncolorability_claim(family)[0])
    return GadgetOutput(family, labels, "gadget:five-uniform-17", claims)


def join_with_pivot(side0: Family, side1: Family, pivot: VertexId) -> Family:
    """Tag side0's maps with (pivot, 0) and side1's with (pivot, 1), then union.

    Requires disjoint universes with the pivot fresh.  The result is binary
    whenever both sides are, and non-colorable whenever both sides are: a
    coloring restricted to the side selected by its pivot color must contain
    one of that side's maps.
    """
    u0, u1 = set(side0.universe), set(side1.universe)
    if u0 & u1:
        raise UniverseOverlapError(f"universes share {sorted(u0 & u1)}")
    if pivot in u0 or pivot in u1:
        raise UniverseOverlapError(f"pivot {pivot} lies inside a side universe")
    tagged = [
        make_partial_map(m.entries + ((pivot, 0),)) for m in side0.maps
    ] + [
        make_partial_map(m.entries + ((pivot, 1),)) for m in side1.maps
    ]
    return Family.of(tagged)


def _binary_entries(r: int) -> list[tuple[tuple[int, int], ...]]:
    """Entry tuples of the recursion, in sorted order, in closed form.

    Map i takes bit (i >> (j-1)) & 1 at level j, on the vertex base_j + 2^j - 2
    (the level-j pivot, or the lone vertex at j = 1).  base_r = 0, and each
    level k above j adds bit_k * (2^(k-1) - 1) to base_j, since side1 of a
    level-k join is side0 shifted by that much.  The pivot exceeds every side
    vertex and side0 precedes side1, so the tuples come out sorted.  Cost: r
    numpy passes over the 2^r map indices, then r * 2^r lookups into the
    2 * (2^r - 1) shared (vertex, bit) pairs and one zip over the r columns,
    all in C; only those pairs and the 2^r entry tuples are allocated.
    """
    index = np.arange(1 << r, dtype=np.int64)
    offset = np.zeros(1 << r, dtype=np.int64)
    pairs = [(v, bit) for v in range((1 << r) - 1) for bit in (0, 1)]
    columns = [None] * r
    for j in range(r, 0, -1):
        bit = (index >> (j - 1)) & 1
        code = 2 * (offset + (1 << j) - 2) + bit
        columns[j - 1] = list(map(pairs.__getitem__, code.tolist()))
        offset += bit * ((1 << (j - 1)) - 1)
    return list(zip(*columns))


def binary_family(r: int) -> GadgetOutput:
    """The recursive binary r-uniform family: 2^r maps on 2^r - 1 vertices, weight 1.

    Built by joining two disjoint (r-1)-families through a fresh pivot; no
    coloring avoids every map, and every coloring contains exactly one.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    _check_map_count("binary", r, lambda r: 1 << r)
    # The closed form emits valid entries, with the maps sorted and distinct.
    family = Family(tuple(map(_partial_map, _binary_entries(r))))
    labels = {"pivot": (1 << r) - 2}
    claims = _shape_claims(family, uniform=r)
    claims.append({"kind": "binary"})
    claims.append({"kind": "weight", "value": "1"})
    nc_claim, mode = _noncolorability_claim(family)
    claims.append(nc_claim)
    notes = {"noncolorability": mode, "recursion": "side0, side1, then pivot = 2^r - 2"}
    return GadgetOutput(family, labels, f"gadget:binary(r={r})", claims, notes)


def binary_family_profile(r: int) -> dict[str, int]:
    """Size profile of binary_family(r) by the recurrence, without materializing maps.

    universe(r) = 2 * universe(r-1) + 1 (two disjoint copies plus the pivot),
    maps(r) = 2 * maps(r-1), uniformity grows by one per join.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    universe, maps = 1, 2
    for _ in range(r - 1):
        universe = 2 * universe + 1
        maps = 2 * maps
    return {"universe_size": universe, "map_count": maps, "uniformity": r}


def _parity_maps(pairs: Sequence[tuple[VertexId, VertexId]]) -> list[PartialMap]:
    """One map per transversal of the ordered pair list.

    For the transversal choosing element t[i] of pair i, the value at that
    vertex is t[(i + 1) % r]: 0 when the next pair contributes its first
    element, 1 when it contributes its second.
    """
    r = len(pairs)
    maps = []
    for choice in product((0, 1), repeat=r):
        entries = [
            (pairs[i][choice[i]], choice[(i + 1) % r]) for i in range(r)
        ]
        maps.append(make_partial_map(entries))
    return maps


def parity_gadget(r: int) -> GadgetOutput:
    """Unary family on r vertex pairs whose avoiding colorings split every pair
    and put an odd number of ones on the first elements.

    Domains are exactly the 2^r transversals of the pairs; the avoiding
    colorings are exactly the 2^(r-1) pair-splitting colorings of odd first-
    element weight, so the coloring count is pinned as a claim.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    _check_map_count("parity", r, lambda r: 1 << r)
    pairs = [(i, r + i) for i in range(r)]
    labels = {f"x{i}": i for i in range(r)} | {f"y{i}": r + i for i in range(r)}
    family = Family.of(_parity_maps(pairs))
    claims = _shape_claims(family, uniform=r)
    claims.append({"kind": "unary"})
    claims.append({"kind": "transversal-domains", "pairs": [list(p) for p in pairs]})
    claims.append({"kind": "colorable"})
    claims.append({"kind": "coloring-count", "value": 1 << (r - 1)})
    claims.append({"kind": "pair-disagreement", "pairs": [list(p) for p in pairs]})
    claims.append({"kind": "odd-ones", "vertices": list(range(r))})
    notes = {"pair-order": "pairs are (x_i, y_i) for i = 0 .. r-1"}
    return GadgetOutput(family, labels, f"gadget:parity(r={r})", claims, notes)


def uniformize(family: Family, pair_map: Mapping[VertexId, VertexId]) -> Family:
    """Extend every map by the complementary value on each domain vertex's partner.

    pair_map must be a fixed-point-free involution defined on every domain
    vertex.  Raises PartnerCollisionError when a map already constrains a
    partner it would receive.
    """
    for u, w in pair_map.items():
        if u == w or pair_map.get(w) != u:
            raise ValueError("pair_map must be a fixed-point-free involution")
    out = []
    for m in family.maps:
        extra = []
        dom = set(m.domain)
        for u, bit in m.entries:
            if u not in pair_map:
                raise ValueError(f"vertex {u} has no partner")
            partner = pair_map[u]
            if partner in dom:
                raise PartnerCollisionError(
                    f"map {m.entries} already constrains partner {partner}"
                )
            extra.append((partner, 1 - bit))
        out.append(make_partial_map(list(m.entries) + extra))
    return Family.of(out)


def unary_upper_even(r: int) -> GadgetOutput:
    """Unary non-colorable r-uniform family of size 2^r + 2^(r/2) on 2r vertices, r even.

    Four blocks of l = r/2 vertices: X, Y, Z, W.  A big parity family over the
    pairs (x_i, y_i) then (z_i, w_i) forces split pairs with an odd number of
    ones on X + Z; a small parity family over (x_i, w_i), uniformized through
    the partner map x<->y, z<->w, contradicts that parity.  Domains of the two
    blocks never coincide (transversals versus pair-complete sets).
    """
    if r < 2 or r % 2:
        raise OddRError("r must be even and >= 2")
    _check_map_count("unary-even", r, lambda r: (1 << r) + (1 << r // 2))
    half = r // 2
    xs = list(range(0, half))
    ys = list(range(half, 2 * half))
    zs = list(range(2 * half, 3 * half))
    ws = list(range(3 * half, 4 * half))
    labels = (
        {f"x{i}": xs[i] for i in range(half)}
        | {f"y{i}": ys[i] for i in range(half)}
        | {f"z{i}": zs[i] for i in range(half)}
        | {f"w{i}": ws[i] for i in range(half)}
    )
    big_pairs = [(xs[i], ys[i]) for i in range(half)] + [(zs[i], ws[i]) for i in range(half)]
    small_pairs = [(xs[i], ws[i]) for i in range(half)]
    partner = {xs[i]: ys[i] for i in range(half)} | {ys[i]: xs[i] for i in range(half)}
    partner |= {zs[i]: ws[i] for i in range(half)} | {ws[i]: zs[i] for i in range(half)}
    big = Family.of(_parity_maps(big_pairs))
    small = uniformize(Family.of(_parity_maps(small_pairs)), partner)
    family = Family.of(list(big.maps) + list(small.maps))
    claims = _shape_claims(family, uniform=r)
    claims.append({"kind": "unary"})
    claims.append(_noncolorability_claim(family)[0])
    notes = {"pair-order": "(x_i, y_i) for i < r/2, then (z_i, w_i)"}
    return GadgetOutput(family, labels, f"gadget:unary-even(r={r})", claims, notes)


def lift_to_cover(family: Family, pivot: VertexId | None = None) -> GadgetOutput:
    """Pair every map with its complement through a fresh pivot vertex.

    Input: a unary uniform family with no avoiding coloring.  Output: a 2-fold
    cover (edge count = input size, two complementary maps per edge) with
    uniformity one higher, again with no avoiding coloring.  The input's
    non-colorability is checked by enumeration at desk scale and trusted
    above it (recorded in notes).
    """
    profile = analysis.classify(family)
    if not profile.is_unary:
        raise NotUnaryError("input family must have pairwise distinct domains")
    if profile.uniformity is None:
        raise ValueError("input family must be uniform")
    universe = family.universe
    if pivot is None:
        pivot = (max(universe) + 1) if universe else 0
    if pivot in universe:
        raise UniverseOverlapError(f"pivot {pivot} lies inside the input universe")
    claim, mode = _noncolorability_claim(family)
    if claim["kind"] == "no-coloring" and not analysis.check_claim(family, claim).ok:
        raise ValueError("input family admits an avoiding coloring")
    lifted = [make_partial_map(m.entries + ((pivot, 0),)) for m in family.maps]
    lifted += [make_partial_map(m.complement().entries + ((pivot, 1),)) for m in family.maps]
    out = Family.of(lifted)
    labels = {"pivot": pivot}
    claims = _shape_claims(out, uniform=profile.uniformity + 1, edges=len(family))
    claims.append(_noncolorability_claim(out)[0])
    notes = {"input-noncolorability": mode}
    return GadgetOutput(out, labels, "gadget:lifted-cover", claims, notes)


def double_unary(side0: Family, side1: Family, pivot: VertexId) -> Family:
    """join_with_pivot restricted to unary inputs; the result is unary.

    Size is the sum of the input sizes, and the join is non-colorable whenever
    both inputs are.
    """
    for side in (side0, side1):
        if not analysis.classify(side).is_unary:
            raise NotUnaryError("both inputs must have pairwise distinct domains")
    return join_with_pivot(side0, side1, pivot)


def double_unary_gadget(r: int) -> GadgetOutput:
    """Unary non-colorable r-uniform family for odd r: two disjoint relabeled
    copies of unary_upper_even(r - 1) joined through a fresh pivot.

    Size is 2 * (2^(r-1) + 2^((r-1)/2)) = 2^r + 2^((r+1)/2).
    """
    if r < 3 or r % 2 == 0:
        raise OddRError("r must be odd and >= 3")
    _check_map_count("double-unary", r, lambda r: (1 << r) + (1 << (r + 1) // 2))
    block = unary_upper_even(r - 1)
    width = 2 * (r - 1)
    copy0 = block.family
    copy1 = relabel_family(block.family, {v: v + width for v in block.family.universe})
    pivot = 2 * width
    family = double_unary(copy0, copy1, pivot)
    labels = {"pivot": pivot}
    claims = _shape_claims(family, uniform=r)
    claims.append({"kind": "unary"})
    nc_claim, mode = _noncolorability_claim(family)
    claims.append(nc_claim)
    notes = {"blocks": f"two copies of unary-even(r={r - 1}), second shifted by {width}",
             "noncolorability": mode}
    return GadgetOutput(family, labels, f"gadget:double-unary(r={r})", claims, notes)
