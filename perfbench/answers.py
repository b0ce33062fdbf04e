"""Known answers, computed by the benchmark itself and never read off dpcover.

Expected verdicts come from the stated mathematics of the named families
(`gadget_facts`) or from the small brute force below, which marks each map's
subcube of the (2,)*n coloring cube directly; it shares no code with
dpcover's mask scan.  A coloring code packs the colors of the sorted
universe: bit i colors the i-th smallest vertex.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

Map = list[tuple[int, int]]

PLAIN_FACTS = {
    # name: (maps, vertices, uniformity, colorings or None when only a brute force knows)
    "k43": (8, 4, 3, 0),
    "k54-neq": (10, 5, 4, None),
    "k54-eq": (10, 5, 4, None),
    "four-uniform-10": (20, 8, 4, 0),
    "nine-edge": (18, 7, 5, None),
    "copy": (6, 6, 5, None),
    "two-edge": (4, 6, 5, None),
    "five-uniform-17": (34, 10, 5, 0),
}


def _unary_even_size(r: int) -> tuple[int, int]:
    return (1 << r) + (1 << (r // 2)), 2 * r


def _double_unary_size(r: int) -> tuple[int, int]:
    return (1 << r) + (1 << ((r + 1) // 2)), 4 * (r - 1) + 1


def gadget_facts(name: str, r: int | None) -> dict:
    """Stated size, uniformity and coloring count of a built-in gadget.

    binary(r): 2^r maps on 2^r - 1 vertices, no coloring; parity(r): 2^r maps
    on 2r vertices, 2^(r-1) colorings; unary-even(r): 2^r + 2^(r/2) maps on
    2r vertices; double-unary(r): 2^r + 2^((r+1)/2) maps on 4(r-1) + 1
    vertices; lifted-cover(r): twice its base family (unary-even(r-1) or
    double-unary(r-1)) plus one pivot.  The last three have no coloring.
    Every gadget's universe is 0 .. n-1 and its weight is maps / 2^r.
    """
    if name in PLAIN_FACTS:
        maps, n, uniformity, colorings = PLAIN_FACTS[name]
    elif name == "binary":
        maps, n, uniformity, colorings = 1 << r, (1 << r) - 1, r, 0
    elif name == "parity":
        maps, n, uniformity, colorings = 1 << r, 2 * r, r, 1 << (r - 1)
    elif name == "unary-even":
        (maps, n), uniformity, colorings = _unary_even_size(r), r, 0
    elif name == "double-unary":
        (maps, n), uniformity, colorings = _double_unary_size(r), r, 0
    elif name == "lifted-cover":
        base = r - 1
        base_maps, base_n = (_unary_even_size if base % 2 == 0 else _double_unary_size)(base)
        maps, n, uniformity, colorings = 2 * base_maps, base_n + 1, r, 0
    else:
        raise ValueError(f"no stated facts for gadget {name!r}")
    return {
        "maps": maps,
        "n": n,
        "uniformity": uniformity,
        "colorings": colorings,
        "weight": Fraction(maps, 1 << uniformity),
    }


def parity_first_witness(r: int) -> int:
    """Smallest avoiding code of parity_gadget(r).

    Avoiding colorings split every pair (x_i, y_i) = (i, r + i) and put an odd
    number of ones on the x's, so the code is X + (2^r - 1 - X) * 2^r for an
    X of odd popcount.  The high half falls as X grows, so the smallest code
    takes the largest such X: 2^r - 1 for odd r, 2^r - 2 for even r.
    """
    x = (1 << r) - 1 if r % 2 else (1 << r) - 2
    return x + (((1 << r) - 1 - x) << r)


def parity_avoiding_codes(r: int) -> list[int]:
    """Every avoiding code of parity_gadget(r), ascending."""
    full = (1 << r) - 1
    return sorted(x + ((full - x) << r) for x in range(1 << r) if x.bit_count() % 2)


def universe(maps: list[Map]) -> list[int]:
    return sorted({v for m in maps for v, _ in m})


def multiplicities(maps: list[Map]) -> np.ndarray:
    """How many maps each coloring code contains, by marking subcubes."""
    vertices = universe(maps)
    n = len(vertices)
    axis = {v: n - 1 - i for i, v in enumerate(vertices)}  # C order: last axis is bit 0
    cube = np.zeros((2,) * n, dtype=np.int32)
    for m in maps:
        index = [slice(None)] * n
        for v, b in m:
            index[axis[v]] = b
        cube[tuple(index)] += 1
    return cube.reshape(-1)


def avoiding_codes(maps: list[Map]) -> np.ndarray:
    return np.flatnonzero(multiplicities(maps) == 0)


def avoids_all(maps: list[Map], color: dict[int, int]) -> bool:
    return not any(all(color[v] == b for v, b in m) for m in maps)


def code_avoids_all(maps: list[Map], code: int) -> bool:
    vertices = universe(maps)
    return avoids_all(maps, {v: (code >> i) & 1 for i, v in enumerate(vertices)})


def parity_lhs(maps: list[Map], subset: tuple[int, ...]) -> Fraction:
    """w(even side) - w(odd side) of the split of the maps whose domain holds S."""
    total = Fraction(0)
    for m in maps:
        d = dict(m)
        if all(v in d for v in subset):
            sign = -1 if sum(d[v] for v in subset) % 2 else 1
            total += sign * Fraction(1, 1 << len(m))
    return total


def audit_verdict(family_weight: Fraction, colorable: bool) -> str:
    """The weight-one audit's verdict, by its mathematics.

    Clauses are reported in order.  A weight-1 family with no coloring has
    every coloring contain exactly one map (multiplicities are >= 1 and sum
    to 2^n), and then the parity identity makes every nonempty S balanced.
    """
    if family_weight != 1:
        return "violated:weight-is-one"
    if colorable:
        return "violated:no-coloring"
    return "consistent"


def is_noncolorable(maps: list[Map]) -> bool:
    return not avoiding_codes(maps).size
