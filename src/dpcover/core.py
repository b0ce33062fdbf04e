"""Value types: partial maps, families, hypergraphs, colorings, and classification.

A partial map assigns bits to finitely many nonnegative integer vertices and is
identified with its graph, stored as a vertex-sorted tuple of (vertex, bit)
pairs.  A family is a duplicate-free collection of partial maps with set
semantics.  A coloring is a total bit assignment on a sorted universe, packed
into an integer: bit i of `bits` is the color of the i-th vertex in sorted
universe order.  A coloring f "avoids" a map phi when phi is not a subset of f;
f colors a family when it avoids every member.  Everything here is immutable
and pure.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .errors import (
    DuplicateMapError,
    DuplicateVertexError,
    OutOfUniverseError,
)

VertexId = int


@dataclass(frozen=True, order=True)
class PartialMap:
    """A partial 0/1 assignment; `entries` is sorted by vertex and duplicate-free.

    Vertex ids and values are plain ints (not bools, floats or numpy
    scalars), as a parsed document's are.
    """

    entries: tuple[tuple[VertexId, int], ...]

    def __post_init__(self) -> None:
        _check_entries(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def domain(self) -> tuple[VertexId, ...]:
        return tuple(v for v, _ in self.entries)

    def value(self, vertex: VertexId) -> int:
        for v, bit in self.entries:
            if v == vertex:
                return bit
        raise KeyError(vertex)

    def complement(self) -> "PartialMap":
        """Pointwise flip on the same domain; an involution."""
        return PartialMap(tuple((v, 1 - bit) for v, bit in self.entries))

    def as_dict(self) -> dict[VertexId, int]:
        return dict(self.entries)


def _check_entries(entries: Iterable[tuple[VertexId, int]]) -> None:
    """Raise ValueError at the first (vertex, bit) pair that is not two plain
    ints, has a negative vertex, does not follow the previous vertex, or has
    a bit other than 0 or 1."""
    last = -1
    for vertex, bit in entries:
        if type(vertex) is not int or type(bit) is not int:
            raise ValueError(
                f"vertex ids and values must be plain ints, got ({vertex!r}, {bit!r})"
            )
        if vertex < 0:
            raise ValueError(f"vertex ids must be nonnegative, got {vertex}")
        if vertex <= last:
            raise ValueError("entries must be strictly sorted by vertex")
        if bit not in (0, 1):
            raise ValueError(f"values must be 0 or 1, got {bit!r}")
        last = vertex


def _partial_map(entries: tuple[tuple[VertexId, int], ...]) -> PartialMap:
    """A PartialMap whose entries the caller has already checked, built
    without running __post_init__ again."""
    phi = object.__new__(PartialMap)
    object.__setattr__(phi, "entries", entries)
    return phi


def make_partial_map(pairs: Iterable[tuple[VertexId, int]]) -> PartialMap:
    """Build a PartialMap from (vertex, bit) pairs in any order.

    The empty map is allowed.  Two entries for the same vertex raise
    DuplicateVertexError even when they agree, and before any other check
    fails.  The pairs are sorted once and checked in one pass; only when that
    fails do they take the reference order: a scan in the given order for the
    first repeated vertex, the sort, and __post_init__'s check.  A lone pair
    that is not a tuple goes to that order at once: the sort compares
    nothing then, and a one-shot iterator must be used up by the scan.
    """
    pairs = list(pairs)
    if len(pairs) != 1 or type(pairs[0]) is tuple:
        try:
            entries = tuple(sorted(pairs))
            _check_entries(entries)
            return _partial_map(entries)
        except (TypeError, ValueError):
            pass
    seen: set[VertexId] = set()
    for vertex, _ in pairs:
        if vertex in seen:
            raise DuplicateVertexError(f"vertex {vertex} appears twice")
        seen.add(vertex)
    entries = tuple(sorted(pairs))
    _check_entries(entries)
    return _partial_map(entries)


def _edge_order(edge: tuple[VertexId, ...]) -> tuple[int, tuple[VertexId, ...]]:
    return len(edge), edge


@dataclass(frozen=True)
class Hypergraph:
    """A set of edges; each edge is a sorted vertex tuple, edges sorted and deduplicated."""

    edges: tuple[tuple[VertexId, ...], ...]

    @staticmethod
    def of(edges: Iterable[Iterable[VertexId]]) -> "Hypergraph":
        normalized = {tuple(sorted(set(e))) for e in edges}
        return Hypergraph(tuple(sorted(normalized, key=_edge_order)))

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge: Iterable[VertexId]) -> bool:
        e = tuple(sorted(set(edge)))
        i = bisect_left(self.edges, _edge_order(e), key=_edge_order)
        return i < len(self.edges) and self.edges[i] == e

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(sorted({v for e in self.edges for v in e}))

    @property
    def uniformity(self) -> int | None:
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None


@dataclass(frozen=True)
class Family:
    """A duplicate-free collection of partial maps, stored in sorted order."""

    maps: tuple[PartialMap, ...]

    @staticmethod
    def of(maps: Iterable[PartialMap]) -> "Family":
        """The family of the given maps, sorted; a map given twice raises
        DuplicateMapError.

        Maps are sorted and compared by their entries tuples: the order of
        PartialMap's `order=True`, without its comparison methods, which
        are Python functions.
        """
        maps = sorted(maps, key=attrgetter("entries"))
        for a, b in zip(maps, maps[1:]):
            if a.entries == b.entries:
                raise DuplicateMapError(f"duplicate map {a.entries}")
        return Family(tuple(maps))

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self) -> Iterator[PartialMap]:
        return iter(self.maps)

    def __contains__(self, phi: object) -> bool:
        if not isinstance(phi, PartialMap):
            return False
        i = bisect_left(self.maps, phi)
        return i < len(self.maps) and self.maps[i] == phi

    @cached_property
    def universe(self) -> tuple[VertexId, ...]:
        """Sorted vertices of the maps; computed once per family."""
        return tuple(sorted({v for m in self.maps for v, _ in m.entries}))

    @cached_property
    def profile(self) -> "FamilyProfile":
        """classify(self): the profile against the family's own domain
        hypergraph; computed once per family."""
        return _profile(self, domain_hypergraph(self))

    @cached_property
    def domains(self) -> tuple[tuple[tuple[VertexId, ...], tuple[PartialMap, ...]], ...]:
        """(domain, maps) for each domain, domains by size then vertices and
        each domain's maps in family order; computed once per family."""
        groups: dict[tuple[VertexId, ...], list[PartialMap]] = {}
        for m in self.maps:
            groups.setdefault(m.domain, []).append(m)
        return tuple((d, tuple(groups[d])) for d in sorted(groups, key=_edge_order))


def domain_hypergraph(family: Family) -> Hypergraph:
    """The hypergraph whose edges are the domains of the family's maps."""
    return Hypergraph(tuple(d for d, _ in family.domains))


@dataclass(frozen=True)
class Coloring:
    """Total assignment on `universe` (sorted); bit i of `bits` colors universe[i]."""

    universe: tuple[VertexId, ...]
    bits: int

    def __post_init__(self) -> None:
        if list(self.universe) != sorted(set(self.universe)):
            raise ValueError("universe must be sorted and duplicate-free")
        if not 0 <= self.bits < (1 << len(self.universe)):
            raise ValueError("bits out of range for universe size")

    def value(self, vertex: VertexId) -> int:
        i = bisect_left(self.universe, vertex)
        if i == len(self.universe) or self.universe[i] != vertex:
            raise OutOfUniverseError(f"vertex {vertex} not in universe")
        return (self.bits >> i) & 1

    def as_dict(self) -> dict[VertexId, int]:
        return {v: (self.bits >> i) & 1 for i, v in enumerate(self.universe)}

    @staticmethod
    def from_assignment(assignment: Mapping[VertexId, int]) -> "Coloring":
        universe = tuple(sorted(assignment))
        bits = sum((assignment[v] & 1) << i for i, v in enumerate(universe))
        return Coloring(universe, bits)


def avoids(coloring: Coloring, phi: PartialMap) -> bool:
    """True iff phi is not contained in the coloring.

    The empty map is contained in every coloring, hence avoided by none.
    Raises OutOfUniverseError if phi constrains a vertex outside the universe.
    """
    return not all(coloring.value(v) == bit for v, bit in phi.entries)


def colors(coloring: Coloring, family: Family) -> bool:
    """True iff the coloring avoids every map of the family."""
    return all(avoids(coloring, phi) for phi in family.maps)


@dataclass(frozen=True)
class FamilyProfile:
    """Structural classification of a family.

    cover_of is the hypergraph the family is a valid at-most-2-fold cover of
    (domains inside the hypergraph, same-domain maps disjoint as graphs, at
    most two maps per edge); when invalid, cover_of is None and
    cover_violation holds a machine-readable (reason, edge) pair.
    """

    uniformity: int | None
    is_unary: bool
    is_binary: bool
    cover_of: Hypergraph | None
    cover_violation: tuple[str, tuple[VertexId, ...]] | None
    universe_size: int
    map_count: int


def classify(family: Family, candidate: Hypergraph | None = None) -> FamilyProfile:
    """Compute uniformity, unary/binary flags, and cover validity.

    The cover check runs against `candidate` when given, else against the
    family's own domain hypergraph; that profile is `family.profile`, computed
    once per family.  A unary family is always a valid cover of its domain
    hypergraph.
    """
    return family.profile if candidate is None else _profile(family, candidate)


def _profile(family: Family, target: Hypergraph) -> FamilyProfile:
    sizes = {len(m) for m in family.maps}
    uniformity = sizes.pop() if len(sizes) == 1 else None
    most = max((len(group) for _, group in family.domains), default=0)

    edge_set = set(target.edges)
    violation: tuple[str, tuple[VertexId, ...]] | None = None
    for domain, group in family.domains:
        if domain not in edge_set:
            violation = ("domain-not-in-hypergraph", domain)
            break
        if len(group) > 2:
            violation = ("more-than-two-maps-on-edge", domain)
            break
        if len(group) == 2 and set(group[0].entries) & set(group[1].entries):
            violation = ("same-domain-maps-overlap", domain)
            break

    return FamilyProfile(
        uniformity=uniformity,
        is_unary=most <= 1,
        is_binary=most <= 2,
        cover_of=target if violation is None else None,
        cover_violation=violation,
        universe_size=len(family.universe),
        map_count=len(family.maps),
    )


def relabel_family(family: Family, mapping: Mapping[VertexId, VertexId]) -> Family:
    """Apply an injective vertex relabeling to every map."""
    image = [mapping[v] for v in family.universe]
    if len(set(image)) != len(image):
        raise ValueError("relabeling must be injective on the universe")
    return Family.of(
        make_partial_map((mapping[v], bit) for v, bit in m.entries) for m in family.maps
    )
