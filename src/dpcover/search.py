"""Exhaustive minimality search over small unary uniform families.

The search enumerates unary r-uniform families over a fixed vertex pool in
two phases.  Shallow levels run breadth-first with exact isomorph rejection:
two families get the same canonical key iff one is carried to the other by a
vertex bijection combined with an optional global 0/1 flip.  Each shallow
representative keys only one child per shape of the added map: its entries on
the vertices the representative touches and the sorted bits of the rest.
Children of equal shape are isomorphic, so the others are counted but never
keyed, as in McKay's orderly generation (J. Algorithms 26, 1998), which
never canonizes two children in one orbit of the parent's symmetry group.
Deeper levels extend each shallow representative by ascending-index map
subsets, which visits every completion set exactly once per representative.
No two maps of a family share a domain: phase 1 skips the maps whose domain
the family already uses, and the completion draws from the maps of the domains
the representative leaves free, resuming after each chosen map at the first
map of the next domain.  Non-colorability is decided by a survivor bitmask
(one bit per coloring of the pool); a family is non-colorable exactly when its
survivor mask is zero, and a branch dies when the remaining map budget cannot
kill the remaining survivors.  Representatives complete in key order, and
once one has a witness each later one gets the running best minus one as its
budget.

Every reported witness is re-verified independently through analysis before
it leaves this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb, factorial

import numpy as np

from . import analysis, constructions
from .core import Family, VertexId, make_partial_map
from .errors import SearchSpaceTooLargeError, UniverseTooLargeError

_KEY_UNIVERSE_LIMIT = 12
_KEY_STATE_CAP = 100_000
_SEARCH_NODE_CAP = 1_000_000_000
_CANONICAL_DEPTH = 3  # levels run breadth-first with canonical keys


# ---------------------------------------------------------------------------
# Canonical keys.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalKey:
    """Canonical encoding of a family up to vertex relabeling and global flip."""

    data: bytes


def canonical_key(family: Family) -> CanonicalKey:
    """Exact canonical form under vertex bijections and the global color flip.

    Two families receive equal keys iff they are isomorphic under that group.
    Per-vertex flips are deliberately not in the group.  Universes above
    _KEY_UNIVERSE_LIMIT vertices, the bound search_min_unary also checks,
    raise UniverseTooLargeError.
    """
    n, limit = len(family.universe), _KEY_UNIVERSE_LIMIT
    if n > limit:
        raise UniverseTooLargeError(f"universe has {n} vertices, canonical_key limit is {limit}")
    return CanonicalKey(_key_of_entries([m.entries for m in family.maps]))


def _key_of_entries(maps: list[tuple[tuple[int, int], ...]]) -> bytes:
    """canonical_key's bytes for the family with these entry tuples.

    One greedy tie search emits the lexicographically smallest sorted code
    list over all dense relabelings of the maps and of their global flip.  A
    state is an orientation, its relabeling sigma and the maps left.  Each
    step emits the smallest code any remaining map of any state can reach:
    labeled vertices keep their labels, unlabeled ones take the next labels
    with their values in ascending order.  Every state and fresh-label order
    that achieves it is kept, so the greedy choice is exact, and an
    orientation that loses a step drops out.  No two states coincide: sigma
    and the codes fix the maps emitted, no two maps being equal, so children
    of one state differ in new labels and of two states in old ones.  A code
    entry (label, bit) is the int 2 * label + bit, which sorts the same way;
    sigma holds twice the label.  The tie cap applies per orientation, to the
    states each step keeps: an option with z fresh zeros and o fresh ones
    keeps z! * o! of them.  After the last emission they are only counted,
    not built.  The caller bounds the universe.
    """
    flipped = [tuple((v, 1 - bit) for v, bit in entries) for entries in maps]
    oriented = (maps, flipped)
    everything = frozenset(range(len(maps)))
    states = [(0, {}, everything), (1, {}, everything)]  # (orientation, sigma, maps left)
    tails: dict[tuple[int, int, int], tuple[int, ...]] = {}  # (k, zeros, ones)
    out = bytearray()
    for step in range(len(maps)):
        k = len(states[0][1])  # every state has labeled the same number
        best_code = None
        options = []  # (*state, map_index) achieving best_code
        for o, sigma, remaining in states:
            entries_of = oriented[o]
            for m_idx in remaining:
                labeled = []
                zeros = ones = 0
                for v, bit in entries_of[m_idx]:
                    if v in sigma:
                        labeled.append(sigma[v] + bit)
                    elif bit:
                        ones += 1
                    else:
                        zeros += 1
                labeled.sort()
                tail = tails.get((k, zeros, ones))
                if tail is None:
                    mid = 2 * (k + zeros)
                    tail = tails[k, zeros, ones] = (
                        *range(2 * k, mid, 2), *range(mid + 1, mid + 2 * ones, 2)
                    )
                code = tuple(labeled) + tail
                if best_code is None or code < best_code:
                    best_code = code
                    options = [(o, sigma, remaining, m_idx)]
                elif code == best_code:
                    options.append((o, sigma, remaining, m_idx))
        out.append(len(best_code))
        for c in best_code:
            out += bytes((c >> 1, c & 1))
        states = []
        sizes = [0, 0]
        for o, sigma, remaining, m_idx in options:
            zeros = [v for v, bit in oriented[o][m_idx] if not bit and v not in sigma]
            ones = [v for v, bit in oriented[o][m_idx] if bit and v not in sigma]
            sizes[o] += factorial(len(zeros)) * factorial(len(ones))
            if sizes[o] > _KEY_STATE_CAP:
                raise SearchSpaceTooLargeError(
                    f"canonical key tie set exceeded {_KEY_STATE_CAP} states"
                )
            if step == len(maps) - 1:  # no later step reads the states
                continue
            rest = remaining - {m_idx}
            labels = range(2 * k, 2 * (k + len(zeros) + len(ones)), 2)
            for zs in permutations(zeros):
                for os_ in permutations(ones):
                    states.append((o, sigma | dict(zip(zs + os_, labels)), rest))
    return bytes(out)


# ---------------------------------------------------------------------------
# Degree-one reduction helpers.
# ---------------------------------------------------------------------------


def single_domain_vertices(family: Family) -> tuple[VertexId, ...]:
    """Vertices appearing in exactly one map's domain."""
    counts: dict[VertexId, int] = {}
    for m in family.maps:
        for v in m.domain:
            counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(v for v, c in counts.items() if c == 1))


def delete_vertex_constraint(family: Family, vertex: VertexId) -> Family:
    """Drop the (vertex, bit) entry from the unique map constraining vertex.

    Sound one way only: a non-colorable family stays non-colorable, because a
    coloring avoiding the shrunk map also avoids the original.  A colorable
    family may become non-colorable.  Used by the vertex-degree bound: in a
    minimum-size non-colorable family every vertex lies in at least two
    domains, since otherwise dropping the whole map keeps it non-colorable
    (recolor the degree-one vertex last).
    """
    holders = [m for m in family.maps if vertex in m.domain]
    if len(holders) != 1:
        raise ValueError(f"vertex {vertex} lies in {len(holders)} domains, need 1")
    target = holders[0]
    shrunk = make_partial_map([(v, b) for v, b in target.entries if v != vertex])
    rest = [m for m in family.maps if m != target]
    if shrunk in rest:  # the shrunk constraint already exists; drop the copy
        return Family.of(rest)
    return Family.of(rest + [shrunk])


# ---------------------------------------------------------------------------
# The search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalityReport:
    r: int
    size_bound: int
    vertex_bound: int
    witness: Family | None
    witness_size: int | None
    families_examined: int
    canonical_classes: int

    @property
    def result(self) -> Family | str:
        return self.witness if self.witness is not None else "all-colorable"


class _Pool:
    """All candidate r-maps over vertices 0 .. n-1, in a fixed index order.

    Maps are ordered by (domain, bits).  kill[i] is the bitmask, over the 2^n
    colorings of the pool encoded as integers, of the colorings containing
    map i; domain_id[i] indexes the sorted list of r-subsets.
    """

    def __init__(self, r: int, n: int) -> None:
        self.r = r
        self.n = n
        self.maps: list[tuple[tuple[int, int], ...]] = []
        self.domain_id: list[int] = []
        self.kill: list[int] = []
        codes = np.arange(1 << n)
        for d_id, domain in enumerate(combinations(range(n), r)):
            mask = sum(1 << v for v in domain)
            for bits in product((0, 1), repeat=r):
                entries = tuple(zip(domain, bits))
                pattern = sum(b << v for v, b in entries)
                hit = np.packbits((codes & mask) == pattern, bitorder="little")
                self.maps.append(entries)
                self.domain_id.append(d_id)
                self.kill.append(int.from_bytes(hit.tobytes(), "little"))
        self.full = (1 << (1 << n)) - 1
        self.per_map_kill = 1 << (n - r)

    def family(self, indices: tuple[int, ...]) -> Family:
        return Family.of([make_partial_map(self.maps[i]) for i in indices])


def _completion_dfs(
    pool: _Pool, rep: tuple[int, ...], budget: int
) -> tuple[int | None, tuple[int, ...] | None, int]:
    """Depth-first completion of one representative by ascending map indices.

    Returns (best total size, witness indices, nodes visited).  Within this
    representative the first witness found at the running minimum size is
    kept, and once a witness of size s exists only strictly smaller totals
    are explored; the traversal order is fixed, so the outcome is
    deterministic.

    The candidates are the pool maps whose domain the representative does
    not use, in pool order, with cand[p] the pool index, keep[p] the
    colorings that map p leaves alive, and nxt[p] the position of the first
    candidate of the next domain.  Pool order sorts by domain and the chosen
    suffix ascends, so the last chosen map has the largest chosen domain, and
    the only chosen domain a later candidate can share is the last one's.  A
    child pushed with start nxt[p] therefore never meets a domain that is
    already used, and no domain test is needed inside the loop.
    """
    surv = pool.full
    for i in rep:
        surv &= ~pool.kill[i]
    used = {pool.domain_id[i] for i in rep}
    cand = [i for i in range(len(pool.maps)) if pool.domain_id[i] not in used]
    keep = [pool.full ^ pool.kill[i] for i in cand]
    width = 1 << pool.r  # every domain keeps all its 2^r maps, contiguous
    nxt = [p - p % width + width for p in range(len(cand))]
    base = len(rep)
    n_cand = len(cand)
    best_size: int | None = None
    best_indices: tuple[int, ...] | None = None
    nodes = 0

    # stack entries: (next candidate position, chosen suffix, survivor mask)
    stack = [(0, (), surv)]
    while stack:
        start, chosen, surv_here = stack.pop()
        depth = len(chosen)
        cap = (budget if best_size is None else best_size - 1) - base
        if depth >= cap:
            continue
        size = base + depth + 1
        last = depth + 1 >= cap
        limit = (cap - depth - 1) * pool.per_map_kill
        for p in range(start, n_cand):
            child_surv = surv_here & keep[p]
            nodes += 1
            if child_surv == 0:  # cap admits only sizes below best_size
                best_size = size
                best_indices = rep + chosen + (cand[p],)
                break  # siblings tie or lose on order, deeper nodes are larger
            if last or child_surv.bit_count() > limit:
                continue
            stack.append((nxt[p], chosen + (cand[p],), child_surv))
    return best_size, best_indices, nodes


def _phase1(
    pool: _Pool, max_size: int, depth: int
) -> tuple[list[tuple[tuple[int, ...], int, bytes]], int, int]:
    """Breadth-first levels 1 .. depth with exact isomorph rejection.

    Returns the last level as (pool indices, survivor mask, key) in first-seen
    order, the children examined, and the classes keyed over all levels.  A
    child is a representative R of the previous level plus one pool map m
    whose domain R does not use.  Its shape is m's entries on the vertices R
    touches plus the sorted bits of its entries on the others.  Children of
    one R with equal shapes are isomorphic: a permutation of the untouched
    vertices fixes every map of R and carries one map to the other.  So only
    the first child of each shape is keyed; a later one is counted, and its
    key is already seen.  A keyed child whose survivors the remaining budget
    cannot kill joins no level.
    """
    examined = 0
    classes_seen = 0
    level: list[tuple[tuple[int, ...], int, bytes]] = [((), pool.full, b"")]
    # No family of at most _CANONICAL_DEPTH maps is non-colorable here: at
    # r >= 2 its weight is at most 3/4, and at r = 1 each vertex's one map
    # forbids one of its two colors.  So phase 1 finds no witness.
    for size in range(1, depth + 1):
        seen: dict[bytes, None] = {}
        next_level: list[tuple[tuple[int, ...], int, bytes]] = []
        limit = (max_size - size) * pool.per_map_kill
        for indices, surv, _ in level:
            used = {pool.domain_id[i] for i in indices}
            touched = {v for i in indices for v, _ in pool.maps[i]}
            shapes = set()
            for idx in range(len(pool.maps)):
                if pool.domain_id[idx] in used:
                    continue
                examined += 1
                entries = pool.maps[idx]
                shape = (
                    tuple(e for e in entries if e[0] in touched),
                    tuple(sorted(bit for v, bit in entries if v not in touched)),
                )
                if shape in shapes:
                    continue
                shapes.add(shape)
                child = tuple(sorted(indices + (idx,)))
                key = _key_of_entries([pool.maps[i] for i in child])
                if key in seen:
                    continue
                seen[key] = None
                child_surv = surv & ~pool.kill[idx]
                if child_surv.bit_count() > limit:
                    continue
                next_level.append((child, child_surv, key))
        classes_seen += len(seen)
        level = next_level
    return level, examined, classes_seen


def search_min_unary(
    r: int, max_size: int, max_vertices: int, *, workers: int = 1
) -> MinimalityReport:
    """Smallest non-colorable unary r-uniform family within the given bounds.

    Enumerates, up to isomorphism, every unary r-uniform family of at most
    max_size maps over at most max_vertices vertices, in increasing size, and
    returns the first size admitting no avoiding coloring together with a
    witness, or reports that all such families are colorable.  Pruning uses
    exact canonical keys at shallow levels, the survivor-count bound, and the
    weight certificate: a family whose weight cannot reach 1 within the map
    budget is never non-colorable.  The shallow levels key one child per
    shape of each representative (see _phase1); families_examined still
    counts every child, keyed or not.  Phase 2 gives each representative
    after the first witness the running best minus one as its budget, which
    keeps the witness of a full budget; families_examined counts the nodes
    actually visited.  The search runs in the calling process.  `workers` has no
    effect: it is kept only because the benchmark (perfbench/workloads.py)
    passes it, and goes once the benchmark no longer does.
    """
    if r < 1 or max_size < 1 or max_vertices < r:
        raise ValueError("need r >= 1, max_size >= 1, max_vertices >= r")
    if max_vertices > _KEY_UNIVERSE_LIMIT:
        raise UniverseTooLargeError(
            f"max_vertices {max_vertices} exceeds canonical key limit"
        )
    n_candidates = comb(max_vertices, r) << r
    estimate = sum(comb(n_candidates, k) for k in range(1, min(max_size, n_candidates) + 1))
    if estimate > _SEARCH_NODE_CAP and max_size > _CANONICAL_DEPTH:
        raise SearchSpaceTooLargeError(
            f"worst-case search space {estimate} exceeds {_SEARCH_NODE_CAP}"
        )

    # Weight certificate: every map of an r-uniform family has
    # weight 2^-r, so no family of at most max_size maps can reach weight 1
    # when max_size < 2^r; none of them can be non-colorable.
    if max_size < 1 << r:
        return MinimalityReport(r, max_size, max_vertices, None, None, 0, 0)

    pool = _Pool(r, max_vertices)
    depth = min(_CANONICAL_DEPTH, max_size)
    level, examined, classes_seen = _phase1(pool, max_size, depth)

    best_size: int | None = None
    best_indices: tuple[int, ...] | None = None
    if max_size > depth:
        # The first representative, in key order, to reach the smallest size;
        # once one has, later ones only explore sizes that can still win.
        for rep, _, _ in sorted(level, key=lambda item: item[2]):
            budget = max_size if best_size is None else best_size - 1
            size, indices, nodes = _completion_dfs(pool, rep, budget)
            examined += nodes
            if size is not None and (best_size is None or size < best_size):
                best_size, best_indices = size, indices
    if best_indices is None:
        return MinimalityReport(
            r, max_size, max_vertices, None, None, examined, classes_seen
        )
    witness = pool.family(best_indices)
    profile = analysis.classify(witness)
    check = analysis.find_coloring(witness)
    if check.colorable or not profile.is_unary or profile.uniformity != r:
        raise RuntimeError("search produced an invalid witness; internal bug")
    if analysis.weight(witness) < 1:
        raise RuntimeError("non-colorable witness with weight < 1; internal bug")
    return MinimalityReport(
        r, max_size, max_vertices, witness, best_size, examined, classes_seen
    )


# ---------------------------------------------------------------------------
# Bound bracketing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BracketReport:
    r: int
    lower_bound: int
    upper_bound: int
    witness_size: int
    witness_source: str
    certification: str
    search_min_size: int | None

    @property
    def consistent(self) -> bool:
        ok = self.lower_bound <= self.witness_size <= self.upper_bound
        if self.search_min_size is not None:
            ok = ok and self.lower_bound <= self.search_min_size <= self.witness_size
        return ok


def verify_bracket(r: int) -> BracketReport:
    """Bracket the minimum size of a non-colorable unary r-uniform family.

    Lower bound 2^r + 1; upper bound 2^r + 2^ceil(r/2), witnessed by
    constructions.unary_witness(r), whose own non-colorability claim is
    checked: enumerated at desk scale, sampled beyond it.
    At r = 2 the exhaustive search pins the exact minimum (a vertex budget of
    6 suffices: every vertex of a minimum witness lies in >= 2 domains, so a
    size-6 family has at most 6 vertices).
    """
    if r < 2:
        raise ValueError("bracket needs r >= 2")
    gadget = constructions.unary_witness(r)  # refuses r >= 21, before any 1 << r
    lower = (1 << r) + 1
    upper = (1 << r) + (1 << ((r + 1) // 2))
    family = gadget.family
    if len(family) != upper:
        raise RuntimeError("witness size disagrees with the stated upper bound")
    certifications = {"no-coloring": "enumerated", "sampled-no-coloring": "sampled"}
    (claim,) = (c for c in gadget.claimed_properties if c["kind"] in certifications)
    if not analysis.check_claim(family, claim).ok:
        raise RuntimeError("bracket witness unexpectedly colorable")
    certification = certifications[claim["kind"]]
    search_min = None
    if r == 2:
        search_min = search_min_unary(2, upper, 6).witness_size
    return BracketReport(
        r, lower, upper, len(family), gadget.source, certification, search_min
    )
