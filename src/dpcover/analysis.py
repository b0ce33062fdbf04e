"""Certification engine: exhaustive colorability, exact weights, parity checks.

Colorings over a sorted n-vertex universe are the integers 0 .. 2^n - 1 (bit i
colors the i-th vertex).  Every exhaustive verdict reads one kernel: the
multiplicity of each code, i.e. how many maps it contains.  The kernel works
on chunks of 2^j codes that share their high n - j bits.  A map whose high
entries disagree with the chunk is skipped; every other map adds to the
subcube its low entries fix in the chunk.  Counts use the smallest unsigned
dtype that holds len(family), since no code lies in more maps than that, so
the cells of one 64-bit word can be added in one operation without carries:
the lowest code bits pick a lane of the word (8 lanes at uint8, 4 at uint16,
2 at uint32), and a map adds a word with a 1 in each lane its low entries
match.  A whole pass costs w(F) * 2^n cell updates divided by the lanes per
word, plus one operation per (map, chunk) pair that the map's high entries
let through.

Every scan walks chunks of DEFAULT_CHUNK = 2^20 codes (a fixed policy that
only _Subcubes reads) from code 0 up, so the first chunk holding an
avoiding code gives the smallest one.  A first-witness scan first probes
[0, FIRST_CHUNK) = [0, 2^12) once, so a witness there costs one small chunk.
All weights are exact Fractions whose denominators are powers of two.

Two size limits guard the enumeration, each overridable only by its
environment variable and never above 64 vertices, the width of the scan's
masks: DPCOVER_ENUM_LIMIT (default 30 vertices) for the scan in
find_coloring, and DPCOVER_PARITY_LIMIT (default 24) for everything that holds
a 2^n table or all the avoiders: avoiding_codes, MultiplicityTable,
parity_identity, weight_one_audit and the claims.
"""
from __future__ import annotations

import os
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, product, takewhile
from math import prod
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Coloring,
    Family,
    FamilyProfile,
    PartialMap,
    VertexId,
    avoids,
    classify,
    colors,
)
from .errors import OutOfUniverseError, UniverseTooLargeError

DEFAULT_ENUM_LIMIT = 30
DEFAULT_PARITY_LIMIT = 24
DEFAULT_CHUNK = 1 << 20
FIRST_CHUNK = 1 << 12  # a first-witness scan's probe, walked before the full chunks


def _check_size(n: int, env_name: str, default: int, what: str = "universe") -> None:
    """Raise UniverseTooLargeError when n exceeds the limit: the environment
    variable env_name if it is set, else default, at most 64.  A value that
    is not an integer, or is negative, raises ValueError naming it."""
    raw = os.environ.get(env_name)
    try:
        cap = int(raw) if raw else default
    except ValueError:
        raise ValueError(f"{env_name} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{env_name} must not be negative, got {raw!r}")
    cap = min(cap, 64)  # _Subcubes reads codes through uint64 masks
    if n > cap:
        raise UniverseTooLargeError(f"{what} has {n} vertices, limit is {cap}")


@cache
def _lane_words(dtype: np.dtype, lanes: int) -> tuple[np.dtype, list]:
    """The unsigned word that packs 2^lanes cells of `dtype`, and one word per
    (mask, pattern) over the low `lanes` code bits, at index mask << lanes |
    pattern: 1 in every lane whose code matches pattern on mask.  The words
    are read from an array of cells, so they hold whatever the byte order."""
    size = 1 << lanes
    mask, pattern = np.divmod(np.arange(size * size), size)
    cells = (np.arange(size) & mask[:, None]) == pattern[:, None]
    word = np.dtype(f"u{dtype.itemsize << lanes}")
    return word, list(cells.astype(dtype).view(word).ravel())


class _Subcubes:
    """The family's maps as subcubes of the code space, counted chunk by chunk.

    A chunk [lo, lo + 2^j) holds the 2^j codes that share their bits j..
    (lo is a multiple of 2^j).  A full chunk has 2^k codes, 2^k the largest
    power of two not above DEFAULT_CHUNK (at most 2^n).  A first-witness scan
    also has a probe of 2^first codes, the same power for FIRST_CHUNK (else
    first = k, and there is no probe).  Both constants are read when the
    object is built.

    Cells are added a word at a time.  The lowest `lanes` code bits pick a
    lane of one unsigned `word` of up to 64 bits (3 bits at uint8, 2 at
    uint16, 1 at uint32, fewer when 2^first cells fill less than a word), and
    a chunk is a (2,)*(j - lanes) view of words whose axis j - 1 - i holds
    bit i.  Each map keeps its entries on bits lanes .. k - 1 as an index
    into that view at j = k, whose tail serves the probe; its entries
    on bits first.. as a (mask, pattern) pair shifted down by first; and its
    entries on the lane bits as one word with a 1 in every lane they match.
    No lane carries into the next: a code lies in at most len(family) maps,
    and the cell dtype holds that.
    """

    def __init__(self, family: Family, rank: dict[VertexId, int], *, first_witness=False):
        self.n = n = len(rank)
        self.k = k = min(n, DEFAULT_CHUNK.bit_length() - 1)
        self.first = first = min(k, FIRST_CHUNK.bit_length() - 1) if first_witness else k
        self.dtype = np.min_scalar_type(len(family))
        self.lanes = lanes = min(first, (8 // self.dtype.itemsize).bit_length() - 1)
        self.word, lane_words = _lane_words(self.dtype, lanes)
        top = k - 1
        masks, patterns, self.cubes = [], [], []
        for m in family.maps:
            mask = pattern = 0
            cube: list = [slice(None)] * (k - lanes)
            for v, bit in m.entries:
                i = rank[v]
                if lanes <= i < k:
                    cube[top - i] = bit
                    if i < first:
                        continue
                mask |= 1 << i
                pattern |= bit << i
            masks.append(mask)
            patterns.append(pattern)
            self.cubes.append(tuple(cube))
        lane = (1 << lanes) - 1
        self.lane_words = [
            lane_words[(mask & lane) << lanes | pattern & lane]
            for mask, pattern in zip(masks, patterns)
        ]
        self.masks = np.array([mask >> first for mask in masks], dtype=np.uint64)
        self.patterns = np.array([pattern >> first for pattern in patterns], dtype=np.uint64)

    def chunks(self) -> Iterator[tuple[int, int]]:
        """(lo, j) for each chunk [lo, lo + 2^j) in scan order: the probe
        [0, 2^first) when first < k, then the full chunks of 2^k codes from 0
        up to 2^n.  The first full chunk counts the probe's codes again."""
        if self.first < self.k:
            yield 0, self.first
        for lo in range(0, 1 << self.n, 1 << self.k):
            yield lo, self.k

    def counts(self, lo: int, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Multiplicity of each code in the chunk [lo, lo + 2^j): the one
        containment kernel.

        Adds into `out`, 2^j zeroed cells of `dtype`, or into a new array.
        """
        if out is None:
            out = np.zeros(1 << j, dtype=self.dtype)
        words = out.view(self.word).reshape((2,) * (j - self.lanes))
        fixed = np.uint64((1 << 64) - (1 << (j - self.first)))  # bits j.., shifted
        hit = (np.uint64(lo >> self.first) & self.masks) == (self.patterns & fixed)
        cut = self.k - j
        for m in np.flatnonzero(hit).tolist():
            words[self.cubes[m][cut:]] += self.lane_words[m]
        return out


def _checked_witness(family: Family, universe: tuple[VertexId, ...], code: int) -> Coloring:
    witness = Coloring(universe, code)
    if not colors(witness, family):
        raise RuntimeError("internal error: witness failed re-check")
    return witness


@dataclass(frozen=True)
class ColorabilityReport:
    """Outcome of an exhaustive scan.

    When no witness exists, enumerated = 2^n (the whole space was certified).
    When a witness is reported outside count mode, enumerated = witness index
    + 1: everything below the witness was certified to contain some map.
    """

    colorable: bool
    witness: Coloring | None
    coloring_count: int | None
    enumerated: int


def find_coloring(family: Family, *, count: bool = False, workers: int = 1) -> ColorabilityReport:
    """Exhaustively search for a coloring avoiding every map of the family.

    The witness is the smallest coloring code.  The scan runs in the calling
    process.  `workers` has no effect: it is kept only because the benchmark
    (perfbench/workloads.py) passes it, and goes once the benchmark no longer
    does.  Raises UniverseTooLargeError above the scan limit.
    """
    universe = family.universe
    n = len(universe)
    _check_size(n, "DPCOVER_ENUM_LIMIT", DEFAULT_ENUM_LIMIT)
    cubes = _Subcubes(family, family.ranks, first_witness=not count)
    total = 1 << n
    first: int | None = None
    avoiders = 0
    for lo, j in cubes.chunks():
        counts = cubes.counts(lo, j)
        avoiders += counts.size - int(np.count_nonzero(counts))
        if first is None and avoiders:
            first = lo + int(np.argmin(counts))  # the first 0, since some cell is 0
            if not count:
                break

    if first is None:
        return ColorabilityReport(False, None, (0 if count else None), total)
    witness = _checked_witness(family, universe, first)
    enumerated = total if count else first + 1
    return ColorabilityReport(True, witness, (avoiders if count else None), enumerated)


def _avoider_chunks(family: Family) -> Iterator[np.ndarray]:
    """The avoiding codes of each full-size chunk in turn, ascending.  Raises
    UniverseTooLargeError above the table limit when first advanced."""
    _check_size(len(family.universe), "DPCOVER_PARITY_LIMIT", DEFAULT_PARITY_LIMIT)
    cubes = _Subcubes(family, family.ranks)
    for lo, j in cubes.chunks():
        codes = np.flatnonzero(cubes.counts(lo, j) == 0)
        codes += lo  # in place: a second array of codes would double the peak
        yield codes


def avoiding_codes(family: Family) -> np.ndarray:
    """All coloring codes avoiding every map, ascending."""
    return np.concatenate(list(_avoider_chunks(family)))


@dataclass(frozen=True)
class SampleReport:
    trials: int
    seed: int
    counterexamples: int
    first_counterexample: Coloring | None


_NONE, _TRUE = -1, -2  # child codes: no map below; the empty map, in every coloring
_WALK_TRIALS = 1 << 10  # colorings walked through the index together; bounds its memory
_MAX_TRIALS = 1 << 20  # trials one call may take: a document cannot ask for an unbounded run


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of range(s, s + l) over the pairs, as one index array."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) - np.repeat(ends - lengths - starts, lengths)


class _MapIndex:
    """Decision tree over maps for fast "does f contain any map" queries.

    Nodes split on a vertex rank and route maps into value-0, value-1, and
    not-mentioned branches; small map sets stay in leaves.  For pivot-recursive
    families this makes each query O(depth) instead of O(|F| * r).

    The tree is built one depth at a time over flat entry arrays.  Each map
    sits in one node per depth, so a per-entry "not yet split on" flag and a
    per-map count of such entries stand for the map's remaining entries.  A
    node's split is the most frequent remaining rank among up to `_SAMPLE` of
    its maps taken at an even stride (sorted families keep structurally shared
    vertices, such as recursion pivots, visible only at full stride), the
    smallest such rank on ties.  Each leaf map becomes a chain of nodes, one
    per remaining entry, whose not-mentioned child is the leaf's next map, so
    one node kind serves the whole tree: node i tests the rank at bit
    `shift[i]` of byte `byte[i]` and has children `kids[i]` = (value-0,
    value-1, not-mentioned), node ids or _NONE/_TRUE.  A query visits the
    not-mentioned child and the child its bit selects; `contained` walks a
    block of queries through the tree together.
    """

    _LEAF_SIZE = 4
    _SAMPLE = 32
    _MAX_DEPTH = 200

    def __init__(self, family: Family):
        self.universe = family.universe
        n = len(self.universe)
        entries = [m.entries for m in family.maps]
        sizes = np.fromiter(map(len, entries), dtype=np.int64, count=len(entries))
        start = np.cumsum(sizes) - sizes
        pairs = list(chain.from_iterable(entries))
        ranks = map(family.ranks.__getitem__, map(itemgetter(0), pairs))
        rank = np.fromiter(ranks, dtype=np.int64, count=len(pairs))
        bit = np.fromiter(map(itemgetter(1), pairs), dtype=np.int64, count=len(pairs))
        key = np.repeat(np.arange(len(entries)), sizes) * n + rank  # ascending
        live = np.ones(rank.size, dtype=bool)  # entry not yet split on
        left = sizes.copy()  # live entries per map

        # Slots number the tree's nodes depth by depth.  `fm` holds the maps
        # at this depth grouped by slot, in family order within a slot, and
        # `fs` their slots minus `base`; `width` slots are at this depth.
        true_slots, leaf_slots, leaf_maps = [], [], []
        inner_slots, inner_split, inner_kids = [], [], []
        fm = np.arange(len(entries))
        fs = np.zeros(len(entries), dtype=np.int64)
        base, width, depth = 0, min(1, len(entries)), 0
        while fm.size:
            count = np.bincount(fs, minlength=width)
            has_empty = np.zeros(width, dtype=bool)
            has_empty[fs[left[fm] == 0]] = True
            leaf = ~has_empty & ((count <= self._LEAF_SIZE) | (depth >= self._MAX_DEPTH))
            inner = ~has_empty & ~leaf
            true_slots.append(base + np.flatnonzero(has_empty))
            at_leaf = leaf[fs]
            leaf_slots.append(base + fs[at_leaf])
            leaf_maps.append(fm[at_leaf])
            nodes = np.flatnonzero(inner)
            if not nodes.size:
                break
            # Stride-sample each inner node's maps and vote with their live ranks.
            c = count[nodes]
            step = np.maximum(1, c // self._SAMPLE)
            taken = np.minimum(self._SAMPLE, -(-c // step))
            voter = np.repeat(np.arange(nodes.size), taken)
            k = np.arange(voter.size) - np.repeat(np.cumsum(taken) - taken, taken)
            sampled = fm[(np.cumsum(count) - count)[nodes][voter] + k * step[voter]]
            ents = _ranges(start[sampled], sizes[sampled])
            voter = np.repeat(voter, sizes[sampled])[live[ents]]
            ents = ents[live[ents]]
            votes, tally = np.unique(voter * n + rank[ents], return_counts=True)
            node_of = votes // n
            bounds = np.flatnonzero(np.diff(node_of, prepend=-1))
            best = np.flatnonzero(tally == np.maximum.reduceat(tally, bounds)[node_of])
            best = best[np.diff(node_of[best], prepend=-1) != 0]  # smallest rank
            split = votes[best] % n
            # Route every map of an inner node by its bit at the node's split.
            keep = inner[fs]
            fm = fm[keep]
            j = np.searchsorted(nodes, fs[keep])
            query = fm * n + split[j]
            at = np.minimum(np.searchsorted(key, query), key.size - 1)
            hit = key[at] == query
            branch = np.full(fm.size, 2)
            branch[hit] = bit[at[hit]]
            live[at[hit]] = False
            left[fm[hit]] -= 1
            child = 3 * j + branch
            order = np.argsort(child, kind="stable")
            fm = fm[order]
            children, fs = np.unique(child[order], return_inverse=True)
            kids = np.full(3 * nodes.size, _NONE)
            kids[children] = base + width + np.arange(children.size)
            inner_slots.append(base + nodes)
            inner_split.append(split)
            inner_kids.append(kids.reshape(-1, 3))
            base, width, depth = base + width, children.size, depth + 1

        # Node ids: inner nodes in slot order, then the leaf chains.
        none = np.zeros(0, dtype=np.int64)
        inner_slots = np.concatenate(inner_slots or [none])
        leaf_slots = np.concatenate(leaf_slots or [none])
        leaf_maps = np.concatenate(leaf_maps or [none])
        resolve = np.full(base + width, _NONE)
        resolve[np.concatenate(true_slots or [none])] = _TRUE
        resolve[inner_slots] = np.arange(inner_slots.size)
        ents = _ranges(start[leaf_maps], sizes[leaf_maps])
        owner = np.repeat(np.arange(leaf_maps.size), sizes[leaf_maps])[live[ents]]
        ents = ents[live[ents]]
        ids = inner_slots.size + np.arange(ents.size)
        opens = np.diff(owner, prepend=-1) != 0  # first entry of its map
        closes = np.diff(owner, append=leaf_maps.size) != 0  # last entry of its map
        heads = ids[opens]
        new_leaf = np.diff(leaf_slots, prepend=-1) != 0
        resolve[leaf_slots[new_leaf]] = heads[new_leaf]
        chain_kids = np.full((ents.size, 3), _NONE)
        chain_kids[np.arange(ents.size), bit[ents]] = np.where(closes, _TRUE, ids + 1)
        same_leaf = np.append(~new_leaf[1:], False)  # the next leaf map shares the leaf
        chain_kids[opens, 2] = np.where(same_leaf, np.append(heads[1:], _NONE), _NONE)
        kids = np.concatenate(inner_kids or [none.reshape(0, 3)])
        kids = np.where(kids >= 0, resolve[np.maximum(kids, 0)], _NONE)
        self.kids = np.concatenate((kids, chain_kids))
        split = np.concatenate((np.concatenate(inner_split or [none]), rank[ents]))
        self.byte, self.shift = split >> 3, (split & 7).astype(np.uint8)
        self.root = int(resolve[0]) if resolve.size else _NONE

    def contained(self, rows: np.ndarray) -> np.ndarray:
        """Per row, whether that coloring contains some map; row t colors rank
        i with bit i % 8 of its byte i // 8."""
        found = np.full(rows.shape[0], self.root == _TRUE)
        if self.root < 0:
            return found
        trial = np.arange(rows.shape[0])
        node = np.full(trial.size, self.root)
        while trial.size:
            bit = (rows[trial, self.byte[node]] >> self.shift[node]) & 1
            trial = np.concatenate((trial, trial))
            node = np.concatenate((self.kids[node, bit], self.kids[node, 2]))
            found[trial[node == _TRUE]] = True
            keep = (node >= 0) & ~found[trial]
            trial, node = trial[keep], node[keep]
        return found


def _stream_bytes(rng: np.random.Generator, length: int) -> np.ndarray:
    """rng.bytes(length) as a uint8 array, without its copies: the same
    uint32 draws read little-endian, so the generator's later draws match too."""
    words = rng.integers(0, 1 << 32, size=-(-length // 4), dtype=np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)[:length]


def sample_noncolorability(family: Family, trials: int, seed: int) -> SampleReport:
    """Try `trials` seeded random colorings; count those avoiding every map.

    Zero counterexamples is evidence (not proof) of non-colorability.  The
    report is a pure function of (family, trials, seed); buffers come from a
    counter-based generator so wide universes stay cheap to sample.  The
    stream is drawn in blocks of at most 2 MiB, and each block is walked as
    it is drawn, `_WALK_TRIALS` colorings at a time.  A negative `trials` or
    `seed`, or more than `_MAX_TRIALS` trials, raises ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials must be at most {_MAX_TRIALS}, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    index = _MapIndex(family)
    universe = index.universe
    n = len(universe)
    nbytes = (n + 7) // 8
    rng = np.random.Generator(np.random.PCG64(seed))
    counterexamples = 0
    first: Coloring | None = None
    block_trials = max(1, min(trials, (1 << 21) // max(1, nbytes)))
    for done in range(0, trials, block_trials):
        batch = min(block_trials, trials - done)
        rows = _stream_bytes(rng, batch * nbytes).reshape(batch, nbytes)
        for lo in range(0, batch, _WALK_TRIALS):
            misses = np.flatnonzero(~index.contained(rows[lo : lo + _WALK_TRIALS]))
            counterexamples += misses.size
            if first is None and misses.size:
                bits = int.from_bytes(rows[lo + misses[0]].tobytes(), "little")
                first = Coloring(universe, bits & ((1 << n) - 1))
    return SampleReport(trials, seed, counterexamples, first)


def map_weight(phi: PartialMap) -> Fraction:
    """w(phi) = 2^(-|phi|): the fraction of total assignments containing phi."""
    return Fraction(1, 1 << len(phi))


def weight(family: Family) -> Fraction:
    """Sum of member weights, exact: one integer sum over the common
    denominator 2^e, e the largest map size."""
    e = max(map(len, family.maps), default=0)
    return Fraction(sum(1 << (e - len(m)) for m in family.maps), 1 << e)


def weight_lower_bound_certificate(family: Family) -> str:
    """"colorable-guaranteed" when weight < 1 (a coloring must exist), else "inconclusive"."""
    return "colorable-guaranteed" if weight(family) < 1 else "inconclusive"


def sub_family(family: Family, subset: Iterable[VertexId]) -> tuple[Family, Family]:
    """Split the maps whose domain contains `subset` by the parity of their sum on it.

    Returns (even-parity family, odd-parity family).  An empty subset selects
    every map into the even side.
    """
    s = frozenset(subset)
    even, odd = [], []
    for m in family.maps:
        d = m.as_dict()
        if s <= d.keys():
            (odd if sum(d[v] for v in s) & 1 else even).append(m)
    return Family.of(even), Family.of(odd)


class MultiplicityTable:
    """Multiplicity of every coloring: how many maps each coloring contains.

    One enumeration pass shared by the parity identity's right side and the
    weight-one audit.  `ambient` may extend the family's universe; `ranks`
    maps each ambient vertex to its code bit.  `counts` is unsigned (see the
    module docstring): cast it before subtracting.
    """

    def __init__(self, family: Family, ambient: Sequence[VertexId] | None = None):
        universe = family.universe
        amb = tuple(sorted(set(ambient))) if ambient is not None else universe
        if not set(universe) <= set(amb):
            raise OutOfUniverseError("ambient must contain the family universe")
        n = len(amb)
        _check_size(n, "DPCOVER_PARITY_LIMIT", DEFAULT_PARITY_LIMIT, "ambient")
        self.ambient = amb
        self.ranks = family.ranks if amb == universe else {v: i for i, v in enumerate(amb)}
        self.n = n
        cubes = _Subcubes(family, self.ranks)
        self.counts = np.zeros(1 << n, dtype=cubes.dtype)
        for lo, j in cubes.chunks():
            cubes.counts(lo, j, self.counts[lo : lo + (1 << j)])

    def multiplicity(self, bits: int) -> int:
        return int(self.counts[bits])

    def min(self) -> int:
        return int(self.counts.min())

    def max(self) -> int:
        return int(self.counts.max())

    def histogram(self) -> dict[int, int]:
        values, freq = np.unique(self.counts, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, freq)}

    def signed_sum(self, sign_mask: int) -> int:
        """Sum over all colorings f of (-1)^popcount(f & sign_mask) * multiplicity(f)."""
        folded = self.counts
        for i in range(self.n):  # sum out bit i, the lowest left
            pairs = folded.reshape(-1, 2)
            zero = pairs[:, 0].astype(np.int64)  # counts are unsigned
            folded = zero - pairs[:, 1] if sign_mask >> i & 1 else zero + pairs[:, 1]
        return int(folded[0])


@dataclass(frozen=True)
class ParityResidual:
    """Both sides of the signed-weight identity for a vertex set S.

    lhs = w(even side) - w(odd side) of the S-split; rhs is the signed average
    of multiplicities, 2^(-n) * sum_f (-1)^(sum of f on S) * multiplicity(f).
    The two sides are equal for every family and every S inside the ambient.
    """

    subset: tuple[VertexId, ...]
    lhs: Fraction
    rhs: Fraction
    ambient: tuple[VertexId, ...]

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def parity_identity(
    family: Family,
    subset: Iterable[VertexId],
    *,
    table: MultiplicityTable | None = None,
) -> ParityResidual:
    """Evaluate both sides of the signed-weight identity independently.

    The left side is combinatorial (weights of the S-split); the right side is
    an exhaustive enumeration over the ambient universe: the family's universe
    and S, or the ambient of a prebuilt MultiplicityTable passed to share the
    pass.
    """
    s = tuple(sorted(set(subset)))
    if table is None:
        table = MultiplicityTable(family, family.universe + s)
    elif not set(s) <= set(table.ambient):
        raise OutOfUniverseError("subset not inside the table's ambient")
    even, odd = sub_family(family, s)
    lhs = weight(even) - weight(odd)
    sign_mask = sum(1 << table.ranks[v] for v in s)
    rhs = Fraction(table.signed_sum(sign_mask), 1 << table.n)
    return ParityResidual(s, lhs, rhs, table.ambient)


def cover_multiplicity(family: Family, coloring: Coloring) -> int:
    """Number of maps contained in the coloring."""
    return sum(not avoids(coloring, m) for m in family.maps)


@dataclass(frozen=True)
class AuditViolation:
    clause: str
    detail: str


@dataclass(frozen=True)
class WeightOneAudit:
    """Joint consistency check for weight-1 families.

    Clauses, in report order:
      (a) weight-is-one          total weight equals 1
      (b) no-coloring            no coloring avoids every map
      (c) multiplicity-one       every coloring contains exactly one map
      (d) parity-balance         w(even) = w(odd) for the S-split, for every
                                 nonempty S contained in some domain (for any
                                 other S both sides are empty, so the identity
                                 holds vacuously)
    All clauses are evaluated independently; `violations` lists every failure.
    """

    family_weight: Fraction
    violations: tuple[AuditViolation, ...]

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> AuditViolation | None:
        return self.violations[0] if self.violations else None

    @property
    def verdict(self) -> str:
        return "consistent" if self.consistent else f"violated:{self.violations[0].clause}"


_WHT_BATCH = 1 << 14  # cells: blocks this small are not split, and the search step


def _lex_first(masks: np.ndarray) -> int:
    """Of distinct masks of one popcount, the one whose sorted bit positions
    come first: at each bit from the lowest up, the masks that set it win."""
    bit = 0
    while masks.size > 1:
        hit = masks[(masks >> bit & 1) == 1]
        if hit.size:
            masks = hit
        bit += 1
    return int(masks[0])


def _first_unbalanced(counts: np.ndarray) -> int | None:
    """The nonzero S (a code mask) with a nonzero Walsh-Hadamard coefficient
    sum_f (-1)^popcount(f & S) * counts[f], the smallest popcount first and
    then the first sorted bit positions; None when there is none, that is,
    when the table is constant.

    The coefficient of S = (S_hi, S_lo), split at the top h bits, is the
    transform over the low m = n - h bits of one block: the sum of the
    table's 2^h rows of 2^m cells, row f_hi signed (-1)^popcount(f_hi & S_hi).
    h is the smallest that leaves a block within _WHT_BATCH cells, or its two
    buffers within the table's bytes.  Each block is built and transformed in
    turn, in m passes between the two buffers: a pass writes the sums of
    adjacent cells to the first half of the other buffer and their
    differences to the second half, so it combines the lowest index bit and
    rotates it to the top; after m passes every bit is combined and back in
    place.  A pass is two numpy calls with strided reads and contiguous
    writes.  The work is about (n + 2^h) * 2^n cell operations.  Cells are
    int32 while the table sums below 2^31, since no partial sum exceeds that
    sum, and int64 otherwise.  Each transformed block is searched for nonzero
    coefficients _WHT_BATCH cells at a time, so the index arrays stay small.
    """
    n = counts.size.bit_length() - 1
    dtype = np.dtype(np.int32 if int(counts.sum(dtype=np.uint64)) < 1 << 31 else np.int64)
    h = 0
    while 1 << (n - h) > _WHT_BATCH and dtype.itemsize << (n - h + 1) > counts.nbytes:
        h += 1
    m = n - h
    rows = counts.reshape(1 << h, 1 << m)
    x, y = np.empty(1 << m, dtype), np.empty(1 << m, dtype)
    half = len(x) // 2
    best: int | None = None
    for s_hi in range(1 << h):
        x[...] = rows[0]
        for f_hi in range(1, 1 << h):
            signed = np.subtract if (f_hi & s_hi).bit_count() & 1 else np.add
            signed(x, rows[f_hi], out=x)
        for _ in range(m):
            np.add(x[0::2], x[1::2], out=y[:half])
            np.subtract(x[0::2], x[1::2], out=y[half:])
            x, y = y, x
        if s_hi == 0:
            x[0] = 0  # the empty S
        for lo in range(0, len(x), _WHT_BATCH):
            masks = s_hi << m | lo + np.flatnonzero(x[lo : lo + _WHT_BATCH])
            if best is not None:
                masks = np.append(masks, best)
            if masks.size:
                pops = np.bitwise_count(masks)
                best = _lex_first(masks[pops == pops.min()])
    return best


def weight_one_audit(family: Family) -> WeightOneAudit:
    """Audit the package of facts forced on non-colorable weight-1 families.

    Every clause is evaluated, whatever the others find.  Clauses (b), (c)
    and (d) read one MultiplicityTable.  Only when the table is not constant
    does clause (d) name an unbalanced S: the first by size, then in sorted
    order, found by one Walsh-Hadamard transform of the table
    (_first_unbalanced: about n * 2^n cell operations, one block at a time,
    the block's two buffers within the table's bytes unless a block has at
    most 2^14 cells), and its two sides are weighed in one pass over the
    maps.
    """
    _check_size(len(family.universe), "DPCOVER_PARITY_LIMIT", DEFAULT_PARITY_LIMIT)
    violations: list[AuditViolation] = []
    w = weight(family)
    if w != 1:
        violations.append(AuditViolation("weight-is-one", f"weight is {w}"))

    table = MultiplicityTable(family)
    free = int(np.argmax(table.counts == 0))
    if table.counts[free] == 0:
        witness = _checked_witness(family, family.universe, free)
        violations.append(AuditViolation("no-coloring", f"coloring {witness.bits} avoids every map"))

    first_bad = int(np.argmax(table.counts != 1))
    if table.counts[first_bad] != 1:
        violations.append(
            AuditViolation(
                "multiplicity-one",
                f"coloring {first_bad} contains {table.multiplicity(first_bad)} maps",
            )
        )

    # (d) By the parity identity, w(even) - w(odd) for S is 2^-n times the
    # Walsh-Hadamard coefficient of the counts at S, so some nonempty S is
    # unbalanced exactly when the table is not constant.  Only then does the
    # transform name the first such S, whose two sides are then weighed.
    if table.min() != table.max():
        mask = _first_unbalanced(table.counts)
        s = [v for i, v in enumerate(family.universe) if mask >> i & 1]
        even, odd = sub_family(family, s)
        violations.append(
            AuditViolation(
                "parity-balance",
                f"S={s}: even side weighs {weight(even)}, odd side weighs {weight(odd)}",
            )
        )

    return WeightOneAudit(w, tuple(violations))


def domination_orphans(family: Family) -> tuple[PartialMap, ...]:
    """Maps whose domain is contained in no other map's domain.

    Non-colorable weight-1 families have none: every map's domain sits inside
    another member's domain.
    """
    sets = {d: frozenset(d) for d, _ in family.domains}
    larger_first = sorted(sets.values(), key=len, reverse=True)
    orphan = {
        d
        for d, group in family.domains
        if len(group) == 1  # no other map shares the domain
        and not any(sets[d] < o for o in takewhile(lambda o: len(o) > len(d), larger_first))
    }
    return tuple(m for m in family.maps if m.domain in orphan)


def complement_pair_parity_mismatches(family: Family) -> tuple[tuple[VertexId, ...], ...]:
    """Edges carrying a complementary map pair whose entry sums differ mod 2.

    A complementary pair on d has entry sums s and |d| - s, which differ mod 2
    exactly when |d| is odd; for even edge sizes there can be none.
    """
    return tuple(
        d
        for d, group in family.domains
        if len(d) % 2 and len(group) == 2 and group[0] == group[1].complement()
    )


# ----------------------------------------------------------------------------
# Claim checking: small machine-checkable descriptors attached to gadgets.
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimResult:
    kind: str
    ok: bool
    message: str


def _is_constant(codes: np.ndarray, ranks: Sequence[int]) -> np.ndarray:
    """Whether each code's bits at `ranks` all agree: all clear or all set."""
    mask = sum(1 << r for r in set(ranks))
    on = codes & mask
    return (on == 0) | (on == mask)


class _ClaimScope:
    """What the claims on one family share, each part computed on first use."""

    def __init__(self, family: Family):
        self.family = family

    @cached_property
    def profile(self) -> FamilyProfile:
        return classify(self.family)

    @cached_property
    def codes(self) -> np.ndarray:
        return avoiding_codes(self.family)


# Set by check_claims around its check_claim calls, so that they share one scope.
_SCOPE: ContextVar[_ClaimScope | None] = ContextVar("_SCOPE", default=None)


def check_claim(family: Family, claim: dict) -> ClaimResult:
    """Verify one claim descriptor against the family by direct computation.

    Raises ValueError when the claim lacks a field its kind needs, or when a
    field has the wrong type.  Only a kind that needs a table or the avoiding
    colorings builds one, after its fields check out, so only such a kind can
    raise UniverseTooLargeError.
    """
    kind = claim.get("kind", "")
    scope = _SCOPE.get()
    if scope is None or scope.family is not family:
        scope = _ClaimScope(family)

    def field(name: str, *types: type) -> Any:
        """claim[name], which must be an instance of one of `types`; a bool
        is not an int."""
        if name not in claim:
            raise ValueError(f"claim {kind!r} has no {name!r} field")
        value = claim[name]
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            want = " or ".join(t.__name__ for t in types)
            raise ValueError(
                f"claim {kind!r} field {name!r} must be {want}, not {type(value).__name__}"
            )
        return value

    def is_vertex_list(value: Any, size: int | None = None) -> bool:
        return (
            isinstance(value, (list, tuple))
            and all(type(v) is int for v in value)
            and size in (None, len(value))
        )

    def vertices(name: str, size: int | None = None) -> list[VertexId]:
        value = field(name, list, tuple)
        if not is_vertex_list(value, size):
            ids = "integer vertex ids" if size is None else f"{size} integer vertex ids"
            raise ValueError(f"claim {kind!r} field {name!r} must list {ids}")
        return list(value)

    def pairs(name: str) -> list[list[VertexId]]:
        value = field(name, list, tuple)
        if not all(is_vertex_list(p, 2) for p in value):
            raise ValueError(f"claim {kind!r} field {name!r} must list pairs of integer vertex ids")
        return [list(p) for p in value]

    def fail(msg: str) -> ClaimResult:
        return ClaimResult(kind, False, msg)

    def ok(msg: str = "") -> ClaimResult:
        return ClaimResult(kind, True, msg)

    if kind == "map-count":
        want = field("value", int)
        return ok() if len(family) == want else fail(f"{len(family)} maps, expected {want}")
    if kind == "universe-size":
        want = field("value", int)
        got = len(family.universe)
        return ok() if got == want else fail(f"{got} vertices, expected {want}")
    if kind == "uniform":
        want, got = field("r", int), scope.profile.uniformity
        return ok() if got == want else fail(f"uniformity {got}, expected {want}")
    if kind == "unary":
        return ok() if scope.profile.is_unary else fail("a domain carries more than one map")
    if kind == "binary":
        return ok() if scope.profile.is_binary else fail("a domain carries more than two maps")
    if kind == "valid-cover":
        edges = field("edges", int) if "edges" in claim else None
        profile = scope.profile
        if profile.cover_of is None:
            reason, edge = profile.cover_violation  # type: ignore[misc]
            return fail(f"{reason} at {list(edge)}")
        if edges is not None and len(profile.cover_of) != edges:
            return fail(f"{len(profile.cover_of)} edges, expected {edges}")
        return ok()
    if kind == "weight":
        got, want = str(weight(family)), field("value", str)
        return ok() if got == want else fail(f"weight {got}, expected {want}")
    if kind == "transversal-domains":
        # Counted before any is built: if the claim holds, no vertex lies in
        # two pairs (a transversal would repeat it, which no domain does), so
        # the transversals are distinct, as many as the product of pair sizes.
        ps, got = [set(p) for p in pairs("pairs")], {d for d, _ in family.domains}
        same = prod(map(len, ps)) == len(got) and got == {tuple(sorted(c)) for c in product(*ps)}
        return ok() if same else fail("domains differ from the pair transversals")
    if kind == "sampled-no-coloring":
        rep = sample_noncolorability(family, field("trials", int), field("seed", int))
        if rep.counterexamples:
            return fail(f"{rep.counterexamples} avoiding colorings in {rep.trials} trials")
        return ok()
    if kind == "multiplicity-histogram":
        want = field("histogram", dict)
        got = {str(k): v for k, v in MultiplicityTable(family).histogram().items()}
        return ok() if got == want else fail(f"histogram {got}, expected {want}")

    def counterexample(
        lists: Sequence[Sequence[VertexId]], *checks: tuple[Callable[..., np.ndarray], str]
    ) -> ClaimResult:
        """FAIL at the first avoiding coloring that bad(codes, *ranks of lists)
        marks, for the first (bad, message) check that marks one.  Every list
        is checked against the universe and ranked once, before scope.codes
        is read."""
        rank = family.ranks
        if any(v not in rank for vs in lists for v in vs):
            return fail("claim mentions a vertex outside the universe")
        ranks = [[rank[v] for v in vs] for vs in lists]
        for bad, message in checks:
            codes = scope.codes
            hit = bad(codes, *ranks)
            if hit.any():
                return fail(f"coloring {int(codes[np.argmax(hit)])} {message}")
        return ok()

    # The remaining kinds quantify over the family's avoiding colorings,
    # which each reads only once its fields check out.
    if kind == "colorable":
        return ok() if scope.codes.size else fail("no coloring avoids every map")
    if kind == "coloring-count":
        want, got = field("value", int), scope.codes.size
        return ok() if got == want else fail(f"{got} colorings, expected {want}")
    if kind == "no-coloring":
        code = next((int(c[0]) for c in _avoider_chunks(family) if c.size), None)
        return ok() if code is None else fail(f"coloring {code} avoids every map")
    if kind == "forces-equal":
        vs = vertices("vertices")
        return counterexample([vs], (lambda c, r: ~_is_constant(c, r), "is not constant there"))
    if kind == "forces-distinct":
        return counterexample([vertices("vertices", 2)], (_is_constant, "agrees on the pair"))
    if kind == "pair-disagreement":
        ps = pairs("pairs")
        return counterexample(
            ps,
            *(
                (lambda c, *rs, i=i: _is_constant(c, rs[i]), f"agrees on pair {pair}")
                for i, pair in enumerate(ps)
            ),
        )
    if kind == "odd-ones":
        return counterexample(
            [vertices("vertices")],
            (
                lambda c, r: sum(((c >> b) & 1 for b in r), np.zeros_like(c)) % 2 == 0,
                "has an even number of ones there",
            ),
        )
    if kind == "constant-implies-constant":
        return counterexample(
            [vertices("src"), vertices("dst")],
            (
                lambda c, s, d: _is_constant(c, s) & ~_is_constant(c, d),
                "is constant on src, not on dst",
            ),
        )
    if kind == "never-both-constant":
        return counterexample(
            [vertices("left"), vertices("right")],
            (
                lambda c, left, right: _is_constant(c, left) & _is_constant(c, right),
                "is constant on both sides",
            ),
        )
    if kind == "constant-side":
        return counterexample(
            [vertices("left"), vertices("right")],
            (
                lambda c, left, right: ~(_is_constant(c, left) | _is_constant(c, right)),
                "is constant on neither side",
            ),
        )

    return fail(f"unknown claim kind {kind!r}")


def check_claims(family: Family, claims: Sequence[dict]) -> tuple[ClaimResult, ...]:
    """check_claim on each claim in order; the profile and the list of all
    avoiding codes are each built at most once for all of them."""
    token = _SCOPE.set(_ClaimScope(family))
    try:
        return tuple(check_claim(family, c) for c in claims)
    finally:
        _SCOPE.reset(token)
