"""Slow, independent reference implementations used to cross-check the fast paths.

Everything here works over explicit dictionaries and Fractions, never over
integer-coded colorings or numpy arrays, so a bug shared with the library
implementation would have to be duplicated by hand to go unnoticed.  The
exceptions are copies of earlier library code kept to pin its exact results
and errors: `slow_check_claim`, a copy of the earlier `check_claim` (it reads
the library's avoiding codes, and `slow_colorings` checks those), and
`slow_classify`, `slow_domain_hypergraph` and
`slow_complement_pair_parity_mismatches`, which group the maps by domain on
each call.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Any, Sequence

import numpy as np

from dpcover import analysis
from dpcover.constructions import GadgetOutput
from dpcover.core import Family, FamilyProfile, Hypergraph, PartialMap, make_partial_map
from dpcover.errors import (
    DuplicateMapError,
    DuplicateVertexError,
    SearchSpaceTooLargeError,
)
from dpcover.search import _KEY_STATE_CAP


def all_assignments(vertices):
    """Every total 0/1 assignment on `vertices` as a dict, in product order."""
    vertices = list(vertices)
    for bits in product((0, 1), repeat=len(vertices)):
        yield dict(zip(vertices, bits))


def contains(assignment: dict, phi: PartialMap) -> bool:
    return all(assignment[v] == b for v, b in phi.entries)


def slow_colorings(family: Family, ambient=None) -> list[dict]:
    universe = ambient if ambient is not None else family.universe
    return [
        f
        for f in all_assignments(universe)
        if not any(contains(f, phi) for phi in family.maps)
    ]


def slow_multiplicities(family: Family, ambient=None) -> list[int]:
    """How many maps each total assignment contains, listed by the assignment's
    code: vertex i of the sorted universe gives bit i, as in the library's tables."""
    universe = sorted(ambient) if ambient is not None else list(family.universe)
    counts = [0] * 2 ** len(universe)
    for f in all_assignments(universe):
        code = sum(f[v] << i for i, v in enumerate(universe))
        counts[code] = sum(1 for phi in family.maps if contains(f, phi))
    return counts


def slow_colorable(family: Family) -> bool:
    return bool(slow_colorings(family))


def slow_weight(family: Family) -> Fraction:
    return sum(
        (Fraction(1, 2 ** len(phi)) for phi in family.maps), Fraction(0)
    )


def slow_parity_rhs(family: Family, subset, ambient) -> Fraction:
    """The enumerated side of the signed weight identity, via Fractions."""
    total = Fraction(0)
    universe = list(ambient)
    for f in all_assignments(universe):
        sign = -1 if sum(f[v] for v in subset) % 2 else 1
        mult = sum(1 for phi in family.maps if contains(f, phi))
        total += sign * mult
    return total / Fraction(2 ** len(universe))


def slow_first_imbalance(family: Family) -> tuple[tuple, Fraction, Fraction] | None:
    """The first S, in (len, S) order over every nonempty subset of every
    domain, whose even and odd sides weigh differently: (S, even weight, odd
    weight), or None.  A map lies on a side of S when its domain holds S; the
    side is the parity of its bits there."""
    subsets = {
        s
        for phi in family.maps
        for k in range(1, len(phi) + 1)
        for s in combinations(phi.domain, k)
    }
    for s in sorted(subsets, key=lambda t: (len(t), t)):
        sides = ([], [])
        for phi in family.maps:
            d = dict(phi.entries)
            if all(v in d for v in s):
                sides[sum(d[v] for v in s) % 2].append(phi)
        even, odd = (slow_weight(Family.of(side)) for side in sides)
        if even != odd:
            return s, even, odd
    return None


def slow_domination_orphans(family: Family) -> tuple[PartialMap, ...]:
    """Maps whose domain lies inside no other map's domain, in family order."""
    return tuple(
        phi
        for phi in family.maps
        if not any(
            other != phi and set(phi.domain) <= set(other.domain) for other in family.maps
        )
    )


def slow_domain_hypergraph(family: Family) -> Hypergraph:
    """The earlier domain_hypergraph: every map's domain, normalised."""
    return Hypergraph.of(m.domain for m in family.maps)


def slow_classify(family: Family, candidate: Hypergraph | None = None) -> FamilyProfile:
    """The earlier classify, grouping the maps by domain on each call."""
    target = slow_domain_hypergraph(family) if candidate is None else candidate
    sizes = {len(m) for m in family.maps}
    uniformity = sizes.pop() if len(sizes) == 1 else None

    by_domain: dict[tuple, list[PartialMap]] = {}
    for m in family.maps:
        by_domain.setdefault(m.domain, []).append(m)
    counts = Counter({d: len(ms) for d, ms in by_domain.items()})
    is_unary = all(c == 1 for c in counts.values())
    is_binary = all(c <= 2 for c in counts.values())

    edge_set = set(target.edges)
    violation = None
    for domain in sorted(by_domain, key=lambda d: (len(d), d)):
        group = by_domain[domain]
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
        is_unary=is_unary,
        is_binary=is_binary,
        cover_of=target if violation is None else None,
        cover_violation=violation,
        universe_size=len(family.universe),
        map_count=len(family.maps),
    )


def slow_complement_pair_parity_mismatches(family: Family) -> tuple[tuple, ...]:
    """The earlier complement_pair_parity_mismatches: the entry sums of each
    complementary pair, compared mod 2."""
    by_domain: dict[tuple, list[PartialMap]] = {}
    for m in family.maps:
        by_domain.setdefault(m.domain, []).append(m)
    bad = []
    for domain in sorted(by_domain, key=lambda d: (len(d), d)):
        group = by_domain[domain]
        if len(group) == 2 and group[0] == group[1].complement():
            s0 = sum(b for _, b in group[0].entries)
            s1 = sum(b for _, b in group[1].entries)
            if (s0 - s1) % 2:
                bad.append(domain)
    return tuple(bad)


def slow_sample(family: Family, trials: int, seed: int) -> tuple[int, dict | None]:
    """(counterexample count, first counterexample as a dict) over the sampler's
    stream: PCG64(seed) bytes drawn in blocks of at most 2 MiB of whole trials,
    trial t's vertex universe[i] taking bit i of its bytes read little-endian."""
    universe = family.universe
    nbytes = (len(universe) + 7) // 8
    rng = np.random.Generator(np.random.PCG64(seed))
    block_trials = max(1, min(trials, (1 << 21) // max(1, nbytes)))
    count, first = 0, None
    for lo in range(0, trials, block_trials):
        batch = min(block_trials, trials - lo)
        block = rng.bytes(batch * nbytes) if nbytes else b""
        for t in range(batch):
            code = int.from_bytes(block[t * nbytes : (t + 1) * nbytes], "little")
            f = {v: (code >> i) & 1 for i, v in enumerate(universe)}
            if not any(contains(f, phi) for phi in family.maps):
                count += 1
                if first is None:
                    first = f
    return count, first


def slow_serialize(obj: GadgetOutput | Family) -> str:
    """The family document through the plain indent=2 encoder, in its fixed
    field order: the reference for cli.serialize's bytes."""
    if isinstance(obj, Family):
        obj = GadgetOutput(obj, {}, "user:family")
    doc = {
        "format_version": "1",
        "source": obj.source,
        "labels": {name: obj.labels[name] for name in sorted(obj.labels)},
        "maps": [[[v, b] for v, b in m.entries] for m in obj.family.maps],
        "claimed_properties": obj.claimed_properties,
        "notes": {k: obj.notes[k] for k in sorted(obj.notes)},
    }
    return json.dumps(doc, indent=2) + "\n"


# The constructors and the document parser as they were before each map was
# validated in one pass: a duplicate scan in the given order, then a sort, then
# PartialMap.__post_init__'s loop (copied here, so the oracle does not share
# the library's validator); Family.of sorting through PartialMap's order=True
# comparisons; parse building the family under the cyclic collector.
def _slow_check_entries(entries) -> None:
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


def slow_make_partial_map(pairs) -> PartialMap:
    pairs = list(pairs)
    seen = set()
    for vertex, _ in pairs:
        if vertex in seen:
            raise DuplicateVertexError(f"vertex {vertex} appears twice")
        seen.add(vertex)
    entries = tuple(sorted(pairs))
    _slow_check_entries(entries)
    return PartialMap(entries)


def slow_family_of(maps) -> Family:
    maps = sorted(maps)
    for a, b in zip(maps, maps[1:]):
        if a == b:
            raise DuplicateMapError(f"duplicate map {a.entries}")
    return Family(tuple(maps))


def slow_parse(text: str) -> GadgetOutput:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if doc.get("format_version") != "1":
        raise ValueError(
            f"unsupported format_version {doc.get('format_version')!r}"
        )
    maps = _slow_field(doc, "maps", list)
    family = slow_family_of(
        slow_make_partial_map(_slow_entries(i, e)) for i, e in enumerate(maps)
    )
    labels = _slow_field(doc, "labels", dict)
    if not all(type(v) is int for v in labels.values()):
        raise ValueError("label values must be integer vertex ids")
    claims = _slow_field(doc, "claimed_properties", list)
    if not all(isinstance(c, dict) and isinstance(c.get("kind"), str) for c in claims):
        raise ValueError("each claimed property must be an object with a string 'kind'")
    notes = {str(k): str(v) for k, v in _slow_field(doc, "notes", dict).items()}
    return GadgetOutput(family, labels, str(doc.get("source", "")), claims, notes)


def _slow_entries(i: int, entry_list: object) -> list[tuple[int, int]]:
    if type(entry_list) is list:
        for pair in entry_list:
            if type(pair) is not list or len(pair) != 2:
                break
            if type(pair[0]) is not int or type(pair[1]) is not int:
                break
        else:
            return list(map(tuple, entry_list))
    raise ValueError(f"maps[{i}] is not a list of [vertex, bit] integer pairs")


def _slow_field(doc: dict, name: str, kind: type) -> list | dict:
    value = doc.get(name, kind())
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a JSON {'array' if kind is list else 'object'}")
    return value


def cnf_satisfiable(text: str) -> bool:
    """Brute-force DIMACS satisfiability over all assignments."""
    clauses = []
    n_vars = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            assert parts[:2] == ["p", "cnf"]
            n_vars = int(parts[2])
            continue
        literals = [int(x) for x in line.split()]
        assert literals[-1] == 0
        clauses.append(literals[:-1])
    for bits in product((False, True), repeat=n_vars):
        def true(lit):
            return bits[abs(lit) - 1] if lit > 0 else not bits[abs(lit) - 1]
        if all(any(true(lit) for lit in clause) for clause in clauses):
            return True
    return False


def random_family(
    rng: random.Random,
    *,
    max_vertices: int = 6,
    max_maps: int = 6,
    min_map_size: int = 1,
    allow_empty: bool = False,
) -> Family:
    """A pseudo-random duplicate-free family on vertices 0 .. max_vertices-1."""
    n_maps = rng.randint(0 if allow_empty else 1, max_maps)
    maps = {}
    attempts = 0
    while len(maps) < n_maps and attempts < 200:
        attempts += 1
        size = rng.randint(min_map_size, max_vertices)
        domain = rng.sample(range(max_vertices), size)
        entries = tuple(sorted((v, rng.randint(0, 1)) for v in domain))
        maps[entries] = make_partial_map(entries)
    return Family.of(list(maps.values()))


def random_unary_uniform_family(
    rng: random.Random, *, r: int, max_vertices: int, n_maps: int
) -> Family:
    """Distinct r-subsets of the vertex pool with random values."""
    domains = list(combinations(range(max_vertices), r))
    rng.shuffle(domains)
    chosen = domains[:n_maps]
    maps = [
        make_partial_map([(v, rng.randint(0, 1)) for v in domain])
        for domain in chosen
    ]
    return Family.of(maps)


# Reference for search._completion_dfs without its candidate list: every pool
# map is tested against the representative's domains and the chosen suffix.
def slow_completion_dfs(
    pool, rep: tuple[int, ...], budget: int
) -> tuple[int | None, tuple[int, ...] | None, int]:
    """Depth-first completion of one representative by ascending map indices.

    Returns (best total size, witness indices, nodes visited).  Within this
    representative the first witness found at the running minimum size is
    kept, and once a witness of size s exists only strictly smaller totals
    are explored; the traversal order is fixed, so the outcome does not
    depend on how representatives are distributed over workers.
    """
    surv = pool.full
    used_domains = set()
    for i in rep:
        surv &= ~pool.kill[i]
        used_domains.add(pool.domain_id[i])
    base = len(rep)
    n_maps = len(pool.maps)
    best_size: int | None = None
    best_indices: tuple[int, ...] | None = None
    nodes = 0

    # stack entries: (next candidate index, chosen suffix, survivor mask)
    stack = [(0, (), surv)]
    while stack:
        start, chosen, surv_here = stack.pop()
        cap = (budget if best_size is None else best_size - 1) - base
        if len(chosen) >= cap:
            continue
        for idx in range(start, n_maps):
            d_id = pool.domain_id[idx]
            if d_id in used_domains or any(pool.domain_id[j] == d_id for j in chosen):
                continue
            child_surv = surv_here & ~pool.kill[idx]
            nodes += 1
            size = base + len(chosen) + 1
            if child_surv == 0:
                if best_size is None or size < best_size:
                    best_size = size
                    best_indices = rep + chosen + (idx,)
                break  # siblings tie or lose on order, deeper nodes are larger
            if len(chosen) + 1 >= cap:
                continue
            remaining = cap - len(chosen) - 1
            if child_surv.bit_count() > remaining * pool.per_map_kill:
                continue
            stack.append((idx + 1, chosen + (idx,), child_surv))
    return best_size, best_indices, nodes


# Reference for search._key_of_entries: one tie search per orientation, the
# minimum of the two code sequences, then the byte encoding.
def _min_code_sequence(maps: list[tuple[tuple[int, int], ...]]) -> tuple:
    """Lexicographically smallest sorted code list over all dense relabelings.

    A state is a partial relabeling (sigma) plus the set of maps not yet
    emitted.  Each step emits the smallest code any remaining map can still
    reach: labeled vertices keep their labels, unlabeled ones take the next
    dense labels with their values in ascending order.  All states and all
    fresh-label assignments that achieve the minimum are kept, so the greedy
    choice is exact; candidate codes only grow as labels are pinned down.
    """
    n_maps = len(maps)
    states: list[tuple[frozenset[int], tuple[tuple[int, int], ...]]] = [
        (frozenset(range(n_maps)), ())
    ]
    sequence = []
    for _ in range(n_maps):
        best_code = None
        options = []  # (state_index, map_index, zeros, ones) achieving best_code
        for s_idx, (remaining, sigma_items) in enumerate(states):
            sigma = dict(sigma_items)
            k = len(sigma)
            for m_idx in remaining:
                labeled = []
                zeros, ones = [], []
                for v, bit in maps[m_idx]:
                    if v in sigma:
                        labeled.append((sigma[v], bit))
                    elif bit == 0:
                        zeros.append(v)
                    else:
                        ones.append(v)
                labeled.sort()
                fresh_bits = [0] * len(zeros) + [1] * len(ones)
                code = tuple(labeled) + tuple(
                    (k + j, fresh_bits[j]) for j in range(len(fresh_bits))
                )
                if best_code is None or code < best_code:
                    best_code = code
                    options = [(s_idx, m_idx, zeros, ones)]
                elif code == best_code:
                    options.append((s_idx, m_idx, zeros, ones))
        sequence.append(best_code)
        next_states = set()
        for s_idx, m_idx, zeros, ones in options:
            remaining, sigma_items = states[s_idx]
            sigma = dict(sigma_items)
            k = len(sigma)
            for zs in permutations(zeros):
                for os_ in permutations(ones):
                    new_sigma = dict(sigma)
                    for j, v in enumerate(zs + os_):
                        new_sigma[v] = k + j
                    next_states.add(
                        (remaining - {m_idx}, tuple(sorted(new_sigma.items())))
                    )
        if len(next_states) > _KEY_STATE_CAP:
            raise SearchSpaceTooLargeError(
                f"canonical key tie set exceeded {_KEY_STATE_CAP} states"
            )
        states = sorted(next_states)
    return tuple(sequence)


def _encode_sequence(sequence: tuple) -> bytes:
    out = bytearray()
    for code in sequence:
        out.append(len(code))
        for label, bit in code:
            out.append(label)
            out.append(bit)
    return bytes(out)


def slow_key_of_entries(maps: list[tuple[tuple[int, int], ...]]) -> bytes:
    """canonical_key's bytes for the family with these entry tuples.

    The minimum runs over both the maps and their global flips; the caller
    bounds the universe.
    """
    flipped = [tuple((v, 1 - bit) for v, bit in entries) for entries in maps]
    return _encode_sequence(min(_min_code_sequence(maps), _min_code_sequence(flipped)))


def _slow_is_constant(codes: np.ndarray, ranks) -> np.ndarray:
    if not ranks:
        return np.ones(codes.shape, dtype=bool)
    cols = np.stack([(codes >> r) & 1 for r in ranks])
    return (cols == cols[0]).all(axis=0)


def slow_check_claim(family: Family, claim: dict) -> analysis.ClaimResult:
    """check_claim as it was before one helper served every avoiding-colorings
    kind: each kind reads scope.codes and formats its FAIL line itself."""
    kind = claim.get("kind", "")
    scope = analysis._ClaimScope(family)
    profile = analysis.classify(family)

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

    def vertices(name: str, size: int | None = None) -> list[int]:
        value = field(name, list, tuple)
        if not is_vertex_list(value, size):
            ids = "integer vertex ids" if size is None else f"{size} integer vertex ids"
            raise ValueError(f"claim {kind!r} field {name!r} must list {ids}")
        return list(value)

    def pairs(name: str) -> list[list[int]]:
        value = field(name, list, tuple)
        if not all(is_vertex_list(p, 2) for p in value):
            raise ValueError(f"claim {kind!r} field {name!r} must list pairs of integer vertex ids")
        return [list(p) for p in value]

    def ranks_of(vs: Sequence[int]) -> list[int] | None:
        rank = scope.rank
        if any(v not in rank for v in vs):
            return None
        return [rank[v] for v in vs]

    def fail(msg: str) -> analysis.ClaimResult:
        return analysis.ClaimResult(kind, False, msg)

    def ok(msg: str = "") -> analysis.ClaimResult:
        return analysis.ClaimResult(kind, True, msg)

    if kind == "map-count":
        want = field("value", int)
        return ok() if len(family) == want else fail(f"{len(family)} maps, expected {want}")
    if kind == "universe-size":
        want = field("value", int)
        got = len(family.universe)
        return ok() if got == want else fail(f"{got} vertices, expected {want}")
    if kind == "uniform":
        want = field("r", int)
        if profile.uniformity == want:
            return ok()
        return fail(f"uniformity {profile.uniformity}, expected {want}")
    if kind == "unary":
        return ok() if profile.is_unary else fail("a domain carries more than one map")
    if kind == "binary":
        return ok() if profile.is_binary else fail("a domain carries more than two maps")
    if kind == "valid-cover":
        edges = field("edges", int) if "edges" in claim else None
        if profile.cover_of is None:
            reason, edge = profile.cover_violation  # type: ignore[misc]
            return fail(f"{reason} at {list(edge)}")
        if edges is not None and len(profile.cover_of) != edges:
            return fail(f"{len(profile.cover_of)} edges, expected {edges}")
        return ok()
    if kind == "weight":
        got, want = str(analysis.weight(family)), field("value", str)
        return ok() if got == want else fail(f"weight {got}, expected {want}")
    if kind == "transversal-domains":
        want = {tuple(sorted(choice)) for choice in product(*pairs("pairs"))}
        got = {m.domain for m in family.maps}
        return ok() if got == want else fail("domains differ from the pair transversals")
    if kind == "sampled-no-coloring":
        rep = analysis.sample_noncolorability(family, field("trials", int), field("seed", int))
        if rep.counterexamples:
            return fail(f"{rep.counterexamples} avoiding colorings in {rep.trials} trials")
        return ok()
    if kind == "multiplicity-histogram":
        want = field("histogram", dict)
        got = {str(k): v for k, v in analysis.MultiplicityTable(family).histogram().items()}
        return ok() if got == want else fail(f"histogram {got}, expected {want}")

    # The remaining kinds quantify over the family's avoiding colorings,
    # scope.codes, which each reads only once its fields check out.
    if kind == "no-coloring":
        codes = scope.codes
        if codes.size:
            return fail(f"coloring {int(codes[0])} avoids every map")
        return ok()
    if kind == "colorable":
        return ok() if scope.codes.size else fail("no coloring avoids every map")
    if kind == "coloring-count":
        want, got = field("value", int), scope.codes.size
        return ok() if got == want else fail(f"{got} colorings, expected {want}")
    if kind == "forces-equal":
        rs = ranks_of(vertices("vertices"))
        if rs is None:
            return fail("claim mentions a vertex outside the universe")
        codes = scope.codes
        bad = np.flatnonzero(~_slow_is_constant(codes, rs))
        if bad.size:
            return fail(f"coloring {int(codes[bad[0]])} is not constant there")
        return ok()
    if kind == "forces-distinct":
        rs = ranks_of(vertices("vertices", 2))
        if rs is None:
            return fail("claim mentions a vertex outside the universe")
        a, b = rs
        codes = scope.codes
        bad = np.flatnonzero(((codes >> a) & 1) == ((codes >> b) & 1))
        if bad.size:
            return fail(f"coloring {int(codes[bad[0]])} agrees on the pair")
        return ok()
    if kind == "pair-disagreement":
        ranked = [(pair, ranks_of(pair)) for pair in pairs("pairs")]
        if any(rs is None for _, rs in ranked):
            return fail("claim mentions a vertex outside the universe")
        for pair, (a, b) in ranked:
            codes = scope.codes
            bad = np.flatnonzero(((codes >> a) & 1) == ((codes >> b) & 1))
            if bad.size:
                return fail(f"coloring {int(codes[bad[0]])} agrees on pair {list(pair)}")
        return ok()
    if kind == "odd-ones":
        rs = ranks_of(vertices("vertices"))
        if rs is None:
            return fail("claim mentions a vertex outside the universe")
        codes = scope.codes
        parity = np.zeros(codes.shape, dtype=np.int64)
        for r in rs:
            parity ^= (codes >> r) & 1
        bad = np.flatnonzero(parity == 0)
        if bad.size:
            return fail(f"coloring {int(codes[bad[0]])} has an even number of ones there")
        return ok()
    if kind == "constant-implies-constant":
        src, dst = ranks_of(vertices("src")), ranks_of(vertices("dst"))
        if src is None or dst is None:
            return fail("claim mentions a vertex outside the universe")
        codes = scope.codes
        bad = np.flatnonzero(_slow_is_constant(codes, src) & ~_slow_is_constant(codes, dst))
        if bad.size:
            return fail(f"coloring {int(codes[bad[0]])} is constant on src, not on dst")
        return ok()
    if kind == "never-both-constant":
        left, right = ranks_of(vertices("left")), ranks_of(vertices("right"))
        if left is None or right is None:
            return fail("claim mentions a vertex outside the universe")
        codes = scope.codes
        bad = np.flatnonzero(_slow_is_constant(codes, left) & _slow_is_constant(codes, right))
        if bad.size:
            return fail(f"coloring {int(codes[bad[0]])} is constant on both sides")
        return ok()
    if kind == "constant-side":
        left, right = ranks_of(vertices("left")), ranks_of(vertices("right"))
        if left is None or right is None:
            return fail("claim mentions a vertex outside the universe")
        codes = scope.codes
        bad = np.flatnonzero(~(_slow_is_constant(codes, left) | _slow_is_constant(codes, right)))
        if bad.size:
            return fail(f"coloring {int(codes[bad[0]])} is constant on neither side")
        return ok()

    return fail(f"unknown claim kind {kind!r}")
