"""Seeded input documents for the benchmark workloads.

Pure Python and independent of dpcover: the same (workload, seed) always
gives the same documents, and dpcover only ever sees these documents (or the
families read back from them).  Every document uses dpcover's format_version
"1" layout, so the CLI can read it as it stands.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

Map = list[tuple[int, int]]

DOCUMENTS = "documents.json"

# Sizes of the seeded inputs; the smoke sizes serve the benchmark's own tests.
SIZES = {
    "full": {"desk_random": 16, "planted": 2, "planted_n": 20, "planted_m": 150,
             "canon_pairs": 400},
    "smoke": {"desk_random": 3, "planted": 1, "planted_n": 12, "planted_m": 40,
              "canon_pairs": 8},
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def document(maps: list[Map], source: str, claims: list[dict] | None = None) -> dict:
    """A format_version "1" family document with maps in canonical order."""
    return {
        "format_version": "1",
        "source": source,
        "labels": {},
        "maps": sorted([[v, b] for v, b in sorted(m)] for m in maps),
        "claimed_properties": claims or [],
        "notes": {},
    }


def family_maps(doc: dict) -> list[Map]:
    return [[(int(v), int(b)) for v, b in m] for m in doc["maps"]]


def desk_random_family(rng: random.Random) -> list[Map]:
    """A mixed-size family on at most 10 vertices, every map distinct and nonempty."""
    n = rng.randint(4, 10)
    target = rng.randint(4, 24)
    seen: set[tuple] = set()
    maps: list[Map] = []
    while len(maps) < target:
        k = rng.randint(1, min(4, n))
        domain = sorted(rng.sample(range(n), k))
        m = tuple((v, rng.randint(0, 1)) for v in domain)
        if m not in seen:
            seen.add(m)
            maps.append(list(m))
    return maps


def planted_family(rng: random.Random, n: int, m: int) -> tuple[list[Map], int]:
    """A 3-uniform family on vertices 0 .. n-1 avoided by a planted coloring.

    The planted code lies in the last sixteenth of the code space (its top
    four bits are set), and the first maps, every map on three of the top
    four vertices that puts a 0 on one of them, rule out every code below
    that sixteenth.  So a first-witness scan covers at least 15/16 of the
    space whatever the seed, while the exact witness position varies with the
    seed.  Every vertex is used, so the universe is exactly 0 .. n-1.
    """
    planted = (0b1111 << (n - 4)) | rng.getrandbits(n - 4)
    top = range(n - 4, n)
    order = list(range(n))
    rng.shuffle(order)
    domains = [tuple(sorted(order[i : i + 3])) for i in range(0, n - 2, 3)]
    if n % 3:
        rest = order[n - n % 3 :]
        domains.append(tuple(sorted(rest + rng.sample(order[: n - n % 3], 3 - len(rest)))))
    maps: list[Map] = [
        list(zip(domain, bits))
        for domain in combinations(top, 3)
        for bits in product((0, 1), repeat=3) if 0 in bits
    ]
    seen = {tuple(entry) for entry in maps}
    while len(maps) < m:
        domain = domains.pop() if domains else tuple(sorted(rng.sample(range(n), 3)))
        bits = [rng.randint(0, 1) for _ in domain]
        if all(b == (planted >> v) & 1 for v, b in zip(domain, bits)):
            i = rng.randrange(3)
            bits[i] ^= 1  # the planted coloring must avoid every map
        entry = tuple(zip(domain, bits))
        if entry not in seen:
            seen.add(entry)
            maps.append(list(entry))
    return maps, planted


def unary_pair(rng: random.Random) -> tuple[list[Map], list[Map]]:
    """A random unary r-uniform family (r in {2, 3}, at most 10 vertices) and a
    relabeled, globally flipped copy of it on labels 0 .. 11.

    r = 1 is left out: its tie sets grow factorially, and one such family
    can cost seconds, which would make the pass time depend on the seed.
    """
    r = rng.choice((2, 3))
    n = rng.randint(r + 2, 10)
    domains = list(combinations(range(n), r))
    rng.shuffle(domains)
    count = rng.randint(4, min(8, len(domains)))
    maps = [[(v, rng.randint(0, 1)) for v in d] for d in domains[:count]]
    labels = rng.sample(range(12), n)
    copy = [[(labels[v], 1 - b) for v, b in m] for m in maps]
    return maps, copy


def weight(maps: list[Map]) -> Fraction:
    return sum((Fraction(1, 1 << len(m)) for m in maps), Fraction(0))


def documents(workload: str, seed: int, size: str = "full") -> dict[str, dict]:
    """File name -> document for the workload's seeded inputs."""
    rng = rng_for(workload, seed)
    sz = SIZES[size]
    docs: dict[str, dict] = {}
    if workload == "desk":
        for i in range(sz["desk_random"]):
            maps = desk_random_family(rng)
            universe = {v for m in maps for v, _ in m}
            claims = [
                {"kind": "map-count", "value": len(maps)},
                {"kind": "universe-size", "value": len(universe)},
                {"kind": "weight", "value": str(weight(maps))},
            ]
            docs[f"random-{i}.json"] = document(maps, f"perfbench:random({seed},{i})", claims)
    elif workload == "dense":
        for i in range(sz["planted"]):
            maps, planted = planted_family(rng, sz["planted_n"], sz["planted_m"])
            doc = document(maps, f"perfbench:planted({seed},{i})")
            doc["notes"] = {"planted": str(planted)}
            docs[f"planted-{i}.json"] = doc
    elif workload == "search":
        for i in range(sz["canon_pairs"]):
            maps, copy = unary_pair(rng)
            docs[f"unary-{i}.json"] = document(maps, f"perfbench:unary({seed},{i})")
            docs[f"unary-{i}-copy.json"] = document(copy, f"perfbench:unary-copy({seed},{i})")
    elif workload != "wide":
        raise ValueError(f"unknown workload {workload!r}")
    return docs


def write_documents(docs: dict[str, dict], directory: Path) -> None:
    """All documents in one file, name -> document (one file keeps set-up free
    of per-file costs; the CLI workload writes its own copies)."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / DOCUMENTS).write_text(json.dumps(docs) + "\n", encoding="utf-8")


def read_documents(directory: Path) -> dict[str, dict]:
    return json.loads((directory / DOCUMENTS).read_text(encoding="utf-8"))
