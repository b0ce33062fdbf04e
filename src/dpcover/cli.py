"""Command-line front end, JSON persistence, and DIMACS CNF export.

The family document is a small JSON object with a fixed field order
(format_version, source, labels, maps, claimed_properties, notes) so that
serializing the same input twice gives byte-identical text.  CNF export maps
the vertex of sorted rank i to DIMACS variable i + 1 and encodes each partial
map as the single clause that is false exactly on the colorings containing
it, so the formula is satisfiable iff the family admits an avoiding coloring.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from typing import IO, Sequence

from . import analysis, constructions, search
from .constructions import GadgetOutput
from .core import Coloring, Family, PartialMap, make_partial_map
from .errors import DpcoverError, EmptyMapPresentError

FORMAT_VERSION = "1"


def serialize(obj: GadgetOutput | Family) -> str:
    """Deterministic JSON text for a gadget output or a bare family.

    The text is json.dumps(doc, indent=2) + "\n" byte for byte.  That encoder
    is pure Python whenever it indents, so each top-level value is rendered on
    its own and nested one level by indenting its lines; `maps`, nearly all
    of a large document, comes from a fixed per-entry template instead.
    """
    if isinstance(obj, Family):
        obj = GadgetOutput(obj, {}, "user:family")
    fields = [
        ("format_version", [_indented(FORMAT_VERSION)]),
        ("source", [_indented(obj.source)]),
        ("labels", [_indented({name: obj.labels[name] for name in sorted(obj.labels)})]),
        ("maps", _maps_chunks(obj.family.maps)),
        ("claimed_properties", [_indented(obj.claimed_properties)]),
        ("notes", [_indented({k: obj.notes[k] for k in sorted(obj.notes)})]),
    ]
    parts = ["{\n"]
    for key, chunks in fields:
        parts += [f'  "{key}": ', *chunks, ",\n"]
    parts[-1] = "\n}\n"
    return "".join(parts)


def _indented(value: object) -> str:
    """json.dumps(value, indent=2) as the value of a top-level key: one level
    deeper.  JSON text has a line break only between tokens, never in a string."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


# One [vertex, bit] entry of a map, as the indent=2 encoder lays it out at
# the depth of an entry inside `maps`; the first entry opens its map.
_ENTRY = "\n      [\n        %d,\n        %d\n      ]"
_FIRST_ENTRY, _NEXT_ENTRY = "[" + _ENTRY, "," + _ENTRY
_CHUNK_PIECES = 4096  # pieces joined at a time: about 145 KB of text for 13-entry maps


def _maps_chunks(maps: tuple[PartialMap, ...]) -> list[str]:
    """_indented of the maps as lists of [vertex, bit] lists, whose entries
    PartialMap keeps plain ints, in consecutive chunks.  One short piece per
    entry: the text of a whole map would be long enough to leave holes in the
    C heap.  Pieces are joined in chunks, never all alive at once (17 MB on
    `binary_family(13)`), and serialize joins the chunks only once."""
    if not maps:
        return ["[]"]
    chunks, pieces = [], ["[\n    "]
    for m in maps:
        if len(pieces) >= _CHUNK_PIECES:
            chunks.append("".join(pieces))
            pieces = []
        if m.entries:
            pieces.append(_FIRST_ENTRY % m.entries[0])
            pieces += [_NEXT_ENTRY % e for e in m.entries[1:]]
            pieces.append("\n    ]")
        else:
            pieces.append("[]")
        pieces.append(",\n    ")
    pieces[-1] = "\n  ]"
    return chunks + ["".join(pieces)]


def parse(text: str) -> GadgetOutput:
    """Inverse of serialize; raises ValueError or a DpcoverError subclass on
    bad content, including a document of the wrong shape.

    `make_partial_map` sorts and checks each map once (`_read_map` reads its
    shape only when that refuses it); `Family.of` then sorts the maps.  The
    cyclic garbage collector is paused for the whole call: the decoded
    document holds one list per entry and per map, none of them in a cycle,
    and with the collector on it re-scanned them as they were made, about a
    third of the call on `binary_family(13)`'s 4.4 MB document.  It is
    switched back on afterwards only if it was on before.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text)
    finally:
        if enabled:
            gc.enable()


def _parse(text: str) -> GadgetOutput:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format_version {doc.get('format_version')!r}"
        )
    maps = _field(doc, "maps", list)
    maps.reverse()  # popped in document order, each map's lists freed once it is read
    family = Family.of(_read_map(i, maps.pop()) for i in range(len(maps)))
    labels = _field(doc, "labels", dict)
    if not all(type(v) is int for v in labels.values()):
        raise ValueError("label values must be integer vertex ids")
    claims = _field(doc, "claimed_properties", list)
    if not all(isinstance(c, dict) and isinstance(c.get("kind"), str) for c in claims):
        raise ValueError("each claimed property must be an object with a string 'kind'")
    notes = {str(k): str(v) for k, v in _field(doc, "notes", dict).items()}
    return GadgetOutput(family, labels, str(doc.get("source", "")), claims, notes)


def _read_map(i: int, entry_list: object) -> PartialMap:
    """Map i, which must be a list of [vertex, bit] integer pairs; the pairs'
    shapes are read only when make_partial_map refuses them."""
    if type(entry_list) is list:
        try:
            return make_partial_map(map(tuple, entry_list))
        except Exception:
            if all(type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int
                   for p in entry_list):
                raise
    raise ValueError(f"maps[{i}] is not a list of [vertex, bit] integer pairs")


def _field(doc: dict, name: str, kind: type) -> list | dict:
    """The optional top-level field `name`, empty when absent; must be a `kind`."""
    value = doc.get(name, kind())
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a JSON {'array' if kind is list else 'object'}")
    return value


def export_cnf(family: Family) -> str:
    """DIMACS CNF text; variable i + 1 is the vertex of sorted rank i.

    Each map contributes one clause: the literal for (x, b) is positive when
    b = 0 and negative when b = 1, so the clause fails exactly on assignments
    whose coloring (variable true = color 1) contains the map.
    """
    if not len(family):
        raise ValueError("cannot export an empty family")
    universe, rank = family.universe, family.ranks
    lines = ["c forbidden partial assignment family, one clause per map"]
    for v in universe:
        lines.append(f"c variable {rank[v] + 1} = vertex {v}")
    lines.append(f"p cnf {len(universe)} {len(family)}")
    for m in family.maps:
        if not len(m):
            raise EmptyMapPresentError("the empty map has no clause encoding")
        literals = [
            (rank[v] + 1) if b == 0 else -(rank[v] + 1) for v, b in m.entries
        ]
        lines.append(" ".join(str(lit) for lit in literals) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand plumbing.
# ---------------------------------------------------------------------------

_PLAIN_GADGETS = {
    "k43": constructions.k43_cover,
    "k54-neq": constructions.k54_neq_cover,
    "k54-eq": constructions.k54_eq_cover,
    "four-uniform-10": constructions.four_uniform_10,
    "nine-edge": constructions.nine_edge_gadget,
    "copy": lambda: constructions.copy_gadget((0, 1, 2), (3, 4, 5)),
    "two-edge": constructions.two_edge_gadget,
    "five-uniform-17": constructions.five_uniform_17,
}

_PARAMETRIC_GADGETS = {
    "binary": constructions.binary_family,
    "parity": constructions.parity_gadget,
    "unary-even": constructions.unary_upper_even,
    "double-unary": constructions.double_unary_gadget,
    "lifted-cover": constructions.lifted_cover,
}

GADGET_NAMES = sorted(_PLAIN_GADGETS) + sorted(_PARAMETRIC_GADGETS)


def _read_document(path: str) -> GadgetOutput:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def _write_text(text: str, path: str | None, out: IO[str]) -> None:
    if path is None or path == "-":
        out.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _profile_line(family: Family) -> str:
    profile = analysis.classify(family)
    uniformity = profile.uniformity if profile.uniformity is not None else "mixed"
    if profile.cover_of is not None:
        cover = f"yes(edges={len(profile.cover_of.edges)})"
    else:
        reason, domain = profile.cover_violation
        cover = f"no({reason}@{list(domain)})"
    return (
        f"profile: maps={profile.map_count} universe={profile.universe_size}"
        f" uniformity={uniformity} unary={'yes' if profile.is_unary else 'no'}"
        f" binary={'yes' if profile.is_binary else 'no'} cover={cover}"
    )


def _cmd_construct(args: argparse.Namespace, out: IO[str], parser: argparse.ArgumentParser) -> int:
    name = args.gadget
    if name in _PLAIN_GADGETS:
        if args.r is not None:
            parser.error(f"gadget {name} takes no --r")
        gadget = _PLAIN_GADGETS[name]()
    else:
        if args.r is None:
            parser.error(f"gadget {name} requires --r")
        gadget = _PARAMETRIC_GADGETS[name](args.r)
    _write_text(serialize(gadget), args.out, out)
    return 0


def _cmd_verify(args: argparse.Namespace, out: IO[str]) -> int:
    doc = _read_document(args.file)
    out.write(_profile_line(doc.family) + "\n")
    failures = 0
    if args.claims:
        results = analysis.check_claims(doc.family, doc.claimed_properties)
        for result in results:
            if result.ok:
                out.write(f"ok {result.kind}\n")
            else:
                out.write(f"FAIL {result.kind}: {result.message}\n")
                failures += 1
        out.write(f"claims: {len(results)} checked, {failures} failed\n")
    out.write("verified\n" if not failures else "violations found\n")
    return 0 if not failures else 1


def _bits_text(coloring: Coloring) -> str:
    """The coloring's colors in sorted universe order, one digit per vertex."""
    n = len(coloring.universe)
    return format(coloring.bits, f"0{n}b")[::-1] if n else ""


def _cmd_color(args: argparse.Namespace, out: IO[str]) -> int:
    doc = _read_document(args.file)
    family = doc.family
    if args.sample is not None:
        report = analysis.sample_noncolorability(
            family, trials=args.sample, seed=args.seed
        )
        out.write(
            f"sampled: trials={report.trials} seed={report.seed}"
            f" counterexamples={report.counterexamples}\n"
        )
        if report.first_counterexample is not None:
            out.write(f"first-counterexample: {_bits_text(report.first_counterexample)}\n")
        return 0
    report = analysis.find_coloring(family, count=args.count)
    if args.count:
        out.write(
            f"colorings: {report.coloring_count} of {report.enumerated}\n"
        )
    elif report.colorable:
        out.write(f"colorable: witness={_bits_text(report.witness)}\n")
    else:
        out.write(f"non-colorable: enumerated={report.enumerated}\n")
    return 0


def _cmd_weight(args: argparse.Namespace, out: IO[str]) -> int:
    doc = _read_document(args.file)
    out.write(str(analysis.weight(doc.family)) + "\n")
    return 0


def _cmd_parity(args: argparse.Namespace, out: IO[str]) -> int:
    doc = _read_document(args.file)
    subset = tuple(int(v) for v in args.set.split(",") if v != "")
    residual = analysis.parity_identity(doc.family, subset)
    out.write(f"lhs: {residual.lhs}\n")
    out.write(f"rhs: {residual.rhs}\n")
    out.write("identity holds\n" if residual.holds else "IDENTITY VIOLATED\n")
    return 0 if residual.holds else 1


def _cmd_audit(args: argparse.Namespace, out: IO[str]) -> int:
    doc = _read_document(args.file)
    audit = analysis.weight_one_audit(doc.family)
    out.write(f"weight: {audit.family_weight}\n")
    out.write(audit.verdict + "\n")
    return 0 if audit.consistent else 1


def _cmd_export_cnf(args: argparse.Namespace, out: IO[str]) -> int:
    doc = _read_document(args.file)
    _write_text(export_cnf(doc.family), args.out, out)
    return 0


def _cmd_search(args: argparse.Namespace, out: IO[str]) -> int:
    report = search.search_min_unary(args.r, args.max_size, args.max_vertices)
    out.write(
        f"search: r={report.r} max_size={report.size_bound}"
        f" max_vertices={report.vertex_bound}\n"
    )
    out.write(
        f"examined: {report.families_examined} families,"
        f" {report.canonical_classes} canonical classes\n"
    )
    if report.witness is None:
        out.write("result: all-colorable\n")
    else:
        out.write(f"result: found size {report.witness_size}\n")
        for m in report.witness.maps:
            out.write(f"  map {list(m.entries)}\n")
    return 0


def _cmd_bracket(args: argparse.Namespace, out: IO[str]) -> int:
    report = search.verify_bracket(args.r)
    out.write(
        f"bracket: r={report.r} lower={report.lower_bound}"
        f" upper={report.upper_bound}\n"
    )
    out.write(
        f"witness: size={report.witness_size} source={report.witness_source}"
        f" certification={report.certification}\n"
    )
    if report.search_min_size is not None:
        out.write(f"search-minimum: {report.search_min_size}\n")
    out.write("consistent\n" if report.consistent else "INCONSISTENT\n")
    return 0 if report.consistent else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="dpcover",
        description="Construct, verify, and certify families of forbidden"
        " partial 0/1 assignments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="emit a built-in gadget")
    p_construct.add_argument("gadget", choices=GADGET_NAMES)
    p_construct.add_argument("--r", type=int, default=None)
    p_construct.add_argument("--out", default=None)
    p_construct.set_defaults(func=lambda args, out: _cmd_construct(args, out, parser))

    p_verify = sub.add_parser("verify", help="classify a family document")
    p_verify.add_argument("file", nargs="?", default="-")
    p_verify.add_argument("--claims", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_color = sub.add_parser("color", help="search for an avoiding coloring")
    p_color.add_argument("file", nargs="?", default="-")
    p_color.add_argument("--count", action="store_true")
    p_color.add_argument("--sample", type=int, default=None)
    p_color.add_argument("--seed", type=int, default=0)
    p_color.set_defaults(func=_cmd_color)

    p_weight = sub.add_parser("weight", help="print the exact family weight")
    p_weight.add_argument("file", nargs="?", default="-")
    p_weight.set_defaults(func=_cmd_weight)

    p_parity = sub.add_parser("parity", help="check the signed weight identity")
    p_parity.add_argument("file", nargs="?", default="-")
    p_parity.add_argument("--set", required=True, help="comma-separated vertices")
    p_parity.set_defaults(func=_cmd_parity)

    p_audit = sub.add_parser("audit-weight-one", help="weight-1 structure audit")
    p_audit.add_argument("file", nargs="?", default="-")
    p_audit.set_defaults(func=_cmd_audit)

    p_cnf = sub.add_parser("export-cnf", help="emit the family as DIMACS CNF")
    p_cnf.add_argument("file", nargs="?", default="-")
    p_cnf.add_argument("--out", default=None)
    p_cnf.set_defaults(func=_cmd_export_cnf)

    p_search = sub.add_parser("search-unary", help="minimality search")
    p_search.add_argument("--r", type=int, required=True)
    p_search.add_argument("--max-size", type=int, required=True)
    p_search.add_argument("--max-vertices", type=int, required=True)
    p_search.set_defaults(func=_cmd_search)

    p_bracket = sub.add_parser("bracket", help="bracket the minimum family size")
    p_bracket.add_argument("--r", type=int, required=True)
    p_bracket.set_defaults(func=_cmd_bracket)

    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (DpcoverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
