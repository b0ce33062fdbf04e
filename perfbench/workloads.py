"""The four verdict workloads and the known answer each verdict is checked against.

A verdict is one CLI command or one library call; its check compares the
outcome with an answer from `answers` (stated mathematics or the benchmark's
own brute force), computed here, before any timing.  Checks read
`Suite.expected` when they run, so a test can plant a wrong answer.

Why each workload exists:

- desk: an interactive CLI session on small families.  Every command
  re-parses its document into a fresh Family, so it measures per-call
  overhead (argparse, JSON, Family.of, classify, mask setup, dyadic sums).
- dense: library calls on 16-25 vertex families, one Family object reused
  across calls.  It bypasses JSON and construction and is dominated by the
  exhaustive kernel (scan, avoiding codes, multiplicity tables).
- wide: certifying big families through the CLI; construction, JSON,
  classify and sampling, with no exhaustive kernel at all.
- search: the pure-Python bigint minimality search and canonical keys,
  with no numpy and no JSON.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import answers
import inputs

WORKLOADS = ("desk", "dense", "wide", "search")

PARAMS = {
    "full": {
        "desk_gadgets": [(name, None) for name in answers.PLAIN_FACTS]
        + [("binary", r) for r in (1, 2, 3)]
        + [("parity", r) for r in range(1, 7)]
        + [("unary-even", r) for r in (2, 4, 6)]
        + [("double-unary", r) for r in (3, 5)]
        + [("lifted-cover", r) for r in (3, 4, 5)],
        "dense_count": (10, 5),  # unary_upper_even(10), double_unary_gadget(5)
        "dense_scan": (9, 10),  # parity_gadget first-witness scans
        "dense_parity": 9,  # codes, claims and tables on parity_gadget(9)
        "dense_parity_sets": 4,
        "dense_audit": (4, 8),  # binary_family(4), parity_gadget(8)
        "wide": [("binary", 13), ("double-unary", 11), ("lifted-cover", 10)],
        "wide_trials": 25_000,
        "search_sizes": (4, 5, 6),
        "search_big": (6, 7),  # search_min_unary(2, 6, 7)
        "brackets": range(2, 9),
    },
    "smoke": {
        "desk_gadgets": [("k43", None), ("copy", None), ("binary", 2), ("parity", 3),
                         ("unary-even", 2), ("double-unary", 3), ("lifted-cover", 3)],
        "dense_count": (4, 3),
        "dense_scan": (5, 6),
        "dense_parity": 6,
        "dense_parity_sets": 2,
        "dense_audit": (3, 4),
        "wide": [("binary", 6), ("double-unary", 5), ("lifted-cover", 5)],
        "wide_trials": 2000,
        "search_sizes": (4, 5),
        "search_big": None,
        "brackets": range(3, 6),
    },
}


@dataclass
class Verdict:
    id: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the outcome is the known answer
    parallel: bool = False  # runs worker processes, so it may use every CPU


@dataclass
class Suite:
    verdicts: list[Verdict] = field(default_factory=list)
    expected: dict[str, dict] = field(default_factory=dict)


def build(workload: str, modules: dict, docs_dir: Path, run_dir: Path, seed: int,
          size: str = "full") -> Suite:
    make = {"desk": _desk, "dense": _dense, "wide": _wide, "search": _search}[workload]
    return make(modules, docs_dir, run_dir, seed, PARAMS[size])


# ---------------------------------------------------------------------------
# CLI verdicts (desk, wide).
# ---------------------------------------------------------------------------

def _cli(cli, argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def call() -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.cli_main(argv)
            except SystemExit as exc:  # argparse refusing the arguments
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    return call


def _outcome(result: tuple[int, str, str], rc: int = 0) -> str | None:
    code, _, err = result
    if code != rc or err:
        return f"exit {code}, expected {rc}; stderr {err.strip()[:200]!r}"
    return None


def _fraction(text: str) -> Fraction:
    return Fraction(text.strip())


def _cli_checks(suite: Suite, key: str, path: Path) -> dict[str, Callable]:
    """Checks for the commands every CLI input goes through."""

    def facts() -> dict:
        return suite.expected[key]

    def construct(result):
        problem = _outcome(result)
        if problem:
            return problem
        f = facts()
        maps = json.loads(path.read_text(encoding="utf-8"))["maps"]
        vertices = {v for m in maps for v, _ in m}
        if len(maps) != f["maps"] or len(vertices) != f["n"]:
            return f"{len(maps)} maps on {len(vertices)} vertices, expected {f['maps']} on {f['n']}"
        if any(len(m) != f["uniformity"] for m in maps):
            return f"a map is not of size {f['uniformity']}"
        return None

    def verify(result):
        problem = _outcome(result)
        if problem:
            return problem
        f, lines = facts(), result[1].splitlines()
        if not lines[0].startswith(f"profile: maps={f['maps']} universe={f['n']} "):
            return f"profile line {lines[0]!r}"
        if not re.fullmatch(r"claims: [1-9]\d* checked, 0 failed", lines[-2]) or lines[-1] != "verified":
            return f"claims ended {lines[-2:]!r}"
        return None

    def color(result):
        problem = _outcome(result)
        if problem:
            return problem
        f, text = facts(), result[1].strip()
        if f["colorings"] == 0:
            want = f"non-colorable: enumerated={1 << f['n']}"
            return None if text == want else f"{text!r}, expected {want!r}"
        match = re.fullmatch(r"colorable: witness=([01]+)", text)
        if not match:
            return f"{text!r}, expected a witness"
        bits = match.group(1)
        color = dict(zip(answers.universe(f["map_list"]), map(int, bits)))
        if len(bits) != f["n"] or not answers.avoids_all(f["map_list"], color):
            return f"witness {bits} does not avoid every map"
        return None

    def count(result):
        want = f"colorings: {facts()['colorings']} of {1 << facts()['n']}"
        return _outcome(result) or (None if result[1].strip() == want else f"{result[1]!r}, expected {want!r}")

    def weight(result):
        want = facts()["weight"]
        return _outcome(result) or (None if _fraction(result[1]) == want else f"weight {result[1]!r}, expected {want}")

    def export_cnf(result):
        problem = _outcome(result)
        if problem:
            return problem
        f = facts()
        lines = Path(f"{path}.cnf").read_text(encoding="utf-8").splitlines()
        header = [line for line in lines if line.startswith("p ")]
        clauses = [line for line in lines if line and line[0] not in "cp"]
        if header != [f"p cnf {f['n']} {f['maps']}"] or len(clauses) != f["maps"]:
            return f"header {header}, {len(clauses)} clauses; expected {f['n']} vars, {f['maps']} clauses"
        return None

    def audit(result):
        f = facts()
        verdict = answers.audit_verdict(f["weight"], f["colorings"] > 0)
        problem = _outcome(result, 0 if verdict == "consistent" else 1)
        if problem:
            return problem
        lines = result[1].splitlines()
        if _fraction(lines[0].removeprefix("weight:")) != f["weight"] or lines[1] != verdict:
            return f"audit {lines!r}, expected weight {f['weight']} and {verdict}"
        return None

    def parity(result):
        problem = _outcome(result)
        if problem:
            return problem
        lines, want = result[1].splitlines(), facts()["lhs"]
        lhs = _fraction(lines[0].removeprefix("lhs:"))
        rhs = _fraction(lines[1].removeprefix("rhs:"))
        if lhs != want or rhs != want or lines[2] != "identity holds":
            return f"parity {lines!r}, expected both sides {want}"
        return None

    return {"construct": construct, "verify": verify, "color": color, "count": count,
            "weight": weight, "export_cnf": export_cnf, "audit": audit, "parity": parity}


def _gadget_argv(name: str, r: int | None) -> list[str]:
    return ["construct", name] + ([] if r is None else ["--r", str(r)])


def _gadget_maps(cli, name: str, r: int | None) -> list[list[tuple[int, int]]]:
    factory = cli._PLAIN_GADGETS.get(name) or cli._PARAMETRIC_GADGETS[name]
    gadget = factory() if r is None else factory(r)
    return [list(m.entries) for m in gadget.family.maps]


def _desk(modules, docs_dir, run_dir, seed, params) -> Suite:
    cli = modules["cli"]
    suite = Suite()
    plan = inputs.rng_for("desk-plan", seed)
    entries = []
    for name, r in params["desk_gadgets"]:
        facts = answers.gadget_facts(name, r)
        maps = _gadget_maps(cli, name, r)
        if facts["colorings"] is None:
            facts["colorings"] = int(answers.avoiding_codes(maps).size)
        key = name if r is None else f"{name}({r})"
        entries.append((key, maps, facts, run_dir / f"{key}.json", _gadget_argv(name, r)))
    for file_name, doc in inputs.read_documents(docs_dir).items():
        path = run_dir / file_name
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        maps = inputs.family_maps(doc)
        vertices = answers.universe(maps)
        sizes = {len(m) for m in maps}
        facts = {
            "maps": len(maps),
            "n": len(vertices),
            "uniformity": sizes.pop() if len(sizes) == 1 else None,
            "colorings": int(answers.avoiding_codes(maps).size),
            "weight": inputs.weight(maps),
        }
        entries.append((file_name.removesuffix(".json"), maps, facts, path, None))

    for key, maps, facts, path, construct_argv in entries:
        vertices = answers.universe(maps)
        subset = tuple(sorted(plan.sample(vertices, plan.randint(1, min(3, len(vertices))))))
        facts.update(map_list=maps, lhs=answers.parity_lhs(maps, subset))
        suite.expected[key] = facts
        checks = _cli_checks(suite, key, path)
        p = str(path)
        commands = [
            ("verify", ["verify", "--claims", p]),
            ("color", ["color", p]),
            ("count", ["color", "--count", p]),
            ("weight", ["weight", p]),
            ("audit", ["audit-weight-one", p]),
            ("export_cnf", ["export-cnf", p, "--out", f"{p}.cnf"]),
            ("parity", ["parity", "--set", ",".join(map(str, subset)), p]),
        ]
        if construct_argv is not None:
            commands.insert(0, ("construct", construct_argv + ["--out", p]))
        for kind, argv in commands:
            suite.verdicts.append(Verdict(f"{key}/{kind}", _cli(cli, argv), checks[kind]))
    return suite


def _wide(modules, docs_dir, run_dir, seed, params) -> Suite:
    cli = modules["cli"]
    suite = Suite()
    trials = params["wide_trials"]
    for name, r in params["wide"]:
        key = f"{name}({r})"
        suite.expected[key] = answers.gadget_facts(name, r)
        path = run_dir / f"{key}.json"
        p = str(path)
        checks = _cli_checks(suite, key, path)
        sample_line = f"sampled: trials={trials} seed={seed} counterexamples=0"

        def sampled(result, want=sample_line):  # the families have no coloring
            return _outcome(result) or (None if result[1].strip() == want else f"{result[1]!r}, expected {want!r}")

        commands = [
            ("construct", _gadget_argv(name, r) + ["--out", p], checks["construct"]),
            ("verify", ["verify", "--claims", p], checks["verify"]),
            ("sample", ["color", "--sample", str(trials), "--seed", str(seed), p], sampled),
            ("weight", ["weight", p], checks["weight"]),
            ("export_cnf", ["export-cnf", p, "--out", f"{p}.cnf"], checks["export_cnf"]),
        ]
        for kind, argv, check in commands:
            suite.verdicts.append(Verdict(f"{key}/{kind}", _cli(cli, argv), check))
    return suite


# ---------------------------------------------------------------------------
# Library verdicts (dense, search).
# ---------------------------------------------------------------------------

def _family(core, maps):
    return core.Family.of(core.make_partial_map(m) for m in maps)


def _maps(family) -> list[list[tuple[int, int]]]:
    return [list(m.entries) for m in family.maps]


def _dense(modules, docs_dir, run_dir, seed, params) -> Suite:
    analysis, constructions, core = modules["analysis"], modules["constructions"], modules["core"]
    suite = Suite()
    plan = inputs.rng_for("dense-plan", seed)
    expected = suite.expected

    def add(vid: str, call: Callable, check: Callable) -> None:
        suite.verdicts.append(Verdict(vid, call, check))

    # Full counts on families with no coloring: 0 colorings over 2^n.
    r_even, r_odd = params["dense_count"]
    for label, family in (
        (f"unary-even({r_even})", constructions.unary_upper_even(r_even).family),
        (f"double-unary({r_odd})", constructions.double_unary_gadget(r_odd).family),
    ):
        expected[label] = {"enumerated": 1 << len(family.universe)}

        def counted(rep, label=label):
            want = expected[label]["enumerated"]
            if rep.colorable or rep.coloring_count != 0 or rep.enumerated != want:
                return f"count {rep.coloring_count} over {rep.enumerated}, expected 0 over {want}"
            return None

        add(f"{label}/count", lambda f=family: analysis.find_coloring(f, count=True), counted)

    # First-witness scans at one and two workers.
    scans = []
    for r in params["dense_scan"]:
        family = constructions.parity_gadget(r).family
        scans.append((f"parity({r})", family, answers.parity_first_witness(r)))
    for name, doc in inputs.read_documents(docs_dir).items():
        maps = inputs.family_maps(doc)
        first = int(answers.avoiding_codes(maps)[0])
        if first > int(doc["notes"]["planted"]):
            raise RuntimeError("planted coloring is not avoiding; input generator bug")
        scans.append((name.removesuffix(".json"), _family(core, maps), first))
    for label, family, first in scans:
        expected[label] = {"witness": first, "map_list": _maps(family)}

        def witnessed(rep, label=label):
            want = expected[label]
            if not rep.colorable or rep.witness.bits != want["witness"]:
                return f"witness {rep.witness and rep.witness.bits}, expected {want['witness']}"
            if rep.enumerated != want["witness"] + 1:
                return f"enumerated {rep.enumerated}, expected {want['witness'] + 1}"
            if not answers.code_avoids_all(want["map_list"], rep.witness.bits):
                return "witness does not avoid every map"
            return None

        for workers in (1, 2):
            suite.verdicts.append(Verdict(
                f"{label}/scan-w{workers}",
                lambda f=family, w=workers: analysis.find_coloring(f, workers=w), witnessed,
                parallel=workers > 1))

    # Avoiding codes and claims, then tables and the parity identity.
    r = params["dense_parity"]
    gadget = constructions.parity_gadget(r)
    family, maps = gadget.family, _maps(gadget.family)
    pkey = f"parity({r})"
    expected.setdefault(pkey, {}).update(
        codes=answers.parity_avoiding_codes(r),
        claims=len(gadget.claimed_properties),
        counts=answers.multiplicities(maps),
    )

    def codes_ok(codes):
        want = expected[pkey]["codes"]
        return None if codes.tolist() == want else f"{codes.size} codes, expected {len(want)}"

    def claims_ok(results):
        bad = [f"{c.kind}: {c.message}" for c in results if not c.ok]
        if bad or len(results) != expected[pkey]["claims"]:
            return f"{len(results)} claims, failed {bad}"
        return None

    shared: dict[str, Any] = {}

    def table_call():
        shared["table"] = analysis.MultiplicityTable(family)
        return shared["table"]

    def table_ok(table):
        want = expected[pkey]["counts"]
        return None if (table.counts == want).all() else "multiplicities differ from the brute force"

    add(f"{pkey}/codes", lambda: analysis.avoiding_codes(family), codes_ok)
    add(f"{pkey}/claims", lambda: analysis.check_claims(family, gadget.claimed_properties), claims_ok)
    add(f"{pkey}/table", table_call, table_ok)
    vertices = answers.universe(maps)
    subsets = [tuple(sorted(plan.sample(vertices, plan.randint(1, 4))))
               for _ in range(params["dense_parity_sets"] + 1)]
    for i, subset in enumerate(subsets):
        key = f"{pkey}/parity{list(subset)}"
        expected[key] = {"lhs": answers.parity_lhs(maps, subset)}

        def identity(res, key=key):
            want = expected[key]["lhs"]
            if not res.holds or Fraction(str(res.lhs)) != want or Fraction(str(res.rhs)) != want:
                return f"lhs {res.lhs}, rhs {res.rhs}, expected both {want}"
            return None

        if i < len(subsets) - 1:
            call = lambda s=subset: analysis.parity_identity(family, s, table=shared["table"])
            add(f"{key}/shared-table", call, identity)
        else:
            add(f"{key}/own-table", lambda s=subset: analysis.parity_identity(family, s), identity)

    # Weight-one audits: binary(r) is consistent, parity(r) has a coloring.
    r_binary, r_parity = params["dense_audit"]
    for label, fam, facts in (
        (f"binary({r_binary})", constructions.binary_family(r_binary).family,
         answers.gadget_facts("binary", r_binary)),
        (f"parity({r_parity})", constructions.parity_gadget(r_parity).family,
         answers.gadget_facts("parity", r_parity)),
    ):
        verdict = answers.audit_verdict(facts["weight"], facts["colorings"] > 0)
        expected[f"{label}/audit"] = {"verdict": verdict}

        def audited(audit, key=f"{label}/audit"):
            want = expected[key]["verdict"]
            return None if audit.verdict == want else f"audit {audit.verdict}, expected {want}"

        add(f"{label}/audit", lambda f=fam: analysis.weight_one_audit(f), audited)
    return suite


def _search(modules, docs_dir, run_dir, seed, params) -> Suite:
    search, core = modules["search"], modules["core"]
    suite = Suite()
    expected = suite.expected

    def minimum(rep, key):
        want = expected[key]["size"]
        if want is None:
            return None if rep.witness is None else f"found size {rep.witness_size}, expected all-colorable"
        if rep.witness_size != want or rep.witness is None:
            return f"found size {rep.witness_size}, expected {want}"
        maps = _maps(rep.witness)
        domains = [tuple(v for v, _ in m) for m in maps]
        if len(maps) != want or len(set(domains)) != len(domains) or {len(d) for d in domains} != {2}:
            return "witness is not a unary 2-uniform family of the stated size"
        return None if answers.is_noncolorable(maps) else "witness has an avoiding coloring"

    # (2, b, 6) is all-colorable below b = 6 and has a size-6 witness at b = 6.
    runs = [(b, 6, w) for b in params["search_sizes"] for w in (1, 2)]
    if params["search_big"]:
        runs.append(params["search_big"] + (1,))
    for b, v, workers in runs:
        key = f"min_unary(2,{b},{v})/w{workers}"
        expected[key] = {"size": 6 if b >= 6 else None}
        suite.verdicts.append(Verdict(
            key, lambda b=b, v=v, w=workers: search.search_min_unary(2, b, v, workers=w),
            lambda rep, key=key: minimum(rep, key), parallel=workers > 1))

    for r in params["brackets"]:
        key = f"bracket({r})"
        expected[key] = {"lower": (1 << r) + 1, "upper": (1 << r) + (1 << ((r + 1) // 2)),
                         "search": 6 if r == 2 else None}

        def bracketed(rep, key=key):
            want = expected[key]
            got = (rep.lower_bound, rep.upper_bound, rep.witness_size, rep.search_min_size)
            if got != (want["lower"], want["upper"], want["upper"], want["search"]) or not rep.consistent:
                return f"bracket {got}, expected {want}"
            return None

        suite.verdicts.append(Verdict(key, lambda r=r: search.verify_bracket(r), bracketed))

    docs = inputs.read_documents(docs_dir)
    for name in sorted(docs):
        if name.endswith("-copy.json"):
            continue
        key = name.removesuffix(".json")
        first = _family(core, inputs.family_maps(docs[name]))
        copy = _family(core, inputs.family_maps(docs[f"{key}-copy.json"]))
        expected[key] = {"equal": True}

        def keyed(keys, key=key):
            same = keys[0] == keys[1]
            return None if same == expected[key]["equal"] else f"keys equal: {same}"

        suite.verdicts.append(Verdict(
            f"{key}/canonical",
            lambda a=first, b=copy: (search.canonical_key(a), search.canonical_key(b)), keyed))
    return suite
