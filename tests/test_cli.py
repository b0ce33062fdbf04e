"""JSON persistence, DIMACS export, and the command-line front end."""
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dpcover import analysis, cli, constructions
from dpcover.cli import cli_main, export_cnf, parse, serialize
from dpcover.constructions import GadgetOutput
from dpcover.core import Family, make_partial_map
from dpcover.errors import DuplicateMapError, EmptyMapPresentError

from oracles import cnf_satisfiable, random_family, slow_serialize


def fam(*entry_lists):
    return Family.of([make_partial_map(entries) for entries in entry_lists])


def traced_peak(call):
    """Peak bytes tracemalloc sees while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def registry_gadgets():
    plain = [factory() for factory in cli._PLAIN_GADGETS.values()]
    parametric = [
        cli._PARAMETRIC_GADGETS["binary"](2),
        cli._PARAMETRIC_GADGETS["parity"](2),
        cli._PARAMETRIC_GADGETS["unary-even"](2),
        cli._PARAMETRIC_GADGETS["double-unary"](3),
        cli._PARAMETRIC_GADGETS["lifted-cover"](3),
    ]
    return plain + parametric


class TestSerialization:
    def test_parse_runs_no_cyclic_collection(self):
        text = serialize(constructions.binary_family(10))
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(record)
        try:
            doc = parse(text)
            assert gc.isenabled()
        finally:
            gc.callbacks.remove(record)
        assert starts == []
        assert doc.family == constructions.binary_family(10).family

    def test_round_trip_every_gadget(self):
        for gadget in registry_gadgets():
            doc = parse(serialize(gadget))
            assert doc.family == gadget.family
            assert doc.labels == gadget.labels
            assert doc.source == gadget.source
            assert doc.claimed_properties == gadget.claimed_properties
            assert doc.notes == gadget.notes

    def test_serialization_is_deterministic(self):
        gadget = constructions.k43_cover()
        assert serialize(gadget) == serialize(gadget)
        text = serialize(gadget)
        assert serialize(parse(text)) == text

    def test_bare_family_wrapped(self):
        family = fam([(0, 0), (2, 1)])
        doc = parse(serialize(family))
        assert doc.family == family
        assert doc.source == "user:family"
        assert doc.labels == {} and doc.notes == {}

    def test_bytes_match_the_plain_encoder(self, rng):
        docs = registry_gadgets() + [
            constructions.binary_family(6),
            constructions.parity_gadget(4),
            constructions.double_unary_gadget(5),
        ]
        docs += [random_family(rng, min_map_size=0, allow_empty=True) for _ in range(200)]
        for doc in docs:
            assert serialize(doc) == slow_serialize(doc)

    def test_bytes_match_the_plain_encoder_on_edge_cases(self):
        odd = 'quote " backslash \\ newline \n tab \t nul \u0000 non-ASCII \u00e9\u2200\U0001f600'
        docs = [
            Family.of([]),
            fam([]),
            fam([], [(0, 1)], [(0, 0), (3, 1)]),
            fam([(2**64, 1)], [(0, 0), (2**64 + 1, 0), (3**90, 1)]),
            GadgetOutput(fam([], [(7, 0)]), {odd: 7, "\u0000": 0}, odd),
            GadgetOutput(
                Family.of([]),
                {},
                odd,
                [{"kind": odd, odd: [odd, {"n": None}], "value": 2**70}, {"kind": "unary"}],
                {odd: odd, "": ""},
            ),
        ]
        for doc in docs:
            text = serialize(doc)
            assert text == slow_serialize(doc)
            if isinstance(doc, Family):
                doc = GadgetOutput(doc, {}, "user:family")
            back = parse(text)
            assert (back.family, back.labels, back.source) == (doc.family, doc.labels, doc.source)
            assert (back.claimed_properties, back.notes) == (doc.claimed_properties, doc.notes)
            assert serialize(back) == text

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, True), (1, 0)],
            [(0, 1.0)],
            [(1.0, 0), (2, 1)],
            [(np.int64(3), 1)],
            [(3, np.int64(1))],
        ],
        ids=["bool-bit", "float-bit", "float-vertex", "int64-vertex", "int64-bit"],
    )
    def test_non_integer_entries_are_rejected(self, pairs):
        # parse accepts only plain ints, so no map may hold anything else.
        with pytest.raises(ValueError):
            make_partial_map(pairs)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, cli._CHUNK_PIECES])
    def test_maps_text_in_chunks_matches_the_plain_encoder(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CHUNK_PIECES", chunk)
        docs = [Family.of([]), fam([]), fam([], [(0, 1)]), fam([], [(0, 1)], [(0, 0), (3, 1)])]
        # One opening piece, then three per single-entry map: with 1366 maps,
        # the last one starts a chunk.
        for n in (1365, 1366, 1367):
            docs.append(Family.of(make_partial_map([(v, v % 2)]) for v in range(n)))
        docs.append(constructions.binary_family(9))
        docs += [random_family(rng, min_map_size=0, allow_empty=True) for _ in range(30)]
        for doc in docs:
            assert serialize(doc) == slow_serialize(doc)

    def test_parse_frees_each_map_as_it_is_read(self, tmp_path):
        text = serialize(constructions.binary_family(11))
        path = tmp_path / "doc.json"
        path.write_text(text)
        decoded = traced_peak(lambda: json.loads(text))
        # With every decoded list alive until the family was built, parse
        # peaked at 1.5x the decoded document, and reading the file at 1.4x
        # the text plus the decoded document.
        assert traced_peak(lambda: parse(text)) < 1.1 * decoded
        assert traced_peak(lambda: cli._read_document(str(path))) < 1.1 * (decoded + len(text))
        assert parse(text).family == cli._read_document(str(path)).family

    def test_field_order_is_fixed(self):
        text = serialize(constructions.two_edge_gadget())
        keys = list(json.loads(text).keys())
        assert keys == [
            "format_version",
            "source",
            "labels",
            "maps",
            "claimed_properties",
            "notes",
        ]

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse("not json {")
        with pytest.raises(ValueError):
            parse("[1, 2]")
        with pytest.raises(ValueError):
            parse('{"format_version": "99", "maps": []}')
        with pytest.raises(DuplicateMapError):
            parse('{"format_version": "1", "maps": [[[0, 0]], [[0, 0]]]}')
        with pytest.raises(ValueError):
            parse('{"format_version": "1", "maps": [[[0, 2]]]}')
        with pytest.raises(ValueError, match="format_version None"):
            parse('{"maps": [[[0, 0]]]}')  # the version is required
        for shape in (
            '"maps": {}',
            '"maps": [[[0, "1"]]]',
            '"maps": [[[0, 1, 1]]]',
            '"maps": [[[0, true]]]',
            '"labels": {"x": "0"}',
            '"notes": []',
            '"claimed_properties": {}',
            '"claimed_properties": [{"kind": 3}]',
        ):
            with pytest.raises(ValueError):
                parse('{"format_version": "1", ' + shape + "}")


class TestExportCnf:
    def test_single_map_formula(self):
        text = export_cnf(fam([(0, 0), (1, 1)]))
        assert text == (
            "c forbidden partial assignment family, one clause per map\n"
            "c variable 1 = vertex 0\n"
            "c variable 2 = vertex 1\n"
            "p cnf 2 1\n"
            "1 -2 0\n"
        )

    def test_noncontiguous_vertices_get_dense_variables(self):
        text = export_cnf(fam([(3, 1)], [(10, 0)]))
        assert "p cnf 2 2" in text
        assert "-1 0" in text.splitlines()
        assert "2 0" in text.splitlines()

    def test_satisfiability_matches_colorability(self):
        for gadget in registry_gadgets():
            family = gadget.family
            expected = analysis.find_coloring(family).colorable
            assert cnf_satisfiable(export_cnf(family)) == expected, gadget.source

    def test_empty_map_rejected(self):
        with pytest.raises(EmptyMapPresentError):
            export_cnf(Family.of([make_partial_map([]), make_partial_map([(0, 0)])]))

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            export_cnf(Family.of([]))


class TestConstructCommand:
    def test_all_plain_gadgets(self, capsys):
        for name in cli._PLAIN_GADGETS:
            assert cli_main(["construct", name]) == 0
            doc = parse(capsys.readouterr().out)
            assert len(doc.family) > 0

    def test_all_parametric_gadgets(self, capsys):
        for name, r in [
            ("binary", 2),
            ("parity", 2),
            ("unary-even", 2),
            ("double-unary", 3),
            ("lifted-cover", 3),
        ]:
            assert cli_main(["construct", name, "--r", str(r)]) == 0
            doc = parse(capsys.readouterr().out)
            assert doc.source.startswith("gadget:")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "gadget.json"
        assert cli_main(["construct", "k43", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert parse(target.read_text()).family == constructions.k43_cover().family

    def test_construct_holds_one_chunk_of_pieces(self, tmp_path, monkeypatch):
        gadget = constructions.binary_family(12)
        text = serialize(gadget)
        monkeypatch.setitem(cli._PARAMETRIC_GADGETS, "binary", lambda r: gadget)
        target = tmp_path / "gadget.json"
        argv = ["construct", "binary", "--r", "12", "--out", str(target)]
        # Holding every per-entry piece until one join peaked at 4.4x the
        # text; the chunks and the joined text take 2x.
        assert traced_peak(lambda: cli_main(argv)) < 3 * len(text)
        assert target.read_text() == text

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as info:
            cli_main(["construct", "no-such-gadget"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            cli_main(["construct", "binary"])  # missing --r
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            cli_main(["construct", "k43", "--r", "3"])  # plain takes no --r
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            cli_main(["no-such-command"])
        assert info.value.code == 2

    def test_repeated_usage_error_reaches_the_current_stderr(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                cli_main(["construct", "binary"])
            assert info.value.code == 2
            assert "gadget binary requires --r" in capsys.readouterr().err

    def test_content_errors_exit_one(self, capsys):
        assert cli_main(["construct", "lifted-cover", "--r", "2"]) == 1
        assert "error:" in capsys.readouterr().err
        assert cli_main(["construct", "parity", "--r", "0"]) == 1
        assert capsys.readouterr() == ("", "error: r must be >= 1\n")

    # The smallest refused r of each gadget, and binary at r = 40, whose
    # build would ask numpy for 8 TiB.
    @pytest.mark.parametrize(
        "name, r",
        [
            ("binary", 21),
            ("binary", 40),
            ("parity", 21),
            ("unary-even", 20),
            ("double-unary", 21),
            ("lifted-cover", 20),
        ],
    )
    def test_sizes_over_the_map_cap_exit_one_before_building(self, capsys, name, r):
        start = time.perf_counter()
        assert cli_main(["construct", name, "--r", str(r)]) == 1
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name}(r={r}) would have more than 1048576 maps\n"

    def test_map_cap_reads_each_gadgets_closed_form(self, monkeypatch):
        # A cap of exactly the built count builds; one less refuses.
        for name, rs in [
            ("binary", range(1, 7)),
            ("parity", range(1, 7)),
            ("unary-even", (2, 4, 6)),
            ("double-unary", (3, 5, 7)),
            ("lifted-cover", range(3, 8)),
        ]:
            build = cli._PARAMETRIC_GADGETS[name]
            for r in rs:
                maps = len(build(r).family)
                monkeypatch.setattr(constructions, "_MAX_MAPS", maps)
                assert len(build(r).family) == maps
                monkeypatch.setattr(constructions, "_MAX_MAPS", maps - 1)
                with pytest.raises(ValueError, match=rf"^{name}\(r={r}\) would have more than"):
                    build(r)
                monkeypatch.undo()

    def test_huge_r_is_refused_before_its_count_is_formed(self):
        def count(r):
            raise AssertionError("formed the map count")

        with pytest.raises(ValueError, match="would have more than"):
            constructions._check_map_count("binary", 10**12, count)


SRC = Path(__file__).resolve().parent.parent / "src"

# The CLI in a child interpreter whose address space is capped at 1.5 GB, so
# that an unbounded allocation fails there rather than in the test process.
_CAPPED_CLI = (
    "import resource, sys\n"
    "from dpcover.cli import main\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
    "main()\n"
)


def run_capped_cli(*argv, timeout=10):
    """(result, wall seconds) of `dpcover *argv` under _CAPPED_CLI.  A child
    still running after `timeout` seconds is killed and the test fails; the
    seconds include the child's start-up and imports, about 0.3 s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    return result, time.perf_counter() - start


def write_doc(tmp_path, gadget, name="doc.json"):
    path = tmp_path / name
    path.write_text(serialize(gadget))
    return str(path)


class TestVerifyCommand:
    def test_k43_profile_and_claims(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.k43_cover())
        assert cli_main(["verify", path, "--claims"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == (
            "profile: maps=8 universe=4 uniformity=3 unary=no binary=yes"
            " cover=yes(edges=4)"
        )
        assert all(line.startswith("ok ") for line in lines[1:-2])
        assert lines[-2].startswith("claims: ")
        assert lines[-2].endswith("0 failed")
        assert lines[-1] == "verified"

    def test_every_registry_gadget_verifies(self, tmp_path, capsys):
        for gadget in registry_gadgets():
            path = write_doc(tmp_path, gadget)
            assert cli_main(["verify", path, "--claims"]) == 0, gadget.source
            assert capsys.readouterr().out.endswith("verified\n")

    def test_unary_even_over_the_table_limit_verifies(self, tmp_path, capsys):
        path = tmp_path / "unary-even-14.json"
        assert cli_main(["construct", "unary-even", "--r", "14", "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["verify", "--claims", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-3:] == [
            "ok sampled-no-coloring",
            "claims: 5 checked, 0 failed",
            "verified",
        ]

    def test_failing_claim_exits_one(self, tmp_path, capsys):
        doc = json.loads(serialize(constructions.k43_cover()))
        doc["claimed_properties"].append({"kind": "unary"})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["verify", str(path), "--claims"]) == 1
        out = capsys.readouterr().out
        assert "FAIL unary:" in out
        assert out.endswith("violations found\n")

    def test_unknown_claim_over_the_table_limit_fails_alone(self, tmp_path, capsys):
        gadget = constructions.binary_family(5)  # 31 vertices, over the table limit
        doc = json.loads(serialize(gadget))
        doc["claimed_properties"].append({"kind": "mystery"})
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["verify", str(path), "--claims"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            *(f"ok {claim['kind']}" for claim in gadget.claimed_properties),
            "FAIL mystery: unknown claim kind 'mystery'",
            f"claims: {len(gadget.claimed_properties) + 1} checked, 1 failed",
            "violations found",
        ]

    def test_false_no_coloring_claim_names_the_smallest_avoider(
        self, tmp_path, capsys, monkeypatch
    ):
        # parity(3)'s smallest avoider is 7.  The line is the same whether the
        # claim scans alone (in one chunk, or stopping in the second of 4-code
        # chunks) or follows claims that enumerated every avoider.
        gadget = constructions.parity_gadget(3)
        line = "FAIL no-coloring: coloring 7 avoids every map"
        runs = [([{"kind": "no-coloring"}], None), ([{"kind": "no-coloring"}], 4)]
        runs.append((gadget.claimed_properties + [{"kind": "no-coloring"}], None))
        for claims, chunk in runs:
            if chunk is not None:
                monkeypatch.setattr(analysis, "DEFAULT_CHUNK", chunk)
            doc = json.loads(serialize(gadget))
            doc["claimed_properties"] = claims
            path = tmp_path / "false.json"
            path.write_text(json.dumps(doc))
            assert cli_main(["verify", str(path), "--claims"]) == 1
            out = capsys.readouterr().out.splitlines()
            assert out[-3:] == [line, f"claims: {len(claims)} checked, 1 failed", "violations found"]

    def test_without_claims_flag_only_profiles(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.binary_family(2))
        assert cli_main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("profile: maps=4 universe=3 uniformity=2")
        assert "claims:" not in out
        assert out.endswith("verified\n")

    def test_stdin_dash(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(constructions.k43_cover())))
        assert cli_main(["verify"]) == 0
        assert capsys.readouterr().out.endswith("verified\n")

    def verify_malformed(self, tmp_path, capsys, **fields):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"format_version": "1", "maps": [], **fields}))
        assert cli_main(["verify", str(path), "--claims"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return captured.err

    def test_claim_missing_its_field_exits_one(self, tmp_path, capsys):
        err = self.verify_malformed(
            tmp_path, capsys, claimed_properties=[{"kind": "map-count"}]
        )
        assert "'map-count'" in err and "'value'" in err

    def test_sampled_claim_over_the_trials_bound_exits_one_at_once(self, tmp_path, capsys):
        claim = {"kind": "sampled-no-coloring", "trials": 10**14, "seed": 1}
        start = time.perf_counter()
        err = self.verify_malformed(tmp_path, capsys, maps=[[[0, 1]]], claimed_properties=[claim])
        assert time.perf_counter() - start < 0.5
        assert err == f"error: trials must be at most 1048576, got {10**14}\n"

    def test_claim_field_of_the_wrong_type_exits_one(self, tmp_path, capsys):
        for claim, name in (
            ({"kind": "sampled-no-coloring", "trials": "x", "seed": 1}, "'trials'"),
            ({"kind": "forces-equal", "vertices": 5}, "'vertices'"),
        ):
            err = self.verify_malformed(tmp_path, capsys, claimed_properties=[claim])
            assert name in err and "Traceback" not in err

    def test_map_of_bare_integers_exits_one(self, tmp_path, capsys):
        err = self.verify_malformed(tmp_path, capsys, maps=[[0, 1]])
        assert "maps[0]" in err

    def test_labels_not_an_object_exits_one(self, tmp_path, capsys):
        err = self.verify_malformed(tmp_path, capsys, labels=[1])
        assert "labels" in err

    def test_deeply_nested_document_exits_one(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"format_version": "1", "maps": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert cli_main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON: ")
        assert captured.err.count("\n") == 1

    def test_forty_transversal_pairs_are_checked_at_once(self, tmp_path):
        # 2^40 transversals; the claim is refused by counting them.
        pairs = [[2 * i, 2 * i + 1] for i in range(40)]
        claim = {"kind": "transversal-domains", "pairs": pairs}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(
            {"format_version": "1", "maps": [[[0, 0], [2, 0]]], "claimed_properties": [claim]}
        ))
        result, seconds = run_capped_cli("verify", "--claims", str(path))
        assert (result.returncode, result.stderr) == (1, "")
        assert result.stdout.splitlines()[1:] == [
            "FAIL transversal-domains: domains differ from the pair transversals",
            "claims: 1 checked, 1 failed",
            "violations found",
        ]
        assert seconds < 2

    def test_bad_document_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert cli_main(["verify", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert cli_main(["verify", str(tmp_path / "missing.json")]) == 1


class TestColorCommand:
    def test_noncolorable_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.binary_family(3))
        assert cli_main(["color", path]) == 0
        assert capsys.readouterr().out == "non-colorable: enumerated=128\n"

    def test_witness_bits_in_universe_order(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.parity_gadget(2))
        assert cli_main(["color", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("colorable: witness=")
        bits = out.strip().split("=")[1]
        assert len(bits) == 4 and set(bits) <= {"0", "1"}
        family = constructions.parity_gadget(2).family
        f = {v: int(b) for v, b in zip(family.universe, bits)}
        for m in family.maps:
            assert any(f[v] != bit for v, bit in m.entries)

    @pytest.mark.parametrize(
        "family",
        [Family.of([]), fam([(0, 1)]), fam([(5, 0), (9, 0)], [(2, 1)], [(2**70, 1)])],
        ids=["empty", "one-vertex", "sparse-ids"],
    )
    def test_bits_match_the_coloring_in_universe_order(self, tmp_path, capsys, family):
        def rendered(coloring):
            values = coloring.as_dict()
            return "".join(str(values[v]) for v in family.universe)

        path = write_doc(tmp_path, family)
        assert cli_main(["color", path]) == 0
        witness = analysis.find_coloring(family).witness
        assert capsys.readouterr().out == f"colorable: witness={rendered(witness)}\n"
        assert cli_main(["color", path, "--sample", "200", "--seed", "3"]) == 0
        sample = analysis.sample_noncolorability(family, trials=200, seed=3)
        first = f"first-counterexample: {rendered(sample.first_counterexample)}\n"
        assert capsys.readouterr().out.endswith("\n" + first)
        if not len(family):
            assert rendered(witness) == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sample", "-5"], "trials must be nonnegative, got -5"),
            (["--sample", "5", "--seed", "-1"], "seed must be nonnegative, got -1"),
        ],
    )
    def test_negative_sample_or_seed_exits_one(self, tmp_path, capsys, flags, message):
        path = write_doc(tmp_path, constructions.binary_family(3))
        assert cli_main(["color", path, *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_sample_count_over_the_bound_exits_one_at_once(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.binary_family(3))
        start = time.perf_counter()
        assert cli_main(["color", path, "--sample", str(10**14)]) == 1
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr() == ("", f"error: trials must be at most 1048576, got {10**14}\n")

    @pytest.mark.parametrize(
        "name, command",
        [("DPCOVER_ENUM_LIMIT", "color"), ("DPCOVER_PARITY_LIMIT", "audit-weight-one")],
    )
    def test_limit_that_is_not_an_integer_is_named(
        self, tmp_path, capsys, monkeypatch, name, command
    ):
        path = write_doc(tmp_path, constructions.binary_family(3))
        monkeypatch.setenv(name, "abc")
        assert cli_main([command, path]) == 1
        assert capsys.readouterr() == ("", f"error: {name} must be an integer, got 'abc'\n")

    @pytest.mark.parametrize(
        "name, value, command",
        [("DPCOVER_ENUM_LIMIT", "-3", "color"), ("DPCOVER_PARITY_LIMIT", "-1", "audit-weight-one")],
    )
    def test_negative_limit_is_named(self, tmp_path, capsys, monkeypatch, name, value, command):
        path = write_doc(tmp_path, fam([(0, 1)]))
        monkeypatch.setenv(name, value)
        assert cli_main([command, path]) == 1
        assert capsys.readouterr() == ("", f"error: {name} must not be negative, got '{value}'\n")
        monkeypatch.setenv(name, "0")  # a limit like any other
        assert cli_main([command, path]) == 1
        assert capsys.readouterr() == ("", "error: universe has 1 vertices, limit is 0\n")

    def test_count_mode(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.parity_gadget(3))
        assert cli_main(["color", path, "--count"]) == 0
        assert capsys.readouterr().out == "colorings: 4 of 64\n"

    def test_sample_mode(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.binary_family(3))
        assert cli_main(["color", path, "--sample", "100", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert out == "sampled: trials=100 seed=9 counterexamples=0\n"
        path = write_doc(tmp_path, constructions.parity_gadget(2), "colorable.json")
        assert cli_main(["color", path, "--sample", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "counterexamples=" in out
        assert "first-counterexample: " in out

    def test_workers_option_is_a_usage_error(self, tmp_path):
        path = write_doc(tmp_path, constructions.parity_gadget(3))
        with pytest.raises(SystemExit) as info:
            cli_main(["--workers", "2", "color", path])
        assert info.value.code == 2

    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.parity_gadget(3))
        outputs = []
        for argv in (["color", path, "--count"], ["color", path]):
            assert cli_main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == "colorings: 4 of 64\n"
        assert outputs[1].startswith("colorable: witness=")
        assert cli._build_parser() is cli._build_parser()

    def test_identical_output_across_runs(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.unary_upper_even(4))
        outputs = []
        for _ in range(3):
            assert cli_main(["color", path, "--count"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]


class TestWeightCommand:
    def test_pipeline_equivalent(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.binary_family(3))
        assert cli_main(["weight", path]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_fractional_weight(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.unary_upper_even(4))
        assert cli_main(["weight", path]) == 0
        assert capsys.readouterr().out == "5/4\n"


class TestParityCommand:
    def test_identity_holds(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.binary_family(3))
        assert cli_main(["parity", path, "--set", "0,2"]) == 0
        assert capsys.readouterr().out == "lhs: 0\nrhs: 0\nidentity holds\n"

    def test_empty_set_gives_total_weight(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.binary_family(2))
        assert cli_main(["parity", path, "--set", ""]) == 0
        assert capsys.readouterr().out == "lhs: 1\nrhs: 1\nidentity holds\n"


class TestAuditCommand:
    def test_consistent(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.binary_family(3))
        assert cli_main(["audit-weight-one", path]) == 0
        assert capsys.readouterr().out == "weight: 1\nconsistent\n"

    def test_violating_family(self, tmp_path, capsys):
        path = tmp_path / "light.json"
        path.write_text(serialize(fam([(0, 0)])))
        assert cli_main(["audit-weight-one", str(path)]) == 1
        out = capsys.readouterr().out
        assert out == "weight: 1/2\nviolated:weight-is-one\n"


class TestExportCnfCommand:
    def test_to_stdout_and_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, constructions.binary_family(2))
        assert cli_main(["export-cnf", path]) == 0
        text = capsys.readouterr().out
        assert "p cnf 3 4" in text
        assert not cnf_satisfiable(text)
        target = tmp_path / "out.cnf"
        assert cli_main(["export-cnf", path, "--out", str(target)]) == 0
        assert target.read_text() == text


class TestSearchCommands:
    def test_search_unary_all_colorable(self, capsys):
        argv = ["search-unary", "--r", "2", "--max-size", "4", "--max-vertices", "4"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "search: r=2 max_size=4 max_vertices=4"
        assert lines[1].startswith("examined: ")
        assert lines[2] == "result: all-colorable"

    def test_search_unary_counts_the_pruned_search(self, capsys):
        argv = ["search-unary", "--r", "2", "--max-size", "6", "--max-vertices", "6"]
        assert cli_main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "examined: 36418 families, 74 canonical classes"
        assert lines[2] == "result: found size 6"

    def test_search_unary_witness(self, capsys):
        argv = ["search-unary", "--r", "2", "--max-size", "6", "--max-vertices", "5"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "result: found size 6" in out
        assert out.count("  map [") == 6

    def test_search_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli_main(["search-unary", "--r", "2"])
        assert info.value.code == 2

    def test_bracket_r2_frozen_output(self, capsys):
        assert cli_main(["bracket", "--r", "2"]) == 0
        assert capsys.readouterr().out == (
            "bracket: r=2 lower=5 upper=6\n"
            "witness: size=6 source=gadget:unary-even(r=2)"
            " certification=enumerated\n"
            "search-minimum: 6\n"
            "consistent\n"
        )

    def test_oversized_search_exits_one_at_once(self):
        # Past 60 maps every term of the estimate is 0; summing them ran on.
        result, _ = run_capped_cli(
            "search-unary", "--r", "2", "--max-size", str(10**9), "--max-vertices", "6"
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"error: worst-case search space {2**60 - 1} exceeds 1000000000\n"

    @pytest.mark.parametrize("r, name", [(10**11, "unary-even"), (10**11 + 1, "double-unary")])
    def test_oversized_bracket_exits_one_before_forming_its_bounds(self, r, name):
        # 1 << r at r = 10^11 asks for 12.5 GB.
        result, _ = run_capped_cli("bracket", "--r", str(r))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"error: {name}(r={r}) would have more than 1048576 maps\n"

    def test_bracket_r3(self, capsys):
        assert cli_main(["bracket", "--r", "3"]) == 0
        out = capsys.readouterr().out
        assert "bracket: r=3 lower=9 upper=12" in out
        assert "search-minimum" not in out
        assert out.endswith("consistent\n")


def mutated_variants(family: Family):
    """Every single-entry value flip of every map, with its coordinates."""
    rows = [list(m.entries) for m in family.maps]
    for i, row in enumerate(rows):
        for j, (v, b) in enumerate(row):
            mutated = [list(r) for r in rows]
            mutated[i][j] = (v, 1 - b)
            yield i, j, mutated


MUTATION_TARGETS = [
    constructions.k43_cover,
    constructions.k54_neq_cover,
    constructions.k54_eq_cover,
    constructions.four_uniform_10,
    constructions.nine_edge_gadget,
    lambda: constructions.copy_gadget((0, 1, 2), (3, 4, 5)),
    constructions.two_edge_gadget,
    constructions.five_uniform_17,
    lambda: constructions.binary_family(1),
    lambda: constructions.binary_family(2),
    lambda: constructions.binary_family(3),
    lambda: constructions.parity_gadget(1),
    lambda: constructions.parity_gadget(2),
    lambda: constructions.parity_gadget(3),
    lambda: constructions.unary_upper_even(2),
    lambda: constructions.unary_upper_even(4),
    lambda: constructions.double_unary_gadget(3),
    lambda: constructions.lift_to_cover(constructions.unary_upper_even(2).family),
]


def test_mutation_sweep_every_flip_is_caught():
    """Flipping any single stored value in any shipped table or generated
    family either collides with another map or fails at least one of the
    family's own claims."""
    total = 0
    caught = 0
    for factory in MUTATION_TARGETS:
        gadget = factory()
        for i, j, rows in mutated_variants(gadget.family):
            total += 1
            try:
                mutant = Family.of([make_partial_map(r) for r in rows])
            except DuplicateMapError:
                caught += 1
                continue
            results = analysis.check_claims(mutant, gadget.claimed_properties)
            if any(not res.ok for res in results):
                caught += 1
            else:
                raise AssertionError(
                    f"{gadget.source}: flip at map {i} entry {j} passed all claims"
                )
    assert caught == total == 726
