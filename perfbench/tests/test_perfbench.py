"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import checkout  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
MODULES = checkout.load_dpcover()


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _suite(workload: str, tmp_path: Path, seed: int = 3) -> workloads.Suite:
    docs = tmp_path / "docs"
    inputs.write_documents(inputs.documents(workload, seed, "smoke"), docs)
    return workloads.build(workload, MODULES, docs, tmp_path, seed, "smoke")


def _failed(records) -> set[str]:
    return {vid for vid, _, problem in records if problem}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_reported_with_its_unit(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", "0", "--size", "smoke"]) == 0
    report = _last_json(capsys)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {name: metric["unit"] for name, metric in report["metrics"].items()}
    assert got == want
    assert all(metric["value"] > 0 for metric in report["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_per_layer_metric_is_reported_with_its_unit(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", "1", "--size", "smoke"]) == 0
    report = _last_json(capsys)
    assert report["correct"] and report["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {name: metric["unit"] for name, metric in report["metrics"].items()}
    assert got == want


def test_benchmark_file_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: spec[0] for name, spec in tracing.PER_LAYER.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END


def test_a_wrong_expected_answer_counts_as_a_failure(tmp_path):
    suite = _suite("desk", tmp_path)
    assert not _failed(run.run_pass(suite))
    suite.expected["k43"]["colorings"] = 1  # k43 has no coloring
    assert _failed(run.run_pass(suite)) == {"k43/color", "k43/count", "k43/audit"}


def test_a_wrong_library_answer_counts_as_a_failure(tmp_path):
    suite = _suite("dense", tmp_path)
    assert not _failed(run.run_pass(suite))
    suite.expected["binary(3)/audit"]["verdict"] = "violated:weight-is-one"
    assert _failed(run.run_pass(suite)) == {"binary(3)/audit"}


def test_a_raising_verdict_counts_as_a_failure(tmp_path):
    suite = _suite("search", tmp_path)
    suite.verdicts[0].call = lambda: 1 // 0
    records = run.run_pass(suite)
    assert _failed(records) == {suite.verdicts[0].id}
    assert "ZeroDivisionError" in records[0][2]


def _current(modules):
    return [(owner, key, tracing._get(owner, key)) for owner, key, _, _ in tracing.targets(modules)]


def test_a_traced_run_restores_every_patched_name(tmp_path):
    before = _current(MODULES)
    layers = set()
    for workload in workloads.WORKLOADS:
        suite = _suite(workload, tmp_path / workload)
        tracer = tracing.Tracer(MODULES)
        with tracer:
            assert any(now is not was for (_, _, now), (_, _, was)
                       in zip(_current(MODULES), before))
            assert not _failed(run.run_pass(suite, tracer))
        layers |= {span[0] for span in tracer.spans}
        after = _current(MODULES)
        assert all(now is was for (_, _, now), (_, _, was) in zip(after, before))
    assert layers == {name.rsplit(".", 1)[0] for name in tracing.PER_LAYER} - {"trace"}


def test_names_are_restored_when_a_traced_call_raises():
    before = _current(MODULES)
    with pytest.raises(ValueError):
        with tracing.Tracer(MODULES):
            MODULES["constructions"].binary_family(0)
    assert all(now is was for (_, _, now), (_, _, was) in zip(_current(MODULES), before))


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, None, None], ["b", 1.0, 4.0, 0, None, None],
             ["c", 2.0, 3.0, 1, None, None], ["b", 5.0, 6.0, 0, None, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _brute_codes(maps):
    vertices = answers.universe(maps)
    return [code for code in range(1 << len(vertices))
            if answers.code_avoids_all(maps, code)]


def test_stated_answers_agree_with_a_plain_brute_force():
    cli = MODULES["cli"]
    cases = [(name, None) for name in answers.PLAIN_FACTS] + [
        ("binary", 2), ("binary", 3), ("parity", 2), ("parity", 3), ("parity", 4),
        ("unary-even", 2), ("unary-even", 4), ("double-unary", 3), ("lifted-cover", 3),
        ("lifted-cover", 4), ("lifted-cover", 5)]
    for name, r in cases:
        facts = answers.gadget_facts(name, r)
        maps = workloads._gadget_maps(cli, name, r)
        codes = _brute_codes(maps)
        assert len(maps) == facts["maps"] and len(answers.universe(maps)) == facts["n"]
        assert inputs.weight(maps) == facts["weight"]
        assert facts["colorings"] in (None, len(codes)), (name, r)
        assert answers.avoiding_codes(maps).tolist() == codes
    for r in range(1, 6):
        maps = workloads._gadget_maps(cli, "parity", r)
        assert answers.parity_avoiding_codes(r) == _brute_codes(maps)
        assert answers.parity_first_witness(r) == _brute_codes(maps)[0]


def test_multiplicities_count_every_containing_map():
    maps = inputs.desk_random_family(inputs.rng_for("test", 0))
    vertices = answers.universe(maps)
    counts = answers.multiplicities(maps)
    for code in range(1 << len(vertices)):
        color = {v: (code >> i) & 1 for i, v in enumerate(vertices)}
        assert counts[code] == sum(all(color[v] == b for v, b in m) for m in maps)


def test_parity_lhs_matches_the_definition():
    maps = [[(0, 0), (1, 1)], [(0, 1), (1, 1)], [(0, 0)], [(1, 0), (2, 1)]]
    # S = {0}: the first and third maps put 0 on vertex 0 (even), the second puts 1
    # (odd), and the last does not hold vertex 0.
    even, odd = [maps[0], maps[2]], [maps[1]]
    assert answers.parity_lhs(maps, (0,)) == inputs.weight(even) - inputs.weight(odd)


def test_inputs_depend_only_on_the_seed():
    for workload in ("desk", "dense", "search"):
        assert inputs.documents(workload, 7, "smoke") == inputs.documents(workload, 7, "smoke")
        assert inputs.documents(workload, 7, "smoke") != inputs.documents(workload, 8, "smoke")


def test_planted_coloring_avoids_every_map():
    for seed in range(5):
        rng = inputs.rng_for("test", seed)
        maps, planted = inputs.planted_family(rng, 12, 40)
        assert answers.universe(maps) == list(range(12))
        assert planted >> 8 == 0b1111
        assert answers.code_avoids_all(maps, planted)
        assert len({tuple(m) for m in maps}) == 40
        assert answers.avoiding_codes(maps)[0] >> 8 == 0b1111  # no early witness


def test_unary_pair_copy_is_a_relabeled_flip():
    for seed in range(5):
        maps, copy = inputs.unary_pair(inputs.rng_for("test", seed))
        assert len({tuple(v for v, _ in m) for m in maps}) == len(maps)
        sizes = {len(m) for m in maps}
        assert sizes in ({2}, {3})
        for (m, c) in zip(maps, copy):
            assert [1 - b for _, b in m] == [b for _, b in c]
        assert max(v for m in copy for v, _ in m) < 12


def test_exits_nonzero_without_dpcover_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("tests", "__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
