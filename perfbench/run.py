"""dpcover benchmark: one workload of verdicts, run as a closed loop with one client.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

A pass runs the workload's fixed list of verdicts in order, each verdict
waiting for the previous one; passes repeat until the next one would end
after --seconds (there is always at least one).  Every verdict is checked
against a known answer outside its timed call.

--trace 0 prints the end-to-end metrics.  Their times are reference seconds:
each verdict's time is rescaled by the speed the CPU showed around it on a
fixed reference task run between verdicts (see reference.py), because the
shared host's own speed drifts by more than the bounds.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced passes plus
trace.overhead; its numbers never feed the end-to-end metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A result file with the environment goes to
.perfbench_run/results/ at the checkout root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import checkout
import reference
import tracing
import workloads

SETUP_REPS = {"full": 7, "smoke": 1}

END_TO_END = {
    "setup_s": "s",
    "suite_s": "s",
    "verdict_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the benchmark's own tests")
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, size: str, out: Path, cpu: int) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import dpcover, warm up and write
    the inputs, and the speed factor of reference.py measured right after.

    The child runs on `cpu`, the benchmark's home CPU.  Left to the
    scheduler it may land on an idle CPU, where a fresh interpreter started
    up to twice as slowly on a 2-CPU virtual machine, so set-up time would
    depend on placement rather than on the program.
    """
    argv = [sys.executable, str(checkout.HERE / "setup_child.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, "--out", str(out), "--cpu", str(cpu)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], reference.speed_factor(result["reference_s"])


def run_pass(suite: workloads.Suite, tracer: tracing.Tracer | None = None,
             monitor: reference.Monitor | None = None,
             cpus: reference.Cpus | None = None) -> list[tuple]:
    """(verdict id, seconds, problem or None) for every verdict, in order;
    `monitor` takes its reference samples between verdicts.  With `cpus`
    set, the process leaves its home CPU only for parallel verdicts."""
    records = []
    for verdict in suite.verdicts:
        if tracer is not None:
            tracer.verdict = verdict.id
        if cpus is not None and verdict.parallel:
            cpus.spread()
        t0 = time.perf_counter()
        try:
            result = verdict.call()
            problem = None
        except Exception as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if cpus is not None and verdict.parallel:
            cpus.go_home()
        if problem is None:
            try:
                problem = verdict.check(result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        records.append((verdict.id, seconds, problem))
        if monitor is not None:
            monitor.after_verdict(seconds)
    return records


def pass_seconds(records: list[tuple]) -> float:
    return sum(seconds for _, seconds, _ in records)


def measure(suite: workloads.Suite, seconds: float, setup: Callable[[float], None],
            cpus: reference.Cpus) -> tuple[list[list[tuple]], reference.Monitor]:
    """Passes until the next one would end after `seconds`, and the reference
    samples taken between their verdicts; between passes, `setup` gets the
    share of the run done so far."""
    passes, walls = [], []
    monitor = reference.Monitor(cpus)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(suite, monitor=monitor, cpus=cpus))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            return passes, monitor
        setup(elapsed / seconds)


def measure_traced(suite: workloads.Suite, seconds: float, tracer: tracing.Tracer,
                   cpus: reference.Cpus):
    """Alternate untraced and traced passes, swapping which goes first each round."""
    untraced, traced, walls = [], [], []
    index_s = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for on in (False, True) if len(walls) % 2 == 0 else (True, False):
            if on:
                with tracer:
                    traced.append(run_pass(suite, tracer, cpus=cpus))
                tracer.verdict = None
                index_s += tracer.probe_sample_index()
            else:
                untraced.append(run_pass(suite, cpus=cpus))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return untraced, traced, index_s


def peak_rss_mb() -> float:
    """Larger of this process's and its children's maximum RSS (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _pass_times(passes: list[list[tuple]], parallel: list[bool],
                scale: Callable[[int], float]) -> dict:
    """suite_s, verdict_p50_ms and each verdict's median over passes in ms,
    each verdict's seconds multiplied by scale(its index in the run).

    verdict_p50_ms is the median, over the verdicts that run in this process
    alone, of each verdict's median across passes.  A median over all
    latencies would jump between two verdict kinds on workloads with few.
    Verdicts that start worker processes (`parallel`) count in suite_s only:
    on dense they sit among the middle verdicts, and on a shared host their
    time rose by half for minutes while the reference task on either CPU did
    not, so they reordered the middle and moved the median by 40%."""
    scaled = []
    for number, records in enumerate(passes):
        first = number * len(records)
        scaled.append([seconds * scale(first + i) for i, (_, seconds, _) in enumerate(records)])
    per_verdict = [statistics.median(column) for column in zip(*scaled)]
    serial = [seconds for seconds, par in zip(per_verdict, parallel) if not par] or per_verdict
    return {
        "suite_s": statistics.median(sum(times) for times in scaled),
        "verdict_p50_ms": statistics.median(serial) * 1e3,
        "verdict_median_ms": [seconds * 1e3 for seconds in per_verdict],
    }


def end_to_end(passes: list[list[tuple]], parallel: list[bool], monitor: reference.Monitor,
               setups: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics, times in reference seconds, and the
    per-verdict medians; `parallel` flags the verdicts of a pass that run
    worker processes."""
    return {
        "setup_s": statistics.median(seconds * factor for seconds, factor in setups),
        **_pass_times(passes, parallel,
                      lambda index: monitor.factor(index, parallel[index % len(parallel)])),
        "peak_rss_mb": peak_rss_mb(),
    }


def wall_clock(passes: list[list[tuple]], parallel: list[bool],
               setups: list[tuple[float, float]]) -> dict:
    """The same times as measured, before rescaling; printed, not gated."""
    return {
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        **_pass_times(passes, parallel, lambda index: 1.0),
    }


def verdict_p90_ms(passes: list[list[tuple]]) -> float:
    """90th percentile verdict latency.  Printed, not gated: only desk runs
    hundreds of verdicts of one kind; on the other workloads it falls between
    two verdict kinds and jumps between them from run to run."""
    latencies = [seconds for records in passes for _, seconds, _ in records]
    return statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (checkout.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        modules = checkout.load_dpcover()
    except ImportError as exc:
        print(f"error: cannot import dpcover from this checkout: {exc}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    cpus = reference.Cpus.pin_here()
    env["home_cpu"] = cpus.home
    checkout.WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=checkout.WORK))
    tracer = tracing.Tracer(modules) if args.trace else None
    setups: list[tuple[float, float]] = []  # (seconds, speed factor)
    reps = SETUP_REPS[args.size]

    def sample_setup(progress: float = 1.0) -> None:
        """Measure one more set-up once the run has done the share of its
        length at which that sample is due, so the samples span the run."""
        if len(setups) < reps and progress >= len(setups) / reps:
            out = run_dir / f"setup-{len(setups)}"
            setups.append(measure_setup(args.workload, args.seed, args.size, out, cpus.home))

    try:
        sample_setup()
        checkout.warm_up(modules)
        suite = workloads.build(args.workload, modules, run_dir / "setup-0", run_dir,
                                args.seed, args.size)
        if tracer is None:
            passes, monitor = measure(suite, args.seconds, sample_setup, cpus)
            while len(setups) < reps:
                sample_setup()
            parallel = [v.parallel for v in suite.verdicts]
            metrics = end_to_end(passes, parallel, monitor, setups)
            wall = wall_clock(passes, parallel, setups)
            units = END_TO_END
        else:
            untraced, traced, index_s = measure_traced(suite, args.seconds, tracer, cpus)
            passes = untraced + traced
            metrics = tracing.layer_metrics(
                tracer.spans, len(traced), index_s,
                statistics.median(pass_seconds(p) for p in traced),
                statistics.median(pass_seconds(p) for p in untraced),
            )
            units = {name: spec[0] for name, spec in tracing.PER_LAYER.items()}
    finally:
        cpus.spread()  # main() may run inside another process, as in the tests
        shutil.rmtree(run_dir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    attempted = sum(len(p) for p in passes)
    failures = [(vid, problem) for records in passes for vid, _, problem in records if problem]
    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    per_verdict = metrics.pop("verdict_median_ms", None)
    detail = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "environment": env, "passes": len(passes),
        "verdicts_per_pass": len(suite.verdicts), "setups_s_and_factor": setups,
        "verdict_p90_ms": verdict_p90_ms(passes),
        "fail_frac": len(failures) / attempted, "failures": failures[:50],
        "verdict_median_ms": {
            v.id: statistics.median(r[i][1] for r in passes) * 1e3
            for i, v in enumerate(suite.verdicts)
        },
        "verdict_median_reference_ms": per_verdict and dict(
            zip((v.id for v in suite.verdicts), per_verdict)),
    }
    results = checkout.WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    if tracer is None:
        wall.pop("verdict_median_ms")
        detail["wall_clock"] = wall
        detail["reference_samples_s"] = monitor.samples
    else:
        shares = tracing.layer_shares(tracer.spans, sum(pass_seconds(p) for p in traced))
        detail["layer_shares"] = shares
        tracer.write(results / f"{stem}-spans.jsonl")
    (results / f"{stem}.json").write_text(json.dumps({**detail, **report}, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}"
          f"  verdicts {attempted} ({len(suite.verdicts)} per pass)  failed {len(failures)}"
          f"  fail_frac {len(failures) / attempted:g}")
    for name, unit in units.items():
        note = tracing.PER_LAYER[name][2] if tracer is not None else {
            "setup_s": f"median of {len(setups)} fresh interpreters",
            "suite_s": f"median of {len(passes)} passes",
            "verdict_p50_ms": f"median of {sum(not v.parallel for v in suite.verdicts)} serial"
                              f" verdicts' medians over {len(passes)} passes",
            "peak_rss_mb": "max of process and children",
        }[name]
        if tracer is None and name in wall:
            note = f"reference time; {wall[name]:.6g} {unit} wall clock; {note}"
        print(f"  {name:34s} {metrics[name]:14.6g} {unit:6s} {note}")
    if tracer is None:
        print(f"  {'verdict_p90_ms':34s} {detail['verdict_p90_ms']:14.6g} {'ms':6s}"
              f" wall clock over {attempted} verdicts; not gated, steady on desk only")
        home = [reference.speed_factor([s[cpus.home]]) for s in monitor.samples]
        print(f"  speed factor (reference s per wall s): home CPU {cpus.home} {min(home):.3g}"
              f" to {max(home):.3g} over {len(home)} samples, set-ups"
              f" {min(f for _, f in setups):.3g} to {max(f for _, f in setups):.3g}")
    else:
        top = ", ".join(f"{layer} {share:.1%}" for layer, share in list(shares.items())[:6])
        kernel = sum(shares.get(layer, 0.0) for layer in tracing.KERNEL_LAYERS)
        print(f"  self-time shares of traced passes: {top}; kernel (scan+codes+table) {kernel:.1%}")
    for vid, problem in failures[:10]:
        print(f"FAIL {vid}: {problem}", file=sys.stderr)
    print(f"environment {json.dumps(env)}")
    print(f"result file {results / (stem + '.json')}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
