#!/usr/bin/env python3
"""size-lens benchmark: one workload per call, end-to-end or traced.

  python3 perfbench/run.py --workload perceptual --seed 20260819 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all

Run from a checkout of the repository; the package is imported from its
``src/`` directory. Each workload runs in child processes of its own as a
closed loop with one client: every operation waits for the previous one.
The children get SIZE_LENS_THREADS, OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set explicitly, so no inherited shell variable changes a
number (see ``thread_settings``).

--trace 0 prints the end-to-end metrics; --trace 1 the per-layer metrics of
a traced run, the tracing overhead and the single-threaded reference. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. README.md beside this file
describes the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("perceptual", "lab-batch", "many-objects", "paper-sweep")
# The C8 acceptance instance is drawn from this seed; with it the perceptual
# workload writes exactly the C8 input files.
DEFAULT_SEED = 20260819
# Not used while the benchmark was written: confirm later claims on it too.
HELD_OUT_SEED = 17050326
# Set-up is sampled at least this many times per run and reported as the
# median.
SETUP_SAMPLES = 5
# Per-operation percentiles are reported only from this many operations up,
# so that p90 has at least ten samples beyond it; only paper-sweep has them.
MIN_OPS_FOR_PERCENTILES = 100
# Every child must end within this many seconds of the run's start.
RUN_DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def thread_settings(pool: int) -> dict:
    """Environment for a child: ``pool`` package threads, one BLAS thread each.

    The package's pool gets every core and BLAS gets one thread per solve,
    so a run never has more busy threads than cores. Letting both default
    to the core count oversubscribes the cores and made lab-batch both
    slower and much noisier. ``pool=1`` is the single-threaded reference.
    """
    return {"SIZE_LENS_THREADS": str(pool), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def source_identity() -> dict:
    # An exported tree has no git metadata, so fingerprint the package
    # sources as well as asking git.
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, run_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.deadline = deadline
        self.children = 0

    def child(
        self, mode: str, threads: dict, spans: Path | None = None, seconds: float | None = None
    ) -> tuple[float, dict]:
        """Run one child process; return its set-up seconds and its result.

        ``seconds`` overrides the run's measuring time for this child.
        """
        self.children += 1
        work_dir = self.run_dir / f"child{self.children}"
        work_dir.mkdir()
        result_path = work_dir / "result.json"
        env = dict(os.environ)
        env.update(threads)
        env["PYTHONPATH"] = str(SRC)
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds if seconds is None else seconds),
            "--mode", mode, "--src", str(SRC),
            "--work-dir", str(work_dir), "--result", str(result_path),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError(f"no time left for the {mode} child")
        started = time.monotonic()
        try:
            # stdout goes to stderr so that this script's last line stays the result
            completed = subprocess.run(command, env=env, stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{mode} child exceeded {timeout:.0f} s") from None
        if completed.returncode != 0:
            raise BenchmarkError(f"{mode} child exited {completed.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        shutil.rmtree(work_dir, ignore_errors=True)
        return result["ready_monotonic"] - started, result


def _quantile(values, fraction):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _tally(passes):
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def _failures(passes):
    return [detail for p in passes for detail in p["failures"]]


def measure(runner: Runner, threads: dict) -> dict:
    """End-to-end metrics: set-up, wall, per-operation latency, peak RSS.

    Each measuring child sets up and makes one pass. Another child starts
    while its pass would end nearer to ``runner.seconds`` of passes than
    stopping does. Every child's set-up is a sample, so the samples span the
    run instead of one moment of the host's drifting speed; set-up-only
    children make up the count to SETUP_SAMPLES when passes are long.
    """
    setups, passes, results = [], [], []
    while not passes or (
        sum(p["seconds"] for p in passes) + statistics.median(p["seconds"] for p in passes) / 2
        < runner.seconds
    ):
        setup, result = runner.child("measure", threads, seconds=0.0)
        setups.append(setup)
        passes += result["passes"]
        results.append(result)
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup", threads)[0])
    ops = [s for p in passes for s in p["op_s"]]
    attempted, failed = _tally(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    record = {
        "versions": results[0]["versions"],
        "passes": len(passes),
        "op_samples": len(ops),
        # Reported, not gated: see "Why the per-cell percentiles are not gated"
        # in README.md.
        "op_ms": {
            "p50": 1e3 * statistics.median(ops),
            "p90": 1e3 * _quantile(ops, 0.9),
        } if len(ops) >= MIN_OPS_FOR_PERCENTILES else None,
        "setup_samples_s": setups,
        "failed_fraction": failed / attempted,
        "failures": _failures(passes),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "record": record}


def traced(runner: Runner, threads: dict, spans: Path) -> dict:
    """Per-layer metrics, tracing overhead and the single-threaded reference.

    The untraced, traced and single-threaded passes share the run's
    measuring time, a third each, so a traced run lasts about as long as an
    untraced one.
    """
    share = runner.seconds / 3
    _, result = runner.child("trace", threads, spans, share)
    _, single = runner.child("measure", thread_settings(1), seconds=share)
    plain = statistics.median(p["wall_s"] for p in result["untraced"])
    with_spans = statistics.median(p["wall_s"] for p in result["traced"])
    metrics = {name: (value, _unit(name)) for name, value in result["layers"].items()}
    metrics["trace.untraced_wall_s"] = (plain, "s")
    metrics["trace.traced_wall_s"] = (with_spans, "s")
    metrics["trace.overhead_s"] = (with_spans - plain, "s")
    single_wall = statistics.median(p["wall_s"] for p in single["passes"])
    metrics["single_thread.wall_s"] = (single_wall, "s")
    metrics["single_thread.peak_rss_mb"] = (single["peak_rss_mb"], "MB")
    runs = result["untraced"] + result["traced"] + single["passes"]
    attempted, failed = _tally(runs)
    record = {
        "versions": result["versions"],
        "absent_metrics": result["absent"],
        "spans_file": str(spans.relative_to(ROOT)),
        "failed_fraction": failed / attempted,
        "failures": _failures(runs),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "record": record}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "cli.pool_parallelism":
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "size_lens" / "__init__.py").is_file():
        raise BenchmarkError(f"no package at {SRC / 'size_lens'}; run from a checkout")
    cores = usable_cores()
    threads = thread_settings(cores)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    runner = Runner(workload, seed, seconds, run_dir, time.monotonic() + RUN_DEADLINE_S)
    try:
        if trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            outcome = traced(runner, threads, out_dir / f"spans-{workload}.json")
        else:
            outcome = measure(runner, threads)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    outcome["record"].update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        nproc=cores,
        threads=threads,
        single_thread_reference=thread_settings(1) if trace else None,
        default_seed=DEFAULT_SEED,
        held_out_seed=HELD_OUT_SEED,
        **source_identity(),
    )
    return outcome


def report(outcome: dict) -> dict:
    record = outcome["record"]
    for detail in record["failures"]:
        print(f"FAILED {record['workload']}: {detail}", file=sys.stderr)
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{record['workload']:<13} {name:<26} {value:>14.6g} {unit}")
    for name, value in (record.get("op_ms") or {}).items():
        print(f"{record['workload']:<13} {'op_' + name + '_ms':<26} {value:>14.6g} ms "
              "(reported, not gated)")
    print(f"{record['workload']:<13} {'failed_fraction':<26} {record['failed_fraction']:>14.6g} "
          f"({outcome['failed']}/{outcome['attempted']})")
    print(json.dumps({"record": record}, sort_keys=True))
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [
            report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            for name in names
        ]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
