"""One workload in one process: set up, then measure or trace.

Started by run.py with the thread variables already fixed in its
environment, so numpy and the package see them from their first import.
Writes one JSON result file and exits 0; failed operations are counted in
the result, not raised.

Modes:
  setup    import and write the inputs, then stop (a set-up time sample)
  measure  untraced passes for about --seconds
  trace    untraced passes for about --seconds, then traced passes as long
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import size_lens
import tracing
from workloads import WORKLOADS

MAX_REPORTED_FAILURES = 5


def run_passes(workload, work_dir: Path, seconds: float, label: str, tracer=None, spans=None):
    """Repeat passes for about ``seconds``; at least one pass.

    Another pass starts only while it would end nearer to ``seconds`` than
    stopping now does, judged by the median pass so far. A run then
    measures about ``seconds`` whatever a pass costs, instead of overrunning
    by up to one pass.

    With a tracer, each pass's spans become per-layer metrics, and the
    first pass's spans are also written to ``spans``.
    """
    passes = []
    durations = []
    started = time.perf_counter()
    while not passes or (
        time.perf_counter() - started + statistics.median(durations) / 2 < seconds
    ):
        pass_dir = work_dir / f"{label}{len(passes)}"
        pass_started = time.perf_counter()
        outcomes = workload.run_pass(pass_dir)
        durations.append(time.perf_counter() - pass_started)
        shutil.rmtree(pass_dir, ignore_errors=True)
        record = {
            "seconds": durations[-1],  # the whole pass, oracles included
            "wall_s": sum(o.seconds for o in outcomes if o.ok),
            "op_s": [o.seconds for o in outcomes if o.ok],
            "attempted": len(outcomes),
            "failed": sum(not o.ok for o in outcomes),
            "failures": [o.detail for o in outcomes if not o.ok][:MAX_REPORTED_FAILURES],
        }
        if tracer is not None:
            taken = tracer.take()
            record["layers"] = tracing.layer_metrics(taken, tracer.layers)
            if not passes:
                tracer.write(taken, spans)
        passes.append(record)
    return passes


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "size_lens": size_lens.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--src", required=True, help="directory the package must come from")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="trace mode: where to write the first traced pass's spans")
    args = parser.parse_args(argv)

    package_dir = Path(size_lens.__file__).resolve().parent
    if package_dir.parent != Path(args.src).resolve():
        print(f"size_lens imported from {package_dir}, not from {args.src}", file=sys.stderr)
        return 2
    work_dir = Path(args.work_dir)
    workload = WORKLOADS[args.workload]()
    workload.prepare(work_dir, args.seed)
    result = {"ready_monotonic": time.monotonic(), "versions": versions()}
    if args.mode == "measure":
        result["passes"] = run_passes(workload, work_dir, args.seconds, "pass")
    elif args.mode == "trace":
        result["untraced"] = run_passes(workload, work_dir, args.seconds, "plain")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result["traced"] = run_passes(
                workload, work_dir, args.seconds, "traced", tracer, args.spans
            )
        finally:
            tracer.uninstall()
        result["absent"] = sorted(set(tracing.ALL_METRICS) - set(result["traced"][0]["layers"]))
        result["layers"] = {
            name: statistics.median(p["layers"][name] for p in result["traced"])
            for name in result["traced"][0]["layers"]
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
