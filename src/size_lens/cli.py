"""Command-line interface: analyze, simulate, and report subcommands.

Exit codes are stable: 0 success, 2 data/ingestion problems, 3 solver or
generation failures, 4 degenerate statistics, 5 filesystem errors. Every
run writes a manifest.json with the resolved flags and library versions so
a run can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__, adclus, bayesgen, sizelaw
from .errors import (
    DataError,
    SolverError,
    StatsError,
    TooFewDatasets,
    TooFewPoints,
    ZeroVariance,
    NoActiveFeatures,
)
from .ingest import (
    align_objects,
    filter_features,
    normalize_similarity,
    read_feature_csv,
    read_similarity_csv,
    write_feature_csv,
    write_similarity_csv,
)
from .report import (
    SizeLawReport,
    read_table,
    write_scatter_svg,
    write_table,
    write_ttest_summary,
)

__all__ = ["main", "build_parser"]

EXIT_INGEST = 2
EXIT_SOLVER = 3
EXIT_STATS = 4
EXIT_IO = 5

def _versions() -> dict:
    return {
        "size_lens": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _write_manifest(out_dir: Path, subcommand: str, flags: dict, extra: dict | None = None):
    manifest = {
        "subcommand": subcommand,
        "flags": flags,
        "defaults": {
            "kkt_tolerance": "1e-10 * (1 + max design column norm)",
            "max_iterations": "3 * n_features",
            "alignment_policy": "strict",
            "feature_size_filter": "off unless --min-feature-size/--max-feature-size given",
            "similarity_scale": "raw unless --normalize-similarity given",
        },
        "versions": _versions(),
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _safe_name(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("._")
    return cleaned or "dataset"


@dataclass(frozen=True)
class _AnalyzeJob:
    name: str
    features_path: str
    similarity_path: str
    align: str
    min_size: int | None
    max_size: int | None
    normalize: bool
    kkt_tolerance: float | None
    max_iterations: int | None


def _analyze_one(job: _AnalyzeJob) -> tuple[SizeLawReport, dict]:
    features = read_feature_csv(job.features_path)
    similarity = read_similarity_csv(job.similarity_path)
    bundle = align_objects(similarity, features, policy=job.align, name=job.name)
    feats = bundle.features
    if job.min_size is not None or job.max_size is not None:
        feats = filter_features(feats, job.min_size or 0, job.max_size)
    sim = bundle.similarity
    if job.normalize:
        sim = normalize_similarity(sim)
    solution = adclus.fit(
        feats,
        sim,
        kkt_tolerance=job.kkt_tolerance,
        max_iterations=job.max_iterations,
    )
    if not solution.converged:
        print(
            f"warning: dataset {job.name!r}: solver did not converge "
            f"within {solution.iterations} iterations",
            file=sys.stderr,
        )
    nan = float("nan")
    points = None
    stats = None
    try:
        points = sizelaw.extract_points(solution)
        stats = sizelaw.analyze(solution)
    except (NoActiveFeatures, TooFewPoints, ZeroVariance):
        pass  # degenerate rows are reported as NA, not failures
    report = SizeLawReport(
        set_name=job.name,
        pearson=stats.pearson if stats else nan,
        spearman=stats.spearman if stats else nan,
        fr_nonzero=solution.feature_ratio[0],
        fr_total=solution.feature_ratio[1],
        r_squared_mp=solution.r_squared,
        slope=stats.slope if stats else nan,
        intercept=stats.intercept if stats else nan,
        n_points=points.n_points if points is not None else 0,
        points=points,
    )
    meta = {
        "name": job.name,
        "features": job.features_path,
        "similarity": job.similarity_path,
        "objects_aligned": bundle.features.n_objects,
        "features_after_filter": feats.n_features,
        "dropped_from_features": list(bundle.provenance.dropped_from_features),
        "dropped_from_similarity": list(bundle.provenance.dropped_from_similarity),
        "solver_converged": solution.converged,
        "solver_iterations": solution.iterations,
        "solver_kkt_residual": solution.kkt_residual,
        "solver_active_size": len(solution.nonzero_feature_indices),
        "solver_gram_columns": solution.gram_columns,
        "solver_degenerate_drops": solution.degenerate_drops,
    }
    return report, meta


def cmd_analyze(args) -> int:
    n = len(args.features)
    if len(args.similarity) != n:
        raise DataError(
            f"{n} --features but {len(args.similarity)} --similarity; they pair by position"
        )
    names = list(args.name or [])
    if len(names) > n:
        raise DataError(f"{len(names)} --name values for {n} datasets")
    names += [Path(f).stem for f in args.features[len(names) :]]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        _AnalyzeJob(
            name=names[i],
            features_path=args.features[i],
            similarity_path=args.similarity[i],
            align=args.align,
            min_size=args.min_feature_size,
            max_size=args.max_feature_size,
            normalize=args.normalize_similarity,
            kkt_tolerance=args.kkt_tol,
            max_iterations=args.max_iter,
        )
        for i in range(n)
    ]
    outcomes = [_analyze_one(job) for job in jobs]
    reports = [report for report, _ in outcomes]
    write_table(reports, out_dir / "table.csv")
    used = set()
    for report in reports:
        base = _safe_name(report.set_name)
        candidate = base
        counter = 2
        while candidate in used:
            candidate = f"{base}_{counter}"
            counter += 1
        used.add(candidate)
        if report.points is not None and report.points.n_points >= 2:
            write_scatter_svg(report, out_dir / f"scatter_{candidate}.svg")
    flags = {
        "features": list(args.features),
        "similarity": list(args.similarity),
        "name": names,
        "align": args.align,
        "min_feature_size": args.min_feature_size,
        "max_feature_size": args.max_feature_size,
        "normalize_similarity": args.normalize_similarity,
        "kkt_tol": args.kkt_tol,
        "max_iter": args.max_iter,
        "out_dir": str(args.out_dir),
    }
    _write_manifest(out_dir, "analyze", flags, {"datasets": [meta for _, meta in outcomes]})
    return 0


def cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    law = args.law.replace("-", "_")
    features, similarity, weights = bayesgen.plant_dataset(
        n_objects=args.objects,
        n_features=args.n_features,
        weight_law=law,
        noise_sd=args.noise_sd,
        seed=args.seed,
    )
    if args.from_generalization:
        space = bayesgen.hypothesis_space_from_features(features)
        similarity = bayesgen.generalization_matrix(space, n_examples=args.n_examples)
    write_feature_csv(features, out_dir / "features.csv")
    write_similarity_csv(similarity, out_dir / "similarity.csv")
    lines = ["feature,size,weight"]
    for name, size, weight in zip(features.feature_names, features.feature_sizes, weights):
        lines.append(f"{name},{int(size)},{repr(float(weight))}")
    (out_dir / "planted_weights.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    flags = {
        "objects": args.objects,
        "n_features": args.n_features,
        "law": args.law,
        "noise_sd": args.noise_sd,
        "seed": args.seed,
        "from_generalization": args.from_generalization,
        "n_examples": args.n_examples,
        "out_dir": str(args.out_dir),
    }
    extra = {
        "similarity_source": "generalization_matrix" if args.from_generalization else "planted_weights",
    }
    _write_manifest(out_dir, "simulate", flags, extra)
    return 0


def cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for path in args.inputs:
        rows.extend(read_table(path))
    if len(rows) < 2:
        raise TooFewDatasets(f"need at least 2 dataset rows, got {len(rows)}")
    pearson_values = [r.pearson for r in rows if math.isfinite(r.pearson)]
    spearman_values = [r.spearman for r in rows if math.isfinite(r.spearman)]
    if len(pearson_values) < 2 or len(spearman_values) < 2:
        raise TooFewDatasets(
            f"need at least 2 non-degenerate rows, got {len(pearson_values)} Pearson "
            f"and {len(spearman_values)} Spearman"
        )
    results = [
        ("pearson", sizelaw.one_sample_ttest_negative(pearson_values)),
        ("spearman", sizelaw.one_sample_ttest_negative(spearman_values)),
    ]
    excluded = {
        "pearson": len(rows) - len(pearson_values),
        "spearman": len(rows) - len(spearman_values),
    }
    write_table(rows, out_dir / "merged.csv")
    write_ttest_summary(results, out_dir / "ttests.csv", excluded=excluded)
    flags = {
        "inputs": list(args.inputs),
        "out_dir": str(args.out_dir),
    }
    _write_manifest(
        out_dir,
        "report",
        flags,
        {"rows_total": len(rows), "rows_excluded": excluded},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="size-lens",
        description=(
            "Fit non-negative additive-clustering weights to similarity data "
            "and test how weight falls with feature size."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    analyze = sub.add_parser(
        "analyze", help="fit weights to feature/similarity CSV pairs and emit reports"
    )
    analyze.add_argument(
        "--features", action="append", required=True, help="feature CSV (repeatable)"
    )
    analyze.add_argument(
        "--similarity", action="append", required=True, help="similarity CSV (repeatable)"
    )
    analyze.add_argument(
        "--name", action="append", help="dataset display name (repeatable, pairs by position)"
    )
    analyze.add_argument("--min-feature-size", type=int, default=None)
    analyze.add_argument("--max-feature-size", type=int, default=None)
    analyze.add_argument("--align", choices=["strict", "intersect"], default="strict")
    analyze.add_argument("--normalize-similarity", action="store_true")
    analyze.add_argument("--kkt-tol", type=float, default=None)
    analyze.add_argument("--max-iter", type=int, default=None)
    analyze.add_argument("--out-dir", required=True)
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser(
        "simulate", help="plant a synthetic dataset with known ground-truth weights"
    )
    simulate.add_argument("--objects", type=int, required=True)
    simulate.add_argument("--n-features", type=int, required=True)
    simulate.add_argument(
        "--law",
        choices=["inverse-size", "inverse-size-squared", "uniform"],
        default="inverse-size",
    )
    simulate.add_argument("--noise-sd", type=float, default=0.0)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument(
        "--from-generalization",
        action="store_true",
        help="derive similarities from the Bayesian generalization model instead",
    )
    simulate.add_argument("--n-examples", type=int, default=1)
    simulate.add_argument("--out-dir", required=True)
    simulate.set_defaults(func=cmd_simulate)

    report = sub.add_parser(
        "report", help="merge per-dataset tables and t-test the correlations"
    )
    report.add_argument("inputs", nargs="+", help="table CSVs produced by analyze")
    report.add_argument("--out-dir", required=True)
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except DataError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except SolverError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except StatsError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_STATS
    except OSError as exc:
        print(f"error[OSError]: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
