"""The four benchmark workloads: seeded inputs, timed operations, oracles.

Every workload turns ``--seed`` into its inputs with numpy code of its own;
the program only ever sees the generated files or arrays. Outputs are
checked here, by code that recomputes or re-parses them, never by asking
the package to grade itself. See README.md beside this file for why each
workload exists.

A workload exposes ``prepare(work_dir, seed)``, which writes the inputs and
is the end of set-up, and ``run_pass(pass_dir)``, which performs one pass of
timed operations and returns one ``Outcome`` per operation. An operation
fails when the program raises, exits non-zero, or an oracle rejects what it
wrote.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
import traceback
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from size_lens import adclus, bayesgen, cli, sizelaw
from size_lens.errors import StatsError
from size_lens.ingest import write_feature_csv, write_similarity_csv
from size_lens.matrices import FeatureMatrix, SimilarityMatrix


class OracleError(Exception):
    """An output failed a check made by the benchmark's own code."""


def expect(condition, message):
    if not condition:
        raise OracleError(message)


@dataclass
class Outcome:
    seconds: float
    ok: bool
    detail: str = ""


def _names(prefix, count, width):
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


def _write_inputs(directory: Path, cells: np.ndarray, grid: np.ndarray):
    n_objects, n_features = cells.shape
    objects = _names("o", n_objects, 3)
    directory.mkdir(parents=True, exist_ok=True)
    features_path = directory / "features.csv"
    similarity_path = directory / "similarity.csv"
    write_feature_csv(FeatureMatrix(objects, _names("f", n_features, 4), cells), features_path)
    write_similarity_csv(SimilarityMatrix(objects, grid), similarity_path)
    return str(features_path), str(similarity_path)


def _model_grid(cells: np.ndarray, weights: np.ndarray) -> np.ndarray:
    f = cells.astype(np.float64)
    full = (f * weights) @ f.T
    return np.triu(full) + np.triu(full, k=1).T


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row]


def _table_rows(out_dir: Path) -> list[dict]:
    rows = _read_csv(out_dir / "table.full.csv")
    header = rows[0]
    expect(header[:3] == ["Set", "Pearson", "Spearman"], f"unexpected table header {header}")
    parsed = []
    for row in rows[1:]:
        record = dict(zip(header, row))
        for key in ("Pearson", "Spearman", "R2_MP", "Slope"):
            record[key] = float("nan") if record[key] == "NA" else float(record[key])
        for key in ("FR_nonzero", "FR_total", "N"):
            record[key] = int(record[key])
        parsed.append(record)
    return parsed


def _manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def _run_cli(argv) -> float:
    started = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - started
    expect(code == 0, f"size-lens {argv[0]} exited {code}")
    return elapsed


def _guarded(operation) -> Outcome:
    # One operation's boundary: any exception is a failed operation with its
    # traceback kept for the log, never a crashed benchmark.
    try:
        return Outcome(operation(), True)
    except OracleError as exc:
        return Outcome(0.0, False, f"oracle: {exc}")
    except Exception:  # noqa: BLE001 - the program under test may raise anything
        return Outcome(0.0, False, traceback.format_exc(limit=4))


class Perceptual:
    """One ``analyze`` of the C8 instance: 120 objects x 4096 features.

    The only workload with one huge solve; the dense pair design is 234 MB.
    """

    name = "perceptual"
    n_objects, n_features, n_support = 120, 4096, 180

    def prepare(self, work_dir: Path, seed: int):
        rng = np.random.default_rng(seed)
        while True:  # C8 requires every feature size in [1, n_objects - 1]
            cells = (rng.random((self.n_objects, self.n_features)) < 0.1).astype(np.uint8)
            sizes = cells.sum(axis=0)
            if sizes.min() >= 1 and sizes.max() < self.n_objects:
                break
        support = rng.choice(self.n_features, size=self.n_support, replace=False)
        weights = np.zeros(self.n_features)
        weights[support] = 1.0 / sizes[support]
        self.inputs = _write_inputs(work_dir / "input", cells, _model_grid(cells, weights))

    def run_pass(self, pass_dir: Path) -> list[Outcome]:
        def operation():
            features, similarity = self.inputs
            elapsed = _run_cli(
                ["analyze", "--features", features, "--similarity", similarity,
                 "--name", "perceptual-scale", "--out-dir", str(pass_dir)]
            )
            check_perceptual(pass_dir, self.n_features)
            return elapsed

        return [_guarded(operation)]


def check_perceptual(out_dir: Path, n_features: int):
    (row,) = _table_rows(out_dir)
    expect(row["FR_total"] == n_features, f"FR_total {row['FR_total']} != {n_features}")
    expect(row["FR_nonzero"] >= 3, f"only {row['FR_nonzero']} non-zero weights")
    expect(row["R2_MP"] >= 1.0 - 1e-9, f"R2 {row['R2_MP']!r} below 1 - 1e-9")
    expect(_manifest(out_dir)["datasets"][0]["solver_converged"] is True, "solver did not converge")


def plant(rng, n_objects, n_features, noise_sd):
    """Bernoulli(0.3) features with full-rank pair design, weights 1/size."""
    ii, jj = np.triu_indices(n_objects, k=1)
    while True:
        cells = (rng.random((n_objects, n_features)) < 0.3).astype(np.uint8)
        sizes = cells.sum(axis=0)
        if sizes.min() == 0 or sizes.max() == n_objects:
            continue
        if np.linalg.matrix_rank((cells[ii] * cells[jj]).astype(np.float64)) == n_features:
            break
    grid = _model_grid(cells, 1.0 / sizes)
    noise = np.zeros((n_objects, n_objects))
    noise[ii, jj] = rng.normal(0.0, noise_sd, ii.size)
    return cells, grid + noise + noise.T


class LabBatch:
    """``analyze`` over 17 noisy planted datasets, then ``report``.

    The paper's batch use and the only workload that runs the thread pool,
    17 scatter SVGs and the t-test. 17 matches the C4 reference count.
    """

    name = "lab-batch"
    n_datasets = 17
    objects = (40, 60, 80)
    features = (60, 90, 120)
    noise_sd = 0.02

    def prepare(self, work_dir: Path, seed: int):
        self.datasets = []
        for i in range(self.n_datasets):
            rng = np.random.default_rng([seed, i])
            n_objects = self.objects[i % len(self.objects)]
            n_features = self.features[(i // len(self.objects)) % len(self.features)]
            cells, grid = plant(rng, n_objects, n_features, self.noise_sd)
            self.datasets.append(_write_inputs(work_dir / f"input{i:02d}", cells, grid))

    def run_pass(self, pass_dir: Path) -> list[Outcome]:
        def operation():
            argv = ["analyze"]
            for i, (features, similarity) in enumerate(self.datasets):
                argv += ["--features", features, "--similarity", similarity, "--name", f"d{i:02d}"]
            fit_dir = pass_dir / "fit"
            summary_dir = pass_dir / "summary"
            elapsed = _run_cli(argv + ["--out-dir", str(fit_dir)])
            elapsed += _run_cli(
                ["report", str(fit_dir / "table.csv"), "--out-dir", str(summary_dir)]
            )
            check_lab_batch(fit_dir, summary_dir, self.n_datasets)
            return elapsed

        return [_guarded(operation)]


def check_lab_batch(fit_dir: Path, summary_dir: Path, n_datasets: int):
    rows = _table_rows(fit_dir)
    expect(len(rows) == n_datasets, f"{len(rows)} table rows, expected {n_datasets}")
    for row in rows:
        expect(row["Pearson"] <= -0.9, f"{row['Set']}: Pearson {row['Pearson']!r} > -0.9")
        expect(-1.1 <= row["Slope"] <= -0.9,
               f"{row['Set']}: slope {row['Slope']!r} outside [-1.1, -0.9]")
    svgs = sorted(fit_dir.glob("scatter_*.svg"))
    expect(len(svgs) == n_datasets, f"{len(svgs)} scatter SVGs, expected {n_datasets}")
    for svg in svgs:
        expect(ElementTree.parse(svg).getroot().tag.endswith("svg"), f"{svg.name} is not an SVG")
    # Imported here, after set-up: the oracle's scipy.stats import would
    # otherwise add about 0.5 s to every workload's setup_s.
    import scipy.stats

    # report reads the 2-decimal display table, so test the values it saw.
    shown = [float(row[1]) for row in _read_csv(fit_dir / "table.csv")[1:]]
    test = scipy.stats.ttest_1samp(shown, 0.0, alternative="less")
    expect(test.pvalue < 1e-4, f"own t-test p {test.pvalue!r} >= 1e-4")
    ttests = {row[0]: row for row in _read_csv(summary_dir / "ttests.csv")[1:]}
    expect("pearson" in ttests, "ttests.csv has no pearson row")
    expect(abs(float(ttests["pearson"][1]) - float(test.statistic)) <= 1e-4,
           f"reported t {ttests['pearson'][1]} != own t {test.statistic:.4f}")
    expect(ttests["pearson"][3] == "<0.0001", f"reported p {ttests['pearson'][3]!r}")


class ManyObjects:
    """``simulate --from-generalization`` on 600 objects, then ``analyze``.

    Tall and thin (179 700 pairs x 32 features): CSV write and read of a
    6.8 MB similarity grid, the generalization matrix, intersect alignment,
    feature filtering and normalization all sit on the timed path.
    """

    name = "many-objects"
    n_objects, n_features, n_examples = 600, 32, 2

    def prepare(self, work_dir: Path, seed: int):
        # About 0.7% of draws leave an object in no feature, which simulate
        # rightly rejects (exit 3). Such a seed is not a valid input for this
        # workload, so take the first seed from here on whose draw covers
        # every object.
        self.seed = seed
        while True:
            features, _, _ = bayesgen.plant_dataset(self.n_objects, self.n_features, seed=self.seed)
            if features.cells.any(axis=1).all():
                break
            self.seed += 1

    def run_pass(self, pass_dir: Path) -> list[Outcome]:
        def operation():
            sim_dir = pass_dir / "sim"
            fit_dir = pass_dir / "fit"
            elapsed = _run_cli(
                ["simulate", "--from-generalization", "--objects", str(self.n_objects),
                 "--n-features", str(self.n_features), "--n-examples", str(self.n_examples),
                 "--seed", str(self.seed), "--out-dir", str(sim_dir)]
            )
            elapsed += _run_cli(
                ["analyze", "--features", str(sim_dir / "features.csv"),
                 "--similarity", str(sim_dir / "similarity.csv"), "--align", "intersect",
                 "--normalize-similarity", "--min-feature-size", "2",
                 "--out-dir", str(fit_dir)]
            )
            check_many_objects(fit_dir)
            return elapsed

        return [_guarded(operation)]


def check_many_objects(fit_dir: Path):
    (row,) = _table_rows(fit_dir)
    expect(math.isfinite(row["Pearson"]) and row["Pearson"] < 0.0, f"Pearson {row['Pearson']!r}")
    expect(_manifest(fit_dir)["datasets"][0]["solver_converged"] is True, "solver did not converge")


LAWS = ("inverse_size", "inverse_size_squared", "uniform")
NOISES = (0.0, 0.01, 0.05)


def sweep_cells(seed: int, count: int):
    """(law, noise_sd, n_objects, n_features, plant seed) for each cell."""
    plant_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=count)
    return [
        (LAWS[c % 3], NOISES[(c // 3) % 3], 10 + c % 7, 6 + c % 3, int(plant_seeds[c]))
        for c in range(count)
    ]


def _relative_sd(values: np.ndarray) -> float:
    mean = float(values.mean())
    return float(np.sqrt(np.mean((values - mean) ** 2))) / max(1.0, abs(mean))


def check_sweep_cell(features, similarity, planted, noise_sd, solution, stats):
    """Recovery, KKT and statistics of one cell, recomputed with numpy."""
    f = features.cells.astype(np.float64)
    n = f.shape[0]
    ii, jj = np.triu_indices(n, k=1)
    design = f[ii] * f[jj]
    target = similarity.cells[ii, jj]
    w = np.asarray(solution.weights, dtype=np.float64)
    expect((w >= 0.0).all(), "negative weight")
    if noise_sd == 0.0:
        error = float(np.max(np.abs(w - planted))) / float(np.max(np.abs(planted)))
        expect(error <= 1e-8, f"noiseless recovery error {error:.3e} > 1e-8")
    gradient = design.T @ (design @ w - target)
    tolerance = 1e-8 * (1.0 + float(np.linalg.norm(design, axis=0).max())) * (
        1.0 + float(np.abs(target).max())
    )
    positive = w > 0.0
    kkt = max(
        float(np.abs(gradient[positive]).max(initial=0.0)),
        float(np.maximum(-gradient[~positive], 0.0).max(initial=0.0)),
    )
    expect(kkt <= tolerance, f"KKT residual {kkt:.3e} > {tolerance:.3e}")

    sizes = f.sum(axis=0)
    active = positive & (sizes > 0)
    log_sizes = np.log(sizes[active])
    log_weights = np.log(w[active])
    spread = min(_relative_sd(log_sizes), _relative_sd(log_weights)) if active.sum() >= 2 else 0.0
    if active.sum() < 3 or spread < 1e-13:
        expect(stats is None, "statistics reported for a degenerate fit")
    elif spread > 1e-9:
        expect(stats is not None, "no statistics for a non-degenerate fit")
        own_r = float(np.corrcoef(log_sizes, log_weights)[0, 1])
        own_slope = float(np.polyfit(log_sizes, log_weights, 1)[0])
        expect(abs(stats.pearson - own_r) <= 1e-9, f"Pearson {stats.pearson!r} != {own_r!r}")
        expect(abs(stats.slope - own_slope) <= 1e-8 * max(1.0, abs(own_slope)),
               f"slope {stats.slope!r} != {own_slope!r}")


class PaperSweep:
    """About 3000 paper-sized cells of plant -> fit -> size-law statistics.

    Per-call overhead sets the time here and the solver does little, so a
    solver rewrite should leave this workload unchanged.
    """

    name = "paper-sweep"
    n_cells = 2997  # 3 laws x 3 noise levels x 333

    def prepare(self, work_dir: Path, seed: int):
        self.cells = sweep_cells(seed, self.n_cells)

    def run_pass(self, pass_dir: Path) -> list[Outcome]:
        return [_guarded(functools.partial(self.run_cell, *cell)) for cell in self.cells]

    @staticmethod
    def run_cell(law, noise_sd, n_objects, n_features, plant_seed) -> float:
        started = time.perf_counter()
        features, similarity, planted = bayesgen.plant_dataset(
            n_objects, n_features, weight_law=law, noise_sd=noise_sd, seed=plant_seed
        )
        solution = adclus.fit(features, similarity)
        try:
            stats = sizelaw.analyze(solution)
        except StatsError:
            stats = None  # degenerate rows are NA, checked below
        elapsed = time.perf_counter() - started
        try:
            check_sweep_cell(features, similarity, planted, noise_sd, solution, stats)
        except OracleError as exc:
            cell = f"{law} noise {noise_sd} {n_objects}x{n_features} seed {plant_seed}"
            raise OracleError(f"cell {cell}: {exc}") from None
        return elapsed


WORKLOADS = {w.name: w for w in (Perceptual, LabBatch, ManyObjects, PaperSweep)}
