"""Self-test: the benchmark's oracles catch corrupted outputs.

Each test lets the program run on a small input, corrupts one output on its
way out, and checks that the operation is counted as failed in the pass
record that run.py turns into ``failed_fraction``.

  PYTHONPATH=src python3 -m pytest -q perfbench/test_oracles.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import workloads  # noqa: E402
from size_lens import adclus, cli  # noqa: E402
from size_lens.report import full_table_path  # noqa: E402


class SmallPerceptual(workloads.Perceptual):
    n_objects, n_features, n_support = 30, 60, 12


class SmallLabBatch(workloads.LabBatch):
    n_datasets = 4
    objects = (30,)
    features = (15,)


class SmallSweep(workloads.PaperSweep):
    n_cells = 9


def run_once(workload, tmp_path):
    workload.prepare(tmp_path / "input", 7)
    (record,) = child.run_passes(workload, tmp_path, 0.0, "pass")
    return record


@pytest.mark.parametrize("workload", [SmallPerceptual, SmallLabBatch, SmallSweep])
def test_clean_outputs_pass(workload, tmp_path):
    record = run_once(workload(), tmp_path)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= 1


def _corrupt_table(monkeypatch, column, value):
    original = cli.write_table

    def write_then_corrupt(reports, path):
        original(reports, path)
        full = full_table_path(path)
        lines = full.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index(column)] = value
        lines[1] = ",".join(row)
        full.write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(cli, "write_table", write_then_corrupt)


def test_corrupted_r2_counts_as_failed(monkeypatch, tmp_path):
    _corrupt_table(monkeypatch, "R2_MP", "0.999")
    record = run_once(SmallPerceptual(), tmp_path)
    assert (record["attempted"], record["failed"]) == (1, 1)
    assert "R2" in record["failures"][0]


def test_corrupted_slope_counts_as_failed(monkeypatch, tmp_path):
    _corrupt_table(monkeypatch, "Slope", "-0.5")
    record = run_once(SmallLabBatch(), tmp_path)
    assert (record["attempted"], record["failed"]) == (1, 1)
    assert "slope" in record["failures"][0]


def test_nonzero_exit_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: 3)
    record = run_once(SmallPerceptual(), tmp_path)
    assert (record["attempted"], record["failed"]) == (1, 1)
    assert "exited 3" in record["failures"][0]


def test_corrupted_weights_count_as_failed(monkeypatch, tmp_path):
    original = adclus.fit

    def fit_then_corrupt(features, similarity, **kwargs):
        solution = original(features, similarity, **kwargs)
        weights = np.array(solution.weights)
        weights[0] *= 1.5
        return type(solution)(**{**solution.__dict__, "weights": weights})

    monkeypatch.setattr(adclus, "fit", fit_then_corrupt)
    record = run_once(SmallSweep(), tmp_path)
    assert record["attempted"] == 9
    assert record["failed"] == 9
    assert all("oracle" in detail for detail in record["failures"])
