"""End-to-end command-line runs, exit codes, and manifest contents."""

import json
import math

import numpy as np
import pytest

from size_lens.bayesgen import generalization_matrix, hypothesis_space_from_features
from size_lens.cli import EXIT_INGEST, EXIT_IO, EXIT_SOLVER, EXIT_STATS, main
from size_lens.ingest import read_feature_csv, read_similarity_csv
from size_lens.report import full_table_path, read_table


def simulate(out_dir, seed=42, objects=8, n_features=5, extra=()):
    return main(
        [
            "simulate",
            "--objects",
            str(objects),
            "--n-features",
            str(n_features),
            "--seed",
            str(seed),
            *extra,
            "--out-dir",
            str(out_dir),
        ]
    )


def analyze(out_dir, *pairs, extra=()):
    argv = ["analyze"]
    for features_path, similarity_path in pairs:
        argv += ["--features", str(features_path), "--similarity", str(similarity_path)]
    argv += [*extra, "--out-dir", str(out_dir)]
    return main(argv)


class TestSimulate:
    def test_writes_dataset_files(self, tmp_path):
        out = tmp_path / "sim"
        assert simulate(out) == 0
        for name in ("features.csv", "similarity.csv", "planted_weights.csv", "manifest.json"):
            assert (out / name).is_file()
        features = read_feature_csv(out / "features.csv")
        similarity = read_similarity_csv(out / "similarity.csv")
        assert features.n_objects == 8
        assert features.n_features == 5
        assert similarity.object_names == features.object_names

    def test_planted_weights_follow_law(self, tmp_path):
        out = tmp_path / "sim"
        simulate(out, extra=("--law", "inverse-size-squared"))
        features = read_feature_csv(out / "features.csv")
        lines = (out / "planted_weights.csv").read_text().splitlines()
        assert lines[0] == "feature,size,weight"
        for line, size in zip(lines[1:], features.feature_sizes):
            name, size_text, weight_text = line.split(",")
            assert int(size_text) == size
            assert float(weight_text) == pytest.approx(1.0 / size**2)

    def test_byte_deterministic_rerun(self, tmp_path):
        out = tmp_path / "sim"
        simulate(out)
        snapshot = {
            name: (out / name).read_bytes()
            for name in ("features.csv", "similarity.csv", "planted_weights.csv", "manifest.json")
        }
        simulate(out)
        for name, data in snapshot.items():
            assert (out / name).read_bytes() == data

    def test_seed_changes_output(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        simulate(first, seed=1)
        simulate(second, seed=2)
        assert (first / "features.csv").read_bytes() != (second / "features.csv").read_bytes()

    def test_from_generalization_swaps_similarity(self, tmp_path):
        out = tmp_path / "sim"
        assert simulate(out, extra=("--from-generalization", "--n-examples", "2")) == 0
        features = read_feature_csv(out / "features.csv")
        similarity = read_similarity_csv(out / "similarity.csv")
        space = hypothesis_space_from_features(features)
        expected = generalization_matrix(space, n_examples=2)
        assert np.allclose(similarity.cells, expected.cells, atol=1e-12)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["similarity_source"] == "generalization_matrix"

    def test_impossible_plant_exits_solver(self, tmp_path, capsys):
        # 3 objects give 3 pair rows; 4 feature columns can never be independent
        code = simulate(tmp_path / "sim", objects=3, n_features=4)
        assert code == EXIT_SOLVER
        assert "error[RetryLimitExceeded]" in capsys.readouterr().err


class TestAnalyze:
    def test_recovers_planted_law(self, tmp_path):
        sim = tmp_path / "sim"
        out = tmp_path / "run"
        simulate(sim, seed=7, objects=10, n_features=6)
        code = analyze(out, (sim / "features.csv", sim / "similarity.csv"))
        assert code == 0
        rows = read_table(full_table_path(out / "table.csv"))
        assert len(rows) == 1
        row = rows[0]
        assert row.set_name == "features"  # file stem
        assert row.pearson == pytest.approx(-1.0, abs=1e-9)
        assert row.slope == pytest.approx(-1.0, abs=1e-6)
        assert row.fr_total == 6
        assert (out / "scatter_features.svg").is_file()
        assert (out / "manifest.json").is_file()

    def test_name_flag_and_scatter_naming(self, tmp_path):
        sim = tmp_path / "sim"
        out = tmp_path / "run"
        simulate(sim, seed=7)
        code = analyze(
            out,
            (sim / "features.csv", sim / "similarity.csv"),
            extra=("--name", "My Set (v2)"),
        )
        assert code == 0
        rows = read_table(out / "table.csv")
        assert rows[0].set_name == "My Set (v2)"
        assert (out / "scatter_My_Set_v2.svg").is_file()

    def test_multiple_datasets_one_table(self, tmp_path):
        first = tmp_path / "s1"
        second = tmp_path / "s2"
        out = tmp_path / "run"
        simulate(first, seed=3, objects=9, n_features=5)
        simulate(second, seed=5, objects=9, n_features=5)
        code = analyze(
            out,
            (first / "features.csv", first / "similarity.csv"),
            (second / "features.csv", second / "similarity.csv"),
            extra=("--name", "one", "--name", "two"),
        )
        assert code == 0
        rows = read_table(out / "table.csv")
        assert [r.set_name for r in rows] == ["one", "two"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [d["name"] for d in manifest["datasets"]] == ["one", "two"]
        assert manifest["flags"]["align"] == "strict"

    def test_uniform_law_degenerates_to_na_row(self, tmp_path):
        sim = tmp_path / "sim"
        out = tmp_path / "run"
        simulate(sim, seed=11, extra=("--law", "uniform"))
        code = analyze(out, (sim / "features.csv", sim / "similarity.csv"))
        assert code == 0
        line = (out / "table.csv").read_text().splitlines()[1]
        cells = line.split(",")
        assert cells[1] == "NA" and cells[2] == "NA"
        rows = read_table(out / "table.csv")
        assert math.isnan(rows[0].pearson)

    def test_table_rows_follow_input_order(self, tmp_path):
        pairs = []
        for seed in (3, 5, 7):
            sim = tmp_path / f"sim{seed}"
            simulate(sim, seed=seed)
            pairs.append((sim / "features.csv", sim / "similarity.csv"))
        out = tmp_path / "run"
        names = ("zeta", "alpha", "mid")
        extra = [arg for name in names for arg in ("--name", name)]
        assert analyze(out, *pairs, extra=extra) == 0
        assert tuple(row.set_name for row in read_table(out / "table.csv")) == names
        manifest = json.loads((out / "manifest.json").read_text())
        assert [d["name"] for d in manifest["datasets"]] == list(names)

    def test_manifest_carries_solver_diagnostics(self, tmp_path):
        sim = tmp_path / "sim"
        out = tmp_path / "run"
        simulate(sim, seed=7, objects=10, n_features=6)
        assert analyze(out, (sim / "features.csv", sim / "similarity.csv")) == 0
        (dataset,) = json.loads((out / "manifest.json").read_text())["datasets"]
        row = read_table(full_table_path(out / "table.csv"))[0]
        assert dataset["solver_converged"] is True
        assert dataset["solver_iterations"] >= row.fr_nonzero
        assert 0.0 <= dataset["solver_kkt_residual"] <= 1e-8
        assert dataset["solver_active_size"] == row.fr_nonzero
        assert row.fr_nonzero <= dataset["solver_gram_columns"] <= row.fr_total
        assert dataset["solver_degenerate_drops"] == 0

    def test_unconverged_solve_is_reported_on_stderr(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        out = tmp_path / "run"
        simulate(sim, seed=7, objects=10, n_features=6)
        capsys.readouterr()
        code = analyze(
            out,
            (sim / "features.csv", sim / "similarity.csv"),
            extra=("--name", "short", "--max-iter", "1"),
        )
        assert code == 0  # the table is still written; the exit code is unchanged
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["warning: dataset 'short': solver did not converge within 1 iterations"]
        (dataset,) = json.loads((out / "manifest.json").read_text())["datasets"]
        assert dataset["solver_converged"] is False
        assert dataset["solver_iterations"] == 1

    def test_strict_mismatch_exits_ingest(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        similarity = tmp_path / "s.csv"
        features.write_text("object,f1,f2\na,1,0\nb,1,1\nc,0,1\n")
        similarity.write_text("object,a,b,x\na,1.0,0.5,0.2\nb,0.5,1.0,0.3\nx,0.2,0.3,1.0\n")
        code = analyze(tmp_path / "run", (features, similarity))
        assert code == EXIT_INGEST
        assert "error[StrictMismatch]" in capsys.readouterr().err

    def test_intersect_policy_rescues_mismatch(self, tmp_path):
        features = tmp_path / "f.csv"
        similarity = tmp_path / "s.csv"
        features.write_text("object,f1,f2,f3\na,1,0,1\nb,1,1,0\nc,0,1,1\nd,1,1,1\n")
        similarity.write_text(
            "object,a,b,c,x\n"
            "a,1.0,0.5,0.2,0.9\n"
            "b,0.5,1.0,0.3,0.8\n"
            "c,0.2,0.3,1.0,0.7\n"
            "x,0.9,0.8,0.7,1.0\n"
        )
        out = tmp_path / "run"
        code = analyze(out, (features, similarity), extra=("--align", "intersect"))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        dataset = manifest["datasets"][0]
        assert dataset["dropped_from_similarity"] == ["x"]
        assert dataset["dropped_from_features"] == ["d"]

    def test_malformed_csv_exits_ingest(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        similarity = tmp_path / "s.csv"
        features.write_text("object,f1\na,maybe\nb,1\n")
        similarity.write_text("object,a,b\na,1.0,0.5\nb,0.5,1.0\n")
        code = analyze(tmp_path / "run", (features, similarity))
        assert code == EXIT_INGEST
        assert "error[ParseError]" in capsys.readouterr().err

    def test_unpaired_flags_exit_ingest(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        simulate(sim, seed=7)
        code = main(
            [
                "analyze",
                "--features",
                str(sim / "features.csv"),
                "--features",
                str(sim / "features.csv"),
                "--similarity",
                str(sim / "similarity.csv"),
                "--out-dir",
                str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_INGEST
        assert "pair by position" in capsys.readouterr().err

    def test_out_dir_collision_exits_io(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        simulate(sim, seed=7)
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        code = analyze(blocker, (sim / "features.csv", sim / "similarity.csv"))
        assert code == EXIT_IO
        assert "error[OSError]" in capsys.readouterr().err

    def test_missing_input_exits_io(self, tmp_path, capsys):
        code = analyze(
            tmp_path / "run",
            (tmp_path / "absent.csv", tmp_path / "also_absent.csv"),
        )
        assert code == EXIT_IO


class TestReport:
    def run_pipeline(self, tmp_path, seeds, noise="0.02"):
        tables = []
        for seed in seeds:
            sim = tmp_path / f"sim{seed}"
            out = tmp_path / f"run{seed}"
            simulate(sim, seed=seed, objects=10, n_features=6, extra=("--noise-sd", noise))
            assert analyze(out, (sim / "features.csv", sim / "similarity.csv")) == 0
            tables.append(out / "table.csv")
        return tables

    def test_merges_and_tests(self, tmp_path):
        tables = self.run_pipeline(tmp_path, seeds=(1, 2, 3))
        out = tmp_path / "summary"
        code = main(["report", *map(str, tables), "--out-dir", str(out)])
        assert code == 0
        merged = read_table(out / "merged.csv")
        assert len(merged) == 3
        lines = (out / "ttests.csv").read_text().splitlines()
        assert lines[0] == "statistic,t,df,p_one_sided,n_used,n_excluded"
        stats = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(stats) == {"pearson", "spearman"}
        assert stats["pearson"][2] == "2"  # df = n - 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rows_total"] == 3

    def test_single_row_exits_stats(self, tmp_path, capsys):
        tables = self.run_pipeline(tmp_path, seeds=(1,))
        out = tmp_path / "summary"
        code = main(["report", str(tables[0]), "--out-dir", str(out)])
        assert code == EXIT_STATS
        assert "error[TooFewDatasets]" in capsys.readouterr().err

    def test_degenerate_rows_are_excluded_not_fatal(self, tmp_path):
        tables = self.run_pipeline(tmp_path, seeds=(1, 2))
        degenerate_sim = tmp_path / "sim_u"
        degenerate_run = tmp_path / "run_u"
        simulate(degenerate_sim, seed=9, extra=("--law", "uniform"))
        analyze(degenerate_run, (degenerate_sim / "features.csv", degenerate_sim / "similarity.csv"))
        out = tmp_path / "summary"
        code = main(
            ["report", *map(str, tables), str(degenerate_run / "table.csv"), "--out-dir", str(out)]
        )
        assert code == 0
        lines = (out / "ttests.csv").read_text().splitlines()
        pearson_row = next(line for line in lines[1:] if line.startswith("pearson"))
        assert pearson_row.endswith(",1")  # one excluded row
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rows_excluded"]["pearson"] == 1

    def test_all_rows_degenerate_exits_stats(self, tmp_path, capsys):
        runs = []
        for seed in (4, 6):
            sim = tmp_path / f"sim{seed}"
            run = tmp_path / f"run{seed}"
            simulate(sim, seed=seed, extra=("--law", "uniform"))
            analyze(run, (sim / "features.csv", sim / "similarity.csv"))
            runs.append(run / "table.csv")
        code = main(["report", *map(str, runs), "--out-dir", str(tmp_path / "summary")])
        assert code == EXIT_STATS
