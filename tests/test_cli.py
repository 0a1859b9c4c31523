import csv
import json

import pytest

from mtstream.cli import main
from mtstream.evaluation import friedman_nemenyi, RankTable


def run_config(tmp_path, n=500, variants=("mean",), seeds=(0,), name="toy",
               window=100, warm_start=200, **extra):
    doc = {
        "datasets": [{"name": name, "generator": {
            "family": "friedman_mt", "n_examples": n, "n_targets": 2,
            "noise_sd": 1.0, "seed": 7}}],
        "variants": list(variants),
        "evaluation": {"window": window, "warm_start": warm_start,
                       "seeds": list(seeds)},
    }
    doc.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_minimal_config_produces_one_report(self, tmp_path):
        cfg = run_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
        reports = sorted(p.name for p in out.glob("toy__*.csv"))
        assert reports == ["toy__mean__seed0.csv"]
        assert (out / "summary.csv").exists()
        rows = read_rows(out / "toy__mean__seed0.csv")
        assert len(rows) == 3  # (500 - 200) / 100
        assert list(rows[0]) == ["window_index", "armse", "cum_armse",
                                 "elapsed_s", "model_bytes"]

    def test_five_variants_two_seeds_make_ten_reports_plus_summary(self, tmp_path):
        cfg = run_config(
            tmp_path, n=450, window=200,
            variants=("mean", "perceptron", "adaptive", "stacked", "stacked_adaptive"),
            seeds=(0, 1))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
        assert len(list(out.glob("toy__*__seed*.csv"))) == 10
        assert (out / "summary.csv").exists()
        assert (out / "comparison.csv").exists()
        assert (out / "comparison.txt").exists()
        summary = read_rows(out / "summary.csv")
        assert len(summary) == 5
        assert all(row["repetitions"] == "2" for row in summary)
        assert all(row["avg_rank"] != "" for row in summary)

    def test_rerun_is_byte_identical_except_for_timing(self, tmp_path):
        cfg = run_config(tmp_path, n=600, variants=("stacked_adaptive",), seeds=(3,))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a), "--jobs", "1"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b), "--jobs", "1"]) == 0
        rows_a = read_rows(out_a / "toy__stacked_adaptive__seed3.csv")
        rows_b = read_rows(out_b / "toy__stacked_adaptive__seed3.csv")
        strip = lambda rows: [{k: v for k, v in r.items() if k != "elapsed_s"} for r in rows]
        assert strip(rows_a) == strip(rows_b)

    def test_parallel_jobs_match_sequential_metrics(self, tmp_path):
        # the pool runs the cells in a different order than the config
        cfg = run_config(
            tmp_path, n=450,
            variants=("mean", "perceptron", "adaptive", "stacked", "stacked_adaptive"),
            seeds=(0, 1))
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["run", "--config", str(cfg), "--out", str(seq), "--jobs", "1"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(par), "--jobs", "2"]) == 0
        reports = sorted(seq.glob("toy__*__seed*.csv"))
        assert len(reports) == 10
        strip = lambda rows, timed: [{k: v for k, v in r.items() if not k.startswith(timed)}
                                     for r in rows]
        for report in reports:
            assert strip(read_rows(report), "elapsed_s") \
                == strip(read_rows(par / report.name), "elapsed_s")
        assert strip(read_rows(seq / "summary.csv"), "time_s_") \
            == strip(read_rows(par / "summary.csv"), "time_s_")
        assert (seq / "comparison.csv").read_text() == (par / "comparison.csv").read_text()

    def test_pool_gets_the_longest_leaf_stack_first(self):
        from mtstream.cli import _leaf_cost
        from mtstream.schema import Variant

        order = sorted((v.value for v in Variant), key=_leaf_cost, reverse=True)
        assert order == ["stacked_adaptive", "stacked", "adaptive", "perceptron", "mean"]

    def test_invalid_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"datasets": []}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert main(["run", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_ascend_errors_exits_2(self, tmp_path):
        cfg = run_config(tmp_path, tree={"ascend_errors": True})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
        assert not out.exists()

    def test_unknown_variant_exits_2(self, tmp_path):
        cfg = run_config(tmp_path, variants=("turbo",))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_env_var_supplies_default_output_dir(self, tmp_path, monkeypatch):
        cfg = run_config(tmp_path, n=300, warm_start=100)
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("MTSTREAM_OUT", str(env_dir))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg), "--jobs", "1"]) == 0
        assert env_dir.is_dir()
        assert list(env_dir.glob("toy__*.csv"))

    def test_csv_dataset_entry(self, tmp_path):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({
            "name": "disk", "generator": {
                "family": "friedman_mt", "n_examples": 420, "n_targets": 2,
                "noise_sd": 0.5, "seed": 2}}))
        data_dir = tmp_path / "data"
        assert main(["generate", "--config", str(gen_cfg), "--out", str(data_dir)]) == 0
        run_doc = {
            "datasets": [{"name": "disk", "csv": str(data_dir / "disk.csv"),
                          "schema": str(data_dir / "disk.csv.schema.json")}],
            "variants": ["mean"],
            "evaluation": {"window": 100, "warm_start": 200, "seeds": [0]},
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(run_doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
        assert (out / "disk__mean__seed0.csv").exists()


class TestConfigDefaulting:
    def test_empty_sections_yield_the_benchmark_settings(self):
        from mtstream.cli import (parse_evaluation_section, parse_tree_section,
                                  parse_variants)
        from mtstream.schema import Variant

        tree = parse_tree_section({}, Variant.MEAN, seed=0)
        assert (tree.delta, tree.tau, tree.grace_period) == (1e-7, 0.05, 200)
        assert (tree.learning_rate, tree.warm_start) == (0.01, 200)
        assert not hasattr(tree, "ascend_errors")

        evaluation = parse_evaluation_section({}, {}, base_seed=5)
        assert evaluation.window == 200
        assert evaluation.warm_start == 200
        assert evaluation.repetitions == 30
        assert evaluation.seeds == tuple(range(5, 35))

        assert parse_variants(None) == list(Variant)


class TestCompare:
    def test_compare_over_generated_reports(self, tmp_path):
        cfg = run_config(tmp_path, n=450, variants=("mean", "stacked"), seeds=(0, 1))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
        assert main(["compare", str(out)]) == 0
        compare_rows = read_rows(out / "comparison.csv")
        assert {r["algorithm"] for r in compare_rows} == {"mean", "stacked"}
        text = (out / "comparison.txt").read_text()
        assert "critical difference" in text

    def test_single_algorithm_exits_2(self, tmp_path):
        cfg = run_config(tmp_path, n=450, variants=("mean",))
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"])
        assert main(["compare", str(out)]) == 2

    def test_missing_directory_exits_2(self, tmp_path):
        assert main(["compare", str(tmp_path / "nowhere")]) == 2

    def test_misaligned_windows_are_fatal(self, tmp_path):
        out = tmp_path / "reports"
        out.mkdir()
        header = "window_index,armse,cum_armse,elapsed_s,model_bytes\n"
        (out / "d__mean__seed0.csv").write_text(
            header + "0,1.0,1.0,0.1,100\n1,1.0,1.0,0.2,100\n")
        (out / "d__stacked__seed0.csv").write_text(
            header + "0,1.0,1.0,0.1,100\n")
        assert main(["compare", str(out)]) == 1

    def test_sixteen_blocks_five_algorithms_reproduce_cd(self, tmp_path):
        """Hand-built report matrix: the emitted CD must match the k=5, N=16
        reference value ~1.52."""
        out = tmp_path / "reports"
        out.mkdir()
        header = "window_index,armse,cum_armse,elapsed_s,model_bytes\n"
        variants = ["mean", "perceptron", "adaptive", "stacked", "stacked_adaptive"]
        import numpy as np
        rng = np.random.default_rng(5)
        for ds in range(16):
            for v in variants:
                err = rng.random()
                (out / f"ds{ds:02d}__{v}__seed0.csv").write_text(
                    header + f"0,{err!r},{err!r},0.1,100\n")
        assert main(["compare", str(out)]) == 0
        rows = read_rows(out / "comparison.csv")
        cd = float(rows[0]["critical_difference"])
        assert 1.51 <= cd <= 1.53
        table = RankTable.from_scores(["a", "b", "c", "d", "e"],
                                      rng.random((16, 5)))
        assert cd == pytest.approx(friedman_nemenyi(table).critical_difference)


class TestGenerate:
    def spec_file(self, tmp_path, seed=3):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({
            "name": "plane", "generator": {
                "family": "plane_mt", "n_examples": 50, "n_targets": 2,
                "noise_sd": 0.0, "seed": seed}}))
        return path

    def test_writes_requested_rows_and_schema(self, tmp_path):
        out = tmp_path / "streams"
        assert main(["generate", "--config", str(self.spec_file(tmp_path)),
                     "--out", str(out)]) == 0
        with open(out / "plane.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 51  # header + 50
        assert (out / "plane.csv.schema.json").exists()

    def test_generation_is_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = self.spec_file(tmp_path)
        main(["generate", "--config", str(cfg), "--out", str(out_a)])
        main(["generate", "--config", str(cfg), "--out", str(out_b)])
        assert (out_a / "plane.csv").read_bytes() == (out_b / "plane.csv").read_bytes()

    def test_seed_flag_overrides_spec(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = self.spec_file(tmp_path)
        main(["generate", "--config", str(cfg), "--out", str(out_a)])
        main(["generate", "--config", str(cfg), "--out", str(out_b), "--seed", "99"])
        assert (out_a / "plane.csv").read_bytes() != (out_b / "plane.csv").read_bytes()

    def test_unwritable_path_exits_1(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        assert main(["generate", "--config", str(self.spec_file(tmp_path)),
                     "--out", str(target)]) == 1

    def test_round_trip_through_reader(self, tmp_path):
        from mtstream.streams import GeneratorSpec, make_stream, read_csv
        out = tmp_path / "streams"
        main(["generate", "--config", str(self.spec_file(tmp_path)), "--out", str(out)])
        spec = GeneratorSpec(family="plane_mt", n_examples=50, n_targets=2,
                             noise_sd=0.0, seed=3)
        direct = list(make_stream(spec))
        from_disk = list(read_csv(out / "plane.csv", out / "plane.csv.schema.json"))
        assert from_disk == direct
