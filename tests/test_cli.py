import copy
import csv
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtstream.cli import main
from mtstream.evaluation import friedman_nemenyi


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


_SEED_RANGE = "must be >= 0 and <= 9223372036854775807"  # every seed's range

# a declaration for the CSV cases of the malformed-config test; its
# short.csv lacks the x2 column, and its twice.csv names x1 twice
_CSV_SCHEMA = {"features": [{"name": "x1"}, {"name": "x2"}], "targets": ["y"]}


def _csv_entry(csv, schema=_CSV_SCHEMA):
    return lambda doc: {**doc, "datasets": [{"name": "toy", "csv": csv, "schema": schema}]}


def _with_generator(doc, **keys):
    """`doc` with `keys` added to its one dataset's generator spec."""
    entry = doc["datasets"][0]
    return {**doc, "datasets": [{**entry, "generator": {**entry["generator"], **keys}}]}


def _named(name):
    return lambda doc: {**doc, "datasets": [{**doc["datasets"][0], "name": name}]}


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

    @pytest.mark.parametrize("tree", [
        {"ascend_errors": True}, {"delta": 2.0}, {"tau": -1}, {"grace_period": 0},
        {"learning_rate": float("nan")},
    ], ids=["ascend_errors", "delta", "tau", "grace_period", "learning_rate"])
    def test_bad_tree_section_exits_2(self, tmp_path, capsys, tree):
        cfg = run_config(tmp_path, tree=tree)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "window": "abc"}},
                     "bad evaluation section", id="window"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "repetitions": "x"}},
                     "bad evaluation section", id="repetitions"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "seeds": ["a"]}},
                     "bad evaluation section", id="seed_not_int"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "seeds": 5}},
                     "bad evaluation section: seeds must be a tuple, got 5",
                     id="seeds_not_list"),
        pytest.param(lambda doc: {**doc, "tree": {"warm_start": "x"}},
                     "bad tree section: unknown key 'warm_start'", id="tree_warm_start"),
        pytest.param(lambda doc: {**doc, "tree": {"delta": None}},
                     "bad tree section", id="tree_null_field"),
        pytest.param(lambda doc: {**doc, "tree": []},
                     "tree section must be an object", id="tree_not_object"),
        pytest.param(lambda doc: {**doc, "evaluation": "fast"},
                     "evaluation section must be an object", id="evaluation_not_object"),
        pytest.param(lambda doc: {**doc, "datasets": [5]},
                     "datasets[0] must be an object", id="dataset_not_object"),
        pytest.param(lambda doc: {**doc, "datasets": {"name": "toy"}},
                     "datasets must be a list", id="datasets_not_list"),
        pytest.param(lambda doc: {**doc, "datasets": [{"name": "toy", "generator": "friedman_mt"}]},
                     "generator spec must be an object", id="generator_not_object"),
        pytest.param(lambda doc: {**doc, "datasets": [{"name": "toy", "generator": {
            "family": "friedman_mt", "drift": [100]}}]},
                     "bad generator spec: drift must be a DriftSpec or None, got [100]",
                     id="drift_not_object"),
        pytest.param(lambda doc: {**doc, "variants": "mean"},
                     "variants must be a list", id="variants_not_list"),
        pytest.param(lambda doc: {**doc, "output_dir": 5},
                     "output_dir must be a string", id="output_dir_not_string"),
        pytest.param(lambda doc: {**doc, "output_dir": 0},
                     "output_dir must be a string", id="output_dir_zero"),
        pytest.param(lambda doc: {**doc, "output_dir": False},
                     "output_dir must be a string", id="output_dir_false"),
        pytest.param(lambda doc: {**doc, "output_dir": ""},
                     "output_dir must not be empty", id="output_dir_empty"),
        pytest.param(lambda doc: {**doc, "varaints": ["mean"]},
                     "run config: unknown key 'varaints'", id="top_level_unknown_key"),
        pytest.param(lambda doc: {**doc, "datasets": [{**doc["datasets"][0], "colour": 1}]},
                     "datasets[0]: unknown key 'colour'", id="dataset_unknown_key"),
        pytest.param(lambda doc: [doc], "must be an object", id="top_level_array"),
        pytest.param(_csv_entry("short.csv", schema=5),
                     "datasets[0].schema must be a path string or an object",
                     id="csv_schema_not_object"),
        pytest.param(_csv_entry(5), "datasets[0].csv must be a string", id="csv_not_string"),
        pytest.param(_csv_entry("missing.csv"), "No such file", id="csv_file_missing"),
        pytest.param(_csv_entry("short.csv", schema="missing.json"), "No such file",
                     id="csv_schema_file_missing"),
        pytest.param(_csv_entry("short.csv"), "header lacks declared columns ['x2']",
                     id="csv_header_lacks_column"),
        pytest.param(_csv_entry("twice.csv", schema={"features": [{"name": "x1"}],
                                                     "targets": ["y"]}),
                     "header repeats declared columns ['x1']", id="csv_header_repeats_column"),
        pytest.param(_csv_entry("short.csv", schema={**_CSV_SCHEMA, "sentinel_columns": 5}),
                     "bad schema declaration", id="csv_sentinel_columns_not_list"),
        pytest.param(_csv_entry("short.csv", schema={"features": [{"name": "x1"}],
                                                     "targets": "y"}),
                     "targets must be a list of strings, got 'y'", id="csv_targets_string"),
        pytest.param(_csv_entry("short.csv", schema={"features": [{"name": "x1"}],
                                                     "targets": "yy"}),
                     "targets must be a list of strings, got 'yy'",
                     id="csv_targets_repeated_string"),
        pytest.param(_csv_entry("short.csv", schema={
            "features": [{"name": "x1", "kind": "nominal", "categories": "ab"}],
            "targets": ["y"]}),
                     "categories of 'x1' must be a list of strings, got 'ab'",
                     id="csv_categories_string"),
        pytest.param(_csv_entry("short.csv", schema={
            "features": [{"name": "x1", "kind": "nominal", "categories": ["a", "a", "b"]}],
            "targets": ["y"]}),
                     "bad schema declaration: nominal feature 'x1' repeats categories ['a']",
                     id="csv_categories_repeated"),
        pytest.param(_csv_entry("short.csv", schema={
            "features": [{"name": "x1"}], "targets": ["y"],
            "sentinel_value": "abc", "sentinel_columns": ["x1"]}),
                     "sentinel_value must be a finite number or None, got 'abc'",
                     id="csv_sentinel_value_string"),
        pytest.param(lambda doc: {**doc, "datasets": [{"name": "toy", "generator": {
            "family": "friedman_mt", "seed": -1}}]},
                     f"seed {_SEED_RANGE}, got -1", id="generator_seed_negative"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "seeds": [-1]}},
                     f"bad evaluation section: seeds[0] {_SEED_RANGE}, got -1",
                     id="seed_negative"),
        # JSON reads 1e300 as an integral float; beyond +-2**63 it stays a
        # float, so the message shows it in its short form. Unbounded, it ran
        # every cell and then failed on a report file name too long to create
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "seeds": [1e300]}},
                     "bad evaluation section: seeds[0] must be an integer, got 1e+300",
                     id="seed_beyond_range"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"],
                                                        "seeds": [float(2**63)]}},
                     f"bad evaluation section: seeds[0] {_SEED_RANGE}, got {2**63}",
                     id="seed_float_beyond_range"),
        pytest.param(lambda doc: _with_generator(doc, seed=2**63),
                     f"bad generator spec: seed {_SEED_RANGE}, got {2**63}",
                     id="generator_seed_beyond_range"),
        pytest.param(lambda doc: {**doc, "tree": {"grace_period": 2.5}},
                     "bad tree section: grace_period must be an integer, got 2.5",
                     id="grace_period_fraction"),
        pytest.param(lambda doc: {**doc, "tree": {"grace_period": True}},
                     "bad tree section: grace_period must be an integer, got True",
                     id="grace_period_bool"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "window": 2.5}},
                     "bad evaluation section: window must be an integer, got 2.5",
                     id="window_fraction"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "seeds": [1.7]}},
                     "bad evaluation section: seeds[0] must be an integer, got 1.7",
                     id="seed_fraction"),
        pytest.param(lambda doc: _with_generator(doc, n_examples=99.9),
                     "bad generator spec: n_examples must be an integer, got 99.9",
                     id="n_examples_fraction"),
        pytest.param(lambda doc: _with_generator(doc, n_targets=True),
                     "bad generator spec: n_targets must be an integer, got True",
                     id="n_targets_bool"),
        pytest.param(lambda doc: {**doc, "tree": {"grace_perod": 100}},
                     "bad tree section: unknown key 'grace_perod'", id="tree_unknown_key"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "windows": 50}},
                     "bad evaluation section: unknown key 'windows'",
                     id="evaluation_unknown_key"),
        pytest.param(lambda doc: _with_generator(doc, noise=0.5),
                     "bad generator spec: unknown key 'noise'", id="generator_unknown_key"),
        pytest.param(lambda doc: _with_generator(doc, drift={"positions": [250], "at": 3}),
                     "bad generator spec: drift: unknown key 'at'", id="drift_unknown_key"),
        pytest.param(lambda doc: _with_generator(doc, drift={"positions": [250.5]}),
                     "bad generator spec: drift: positions[0] must be an integer, got 250.5",
                     id="drift_position_fraction"),
        pytest.param(lambda doc: {**doc, "tree": {"warm_start": 2.5},
                                  "evaluation": {**doc["evaluation"], "warm_start": 100}},
                     "bad tree section: unknown key 'warm_start'",
                     id="tree_warm_start_fraction"),
        pytest.param(lambda doc: {**doc, "datasets": [
            {"name": "f", "generator": {"family": "friedman_mt", "n_examples": 500}},
            {"name": "f", "generator": {"family": "plane_mt", "n_examples": 500}}]},
                     "datasets[1].name 'f' is used by an earlier dataset",
                     id="dataset_name_repeated"),
        pytest.param(lambda doc: {**doc, "variants": ["mean", "mean", "stacked"]},
                     "variant 'mean' is listed twice", id="variant_repeated"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "seeds": [0, 0]}},
                     "bad evaluation section: seeds must be unique: (0, 0)",
                     id="seed_repeated"),
        pytest.param(_named("../escaped"), "datasets[0].name must be a file name without "
                     "a directory part, got '../escaped'", id="dataset_name_parent"),
        pytest.param(_named("sub/f"), "got 'sub/f'", id="dataset_name_subdir"),
        pytest.param(_named(None), "got None", id="dataset_name_null"),
        pytest.param(_named(""), "got ''", id="dataset_name_empty"),
        pytest.param(_named(".."), "got '..'", id="dataset_name_dotdot"),
        pytest.param(lambda doc: {**doc, "tree": {"tau": True}},
                     "bad tree section: tau must be a finite number, got True", id="tau_bool"),
        pytest.param(lambda doc: {**doc, "tree": {"delta": "1e-7"}},
                     "bad tree section: delta must be a finite number, got '1e-7'",
                     id="delta_string"),
        pytest.param(lambda doc: {**doc, "tree": {"learning_rate": "0.01"}},
                     "bad tree section: learning_rate must be a finite number, got '0.01'",
                     id="learning_rate_string"),
        pytest.param(lambda doc: {**doc, "tree": {"grace_period": "200"}},
                     "bad tree section: grace_period must be an integer, got '200'",
                     id="grace_period_string"),
        pytest.param(lambda doc: _with_generator(doc, noise_sd="2"),
                     "bad generator spec: noise_sd must be a finite number, got '2'",
                     id="noise_sd_string"),
        pytest.param(lambda doc: _with_generator(doc, n_examples="500"),
                     "bad generator spec: n_examples must be an integer, got '500'",
                     id="n_examples_string"),
        pytest.param(lambda doc: _with_generator(doc, target_affine=[[True, "1"], [1, 2]]),
                     "bad generator spec: target_affine[0][0] must be a finite number, got True",
                     id="target_affine_bool"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "window": "50"}},
                     "bad evaluation section: window must be an integer, got '50'",
                     id="window_string"),
        pytest.param(lambda doc: {**doc, "evaluation": {**doc["evaluation"], "seeds": ["3"]}},
                     "bad evaluation section: seeds[0] must be an integer, got '3'",
                     id="seed_string"),
    ])
    def test_malformed_config_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                       mutate, message):
        monkeypatch.chdir(tmp_path)  # the CSV cases name files relative to it
        (tmp_path / "short.csv").write_text("x1,y\n0.5,1.0\n")
        (tmp_path / "twice.csv").write_text("x1,y,x1\n0.5,1.0,0.7\n")
        cfg = run_config(tmp_path)
        doc = mutate(json.loads(cfg.read_text()))
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        argv = ["run", "--config", str(cfg), "--jobs", "1"]
        if "output_dir" not in doc:
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err

    def test_seed_far_beyond_range_gets_a_short_error(self, tmp_path, capsys):
        """The message names 1e300 as written, not its 301-digit integer."""
        cfg = run_config(tmp_path, seeds=(1e300,))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 2
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "seeds[0]" in lines[0]
        assert len(lines[0]) <= 120

    @pytest.mark.parametrize("setting, literal, message", [
        ("noise_sd", "NaN", "bad generator spec: noise_sd must be a finite number, got nan"),
        ("noise_sd", "Infinity",
         "bad generator spec: noise_sd must be a finite number, got inf"),
        ("noise_sd", "1e400", "bad generator spec: noise_sd must be a finite number, got inf"),
        ("noise_sd", '1.0, "target_affine": [[NaN, 0], [1, 0]]',
         "bad generator spec: target_affine[0][0] must be a finite number, got nan"),
        ("tau", "Infinity", "bad tree section: tau must be a finite number, got inf"),
    ], ids=["noise_nan", "noise_infinity", "noise_beyond_float", "affine_nan", "tau_infinity"])
    def test_non_finite_number_exits_2_before_any_cell(self, tmp_path, capsys, setting,
                                                       literal, message):
        """json.load accepts the NaN and Infinity literals, and reads 1e400
        as inf."""
        cfg = run_config(tmp_path, tree={"tau": 1.0})
        text = cfg.read_text()
        assert f'"{setting}": 1.0' in text
        cfg.write_text(text.replace(f'"{setting}": 1.0', f'"{setting}": {literal}'))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("n", [300, 150], ids=["one_window", "inside_warm_start"])
    def test_fewer_than_two_windows_leave_the_ranks_empty(self, tmp_path, capsys, n):
        """In a reused directory too: the first run's comparison files go."""
        out = tmp_path / "out"
        for examples in (500, n):
            cfg = run_config(tmp_path, n=examples, variants=("mean", "perceptron"),
                             window=100, warm_start=200)
            doc = json.loads(cfg.read_text())
            doc["datasets"][0]["generator"]["family"] = "plane_mt"
            cfg.write_text(json.dumps(doc))
            assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
            compared = examples == 500  # three windows rank the variants
            assert (out / "comparison.csv").exists() == compared
            assert (out / "comparison.txt").exists() == compared
        summary = read_rows(out / "summary.csv")
        assert [row["avg_rank"] for row in summary] == ["", ""]
        capsys.readouterr()
        assert main(["compare", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: compare needs reports from at least two algorithms, over two datasets "
            "or two windows of one dataset\n")

    def test_stream_without_an_example_names_the_cell(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("x1,y\nabc,1.0\n1.0,\n")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "datasets": [{"name": "skipped", "csv": str(tmp_path / "bad.csv"),
                          "schema": {"features": [{"name": "x1"}], "targets": ["y"]}}],
            "variants": ["mean"], "evaluation": {"seeds": [4]}}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 1
        assert capsys.readouterr().err == ("error: dataset 'skipped', variant mean, seed 4: "
                                           "stream was empty\n")

    def test_negative_base_seed_exits_2_before_any_cell(self, tmp_path, capsys):
        cfg = run_config(tmp_path, evaluation={"window": 100, "warm_start": 200,
                                               "repetitions": 2})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "-2"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"seed {_SEED_RANGE}, got -2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-3", "1.5", "two"])
    def test_jobs_must_be_a_positive_integer(self, tmp_path, capsys, jobs):
        cfg = run_config(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
        assert exit_.value.code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"error: argument --jobs: must be an integer >= 1, got {jobs!r}" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverging_model_exits_1_naming_the_cell(self, tmp_path, capsys):
        cfg = run_config(tmp_path, variants=("mean", "perceptron"),
                         tree={"learning_rate": 1e300})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert "dataset 'toy', variant perceptron, seed 0: example 200" in err
        assert "misaligned" not in err
        assert not list(out.glob("*.csv"))

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

    def test_csv_with_a_byte_order_mark_gives_the_same_report(self, tmp_path):
        """Spreadsheet programs save "CSV UTF-8" with a leading BOM."""
        plain = _write_mv_csv(tmp_path, "plain", n=300)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for name, path in (("plain", plain), ("marked", marked)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({
                "datasets": [{"name": "mv", "csv": str(path),
                              "schema": str(plain) + ".schema.json"}],
                "variants": ["perceptron"],
                "evaluation": {"window": 100, "warm_start": 100, "seeds": [0]}}))
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name),
                         "--jobs", "1"]) == 0
        strip = lambda rows: [{k: v for k, v in r.items() if k != "elapsed_s"} for r in rows]
        report = "mv__perceptron__seed0.csv"
        assert strip(read_rows(tmp_path / "marked" / report)) \
            == strip(read_rows(tmp_path / "plain" / report))


def _write_mv_csv(tmp_path, name, n, seed=4):
    from mtstream.streams import GeneratorSpec, make_stream, write_csv

    path = tmp_path / f"{name}.csv"
    write_csv(make_stream(GeneratorSpec(family="mv_like", n_examples=n, n_targets=2,
                                        seed=seed)), path)
    return path


_ALL_VARIANTS = ("mean", "perceptron", "adaptive", "stacked", "stacked_adaptive")


class TestStreamTasks:
    """`mtstream run` reads each (dataset, seed) stream once per task and
    replays it to the task's cells."""

    def test_each_csv_is_read_once_per_seed(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from mtstream.evaluation import (PrequentialConfig, read_report_csv,
                                         run_prequential)
        from mtstream.schema import Variant
        from mtstream.streams import CsvStream, read_csv
        from mtstream.tree import TreeConfig

        paths = {name: _write_mv_csv(tmp_path, name, n=260, seed=k)
                 for k, name in enumerate(("mv0", "mv1"))}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "datasets": [{"name": name, "csv": str(path), "schema": f"{path}.schema.json"}
                         for name, path in paths.items()],
            "variants": list(_ALL_VARIANTS),
            "tree": {"grace_period": 50},
            "evaluation": {"window": 60, "warm_start": 80, "seeds": [0, 1]}}))
        passes = []
        read = CsvStream.__iter__
        monkeypatch.setattr(CsvStream, "__iter__",
                            lambda source: passes.append(source.path) or read(source))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
        assert sorted(passes) == sorted(list(paths.values()) * 2)

        untimed = lambda rows: [replace(row, elapsed_s=0.0) for row in rows]
        preq = PrequentialConfig(window=60, warm_start=80, seeds=(0, 1))
        for name, path in paths.items():
            for variant in _ALL_VARIANTS:
                for seed in (0, 1):
                    alone = run_prequential(
                        read_csv(path, f"{path}.schema.json"),
                        TreeConfig(variant=Variant(variant), seed=seed, grace_period=50),
                        preq, dataset=name)
                    ran = read_report_csv(out / f"{name}__{variant}__seed{seed}.csv")
                    assert untimed(ran) == untimed(alone.rows)

    @settings(max_examples=60, deadline=None)
    @given(n_datasets=st.integers(1, 3), n_variants=st.integers(1, 5),
           n_seeds=st.integers(1, 3), jobs=st.integers(1, 9))
    def test_tasks_cover_the_cells_one_stream_each(self, n_datasets, n_variants, n_seeds,
                                                   jobs):
        from mtstream.cli import _leaf_cost, _tasks
        from mtstream.schema import Variant
        from mtstream.tree import TreeConfig

        payloads = [{"dataset": {"name": f"d{d}"},
                     "tree": TreeConfig(variant=Variant(variant), seed=seed)}
                    for d in range(n_datasets)
                    for variant in _ALL_VARIANTS[:n_variants]
                    for seed in range(n_seeds)]
        tasks = _tasks(payloads, jobs)
        assert len(tasks) >= min(jobs, len(payloads))
        assert sorted(i for task in tasks for i in task) == list(range(len(payloads)))
        for task in tasks:
            assert len({(payloads[i]["dataset"]["name"], payloads[i]["tree"].seed)
                        for i in task}) == 1
            costs = [_leaf_cost(payloads[i]["tree"].variant.value) for i in task]
            assert costs == sorted(costs, reverse=True)

    def test_pool_starts_no_more_workers_than_tasks(self, tmp_path, monkeypatch):
        import mtstream.cli as cli

        started = []

        class RecordingPool(cli.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        cfg = run_config(tmp_path, n=300, warm_start=100, seeds=(0, 1))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "8"]) == 0
        assert started == [2]
        assert len(list(out.glob("toy__mean__seed*.csv"))) == 2


class TestConfigDefaulting:
    def test_empty_sections_yield_the_benchmark_settings(self):
        from mtstream.cli import (parse_evaluation_section, parse_tree_section,
                                  parse_variants)
        from mtstream.schema import Variant

        tree = parse_tree_section({}, Variant.MEAN, seed=0)
        assert (tree.delta, tree.tau, tree.grace_period) == (1e-7, 0.05, 200)
        assert tree.learning_rate == 0.01
        assert not hasattr(tree, "ascend_errors")
        assert not hasattr(tree, "warm_start")  # an evaluation setting

        evaluation = parse_evaluation_section({}, base_seed=5)
        assert evaluation.window == 200
        assert evaluation.warm_start == 200
        assert evaluation.repetitions == 30
        assert evaluation.seeds == tuple(range(5, 35))

        assert parse_variants(None) == list(Variant)

    def test_integral_floats_are_integers(self):
        from mtstream.cli import (parse_evaluation_section, parse_generator_spec,
                                  parse_tree_section)
        from mtstream.schema import Variant

        tree = parse_tree_section({"grace_period": 1e2}, Variant.MEAN, seed=0)
        assert tree.grace_period == 100 and type(tree.grace_period) is int
        evaluation = parse_evaluation_section({"window": 5e1, "seeds": [3.0]}, base_seed=0)
        assert (evaluation.window, evaluation.seeds) == (50, (3,))
        spec = parse_generator_spec({"family": "friedman_mt", "n_examples": 1e4,
                                     "drift": {"positions": [5e3]}})
        assert spec.n_examples == 10_000 and spec.drift.positions == (5000,)


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

    @pytest.mark.parametrize("n", [450, 200], ids=["windows", "zero_windows"])
    def test_compare_rebuilds_the_summary_files_of_run(self, tmp_path, n):
        """2 datasets x 2 variants x 2 seeds; with n equal to the warm start
        every run ends inside it and has no window row."""
        cfg = run_config(tmp_path, n=n, variants=("mean", "stacked"), seeds=(0, 1),
                         window=100, warm_start=200)
        doc = json.loads(cfg.read_text())
        plane = {"name": "plane", "generator": {
            "family": "plane_mt", "n_examples": n, "n_targets": 2, "seed": 3}}
        cfg.write_text(json.dumps({**doc, "datasets": doc["datasets"] + [plane]}))
        ran, compared = tmp_path / "ran", tmp_path / "compared"
        assert main(["run", "--config", str(cfg), "--out", str(ran), "--jobs", "1"]) == 0
        assert len(list(ran.glob("*__*__seed*.csv"))) == 8
        assert main(["compare", str(ran), "--out", str(compared)]) == 0
        for name in ("summary.csv", "comparison.csv", "comparison.txt"):
            assert (compared / name).read_bytes() == (ran / name).read_bytes(), name

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

    @pytest.mark.parametrize("bad_row, problem", [
        ("1,x,1.0,0.2,100", "could not convert string to float: 'x'"),
        ("1,1.0,1.0", "expected 5 fields"),
        ("1,1.0,1.0,0.2,100,7", "expected 5 fields"),
        ("1,nan,1.0,0.2,100", "armse must be finite, got 'nan'"),
        ("1,1.0,inf,0.2,100", "cum_armse must be finite, got 'inf'"),
        ("1,1.0,1.0,1e400,100", "elapsed_s must be finite, got '1e400'"),
    ], ids=["unparsable_cell", "short_row", "long_row", "nan", "inf", "beyond_float"])
    def test_malformed_report_row_is_one_error_line(self, tmp_path, capsys, bad_row, problem):
        out = tmp_path / "reports"
        out.mkdir()
        header = "window_index,armse,cum_armse,elapsed_s,model_bytes\n"
        (out / "d__mean__seed0.csv").write_text(
            header + "0,1.0,1.0,0.1,100\n" + bad_row + "\n")
        (out / "d__stacked__seed0.csv").write_text(
            header + "0,1.0,1.0,0.1,100\n1,1.0,1.0,0.2,100\n")
        assert main(["compare", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out / 'd__mean__seed0.csv'}, line 3: {problem}\n"

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
        result = friedman_nemenyi(["a", "b", "c", "d", "e"], rng.random((16, 5)))
        assert cd == pytest.approx(result.critical_difference)


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

    @pytest.mark.parametrize("flags, spec_seed", [(["--seed", "-1"], 3), ([], -1)],
                             ids=["flag", "spec"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, flags, spec_seed):
        out = tmp_path / "streams"
        assert main(["generate", "--config", str(self.spec_file(tmp_path, seed=spec_seed)),
                     "--out", str(out), *flags]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"seed {_SEED_RANGE}, got -1" in err
        assert "Traceback" not in err

    def test_flat_form_reads_name_and_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"name": "flat", "output_dir": "streams",
                                    "family": "plane_mt", "n_examples": 20, "seed": 3}))
        assert main(["generate", "--config", str(path)]) == 0
        assert len((tmp_path / "streams" / "flat.csv").read_text().splitlines()) == 21

    @pytest.mark.parametrize("doc", [
        {"family": "plane_mt", "n_examples": 5},
        {"generator": {"family": "plane_mt", "n_examples": 5}},
    ], ids=["flat", "nested"])
    def test_file_name_defaults_to_the_family(self, tmp_path, doc):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "streams"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["plane_mt.csv",
                                                         "plane_mt.csv.schema.json"]

    def test_nested_form_refuses_a_key_beside_the_generator(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"name": "g", "seed": 99, "generator": {
            "family": "plane_mt", "n_examples": 20, "seed": 3}}))
        out = tmp_path / "streams"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: generate config: unknown key 'seed'\n"

    @pytest.mark.parametrize("generator, message", [
        ({"family": "friedman_mt", "n_examples": 500, "drift": {"positions": [250.5]}},
         "drift: positions[0] must be an integer, got 250.5"),
        ({"family": "plane_mt", "noise": 0.5}, "unknown key 'noise'"),
    ], ids=["drift_position_fraction", "unknown_key"])
    def test_bad_spec_exits_2_before_writing(self, tmp_path, capsys, generator, message):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"name": "g", "generator": generator}))
        out = tmp_path / "streams"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: bad generator spec: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["../escaped", None, "", ".", "..", "sub/plane", 5],
                             ids=["parent_dir", "null", "empty", "dot", "dotdot",
                                  "subdir", "number"])
    def test_name_that_is_not_a_file_name_exits_2_before_writing(self, tmp_path, capsys,
                                                                 name):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"name": name, "generator": {
            "family": "plane_mt", "n_examples": 5}}))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["gen.json"]
        err = capsys.readouterr().err
        assert err == (f"error: name must be a file name without a directory part, "
                       f"got {name!r}\n")

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


# Valid configs on tiny streams, mutated one value at a time by the hostile
# input property below.
_HOSTILE_RUN = {
    "datasets": [{"name": "toy", "generator": {
        "family": "friedman_mt", "n_examples": 60, "n_targets": 2, "noise_sd": 0.5,
        "seed": 3, "drift": {"positions": [30], "mode": "synchronous"},
        "target_affine": [[1.0, 0.0], [2.0, -1.0]]}}],
    "variants": ["mean", "perceptron"],
    "tree": {"delta": 1e-7, "tau": 0.05, "grace_period": 20, "learning_rate": 0.01},
    "evaluation": {"window": 20, "warm_start": 10, "repetitions": 1, "seeds": [0]},
}
_HOSTILE_GENERATE = {"name": "g", "generator": {
    "family": "mv_like", "n_examples": 30, "n_targets": 1, "noise_sd": 0.5, "seed": 3,
    "target_affine": [[1.0, 0.0]]}}


def _paths(doc, prefix=()):
    """The key path of every value inside a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_MUTATIONS = {  # "drop" deletes the value's key
    "drop": None,
    "bool": lambda v: True,
    "string": lambda v: str(v),
    "nan": lambda v: math.nan,
    "infinity": lambda v: math.inf,
    "negative": lambda v: -v if _number(v) and v > 0 else -1,
    "fraction": lambda v: v + 0.5 if _number(v) else 2.5,
    "null": lambda v: None,
    "list": lambda v: [v],
    "huge": lambda v: 1e300,
}
# a stream's length and the repetitions cost time and memory in proportion to
# their value, so only a number setting or a seed is made huge
_MAY_BE_HUGE = {"delta", "tau", "learning_rate", "noise_sd", "target_affine", "seed", "seeds"}
# every number in the configs is a setting that refuses these in its place
_NOT_A_NUMBER = {"bool", "string", "nan", "infinity", "null", "list"}


def _exits_cleanly(command, base, path, mutation):
    """Run `mtstream COMMAND --config ... --out ...` in-process from a fresh
    working directory on `base` with one value mutated: it exits 0, or 1 or 2
    with one `error:` line and no traceback, and writes nothing outside the
    output directory. A number replaced by a non-number exits 2."""
    doc = copy.deepcopy(base)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    was = holder[path[-1]]
    if mutation == "drop":
        del holder[path[-1]]
    else:
        holder[path[-1]] = _MUTATIONS[mutation](was)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(argv + ["--jobs", "1"] if command == "run" else argv)
        finally:
            os.chdir(cwd)
        text = err.getvalue()
        assert "Traceback" not in text
        if code == 0:
            assert text == ""
        else:
            assert code in (1, 2)
            assert text.startswith("error: ") and len(text.splitlines()) == 1, text
        assert [p for p in tmp.rglob("*") if p != cfg and out not in (p, *p.parents)] == []
    if _number(was) and mutation in _NOT_A_NUMBER:
        assert code == 2, text


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestHostileInput:
    @settings(max_examples=400, deadline=None)
    @given(path=st.sampled_from(list(_paths(_HOSTILE_RUN))),
           mutation=st.sampled_from(list(_MUTATIONS)))
    def test_run_config(self, path, mutation):
        assume(mutation != "huge" or _MAY_BE_HUGE & set(path))
        _exits_cleanly("run", _HOSTILE_RUN, path, mutation)

    @settings(max_examples=100, deadline=None)
    @given(path=st.sampled_from(list(_paths(_HOSTILE_GENERATE))),
           mutation=st.sampled_from(list(_MUTATIONS)))
    def test_generate_spec(self, path, mutation):
        assume(mutation != "huge" or _MAY_BE_HUGE & set(path))
        _exits_cleanly("generate", _HOSTILE_GENERATE, path, mutation)
