"""Command-line front end: run experiment matrices, compare report
directories, and materialize synthetic streams.

Subcommands
    run       --config run.json [--out DIR] [--jobs N] [--seed S]
    compare   REPORT_DIR [--out DIR]
    generate  --config generator.json [--out DIR] [--seed S]

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or usage.
The default output directory comes from --out, then the config file, then the
MTSTREAM_OUT environment variable, then ./mtstream_reports.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

from .evaluation import (
    EvaluationError,
    PrequentialConfig,
    WindowedReport,
    friedman_nemenyi,
    read_report_csv,
    run_prequential,
    write_report_csv,
)
from .schema import SETTING, SchemaError, Setting, Variant
from .streams import (
    ConfigError,
    GeneratorSpec,
    make_stream,
    read_csv,
    write_csv,
)
from .tree import TreeConfig

ENV_OUT_DIR = "MTSTREAM_OUT"
DEFAULT_OUT_DIR = "mtstream_reports"
REPORT_NAME_RE = re.compile(r"^(?P<dataset>.+)__(?P<variant>[a-z_]+)__seed(?P<seed>\d+)\.csv$")


class UsageError(Exception):
    """Bad configuration or arguments; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    return _expect(doc, dict, f"config file {path}")


_KINDS = {dict: "an object", list: "a list", str: "a string",
          (str, dict): "a path string or an object"}


def _expect(value, kind: type | tuple, what: str):
    """`value`, if it is of the JSON kind the config needs there."""
    if not isinstance(value, kind):
        raise UsageError(f"{what} must be {_KINDS[kind]}")
    return value


def _from_json(value, declared: Setting):
    """`value` as a setting of the `declared` kind. JSON has no tuple and no
    integral float, so a list becomes a tuple, an integral float within
    +-2**63 becomes an int in an integer setting (1e300 stays a float), and an
    object becomes the nested config dataclass. Every other value passes as
    it is, for the config dataclass to check."""
    if (declared.kind is int and isinstance(value, float) and value.is_integer()
            and abs(value) <= 2**63):
        return int(value)
    if declared.kind is tuple and isinstance(value, list):
        return tuple(_from_json(item, declared.items) for item in value)
    if is_dataclass(declared.kind) and isinstance(value, dict):
        return declared.kind(**_settings(declared.kind, value))
    return value


def _settings(cls, doc: dict, fixed=()) -> dict:
    """The settings that `doc` gives for the config dataclass `cls`, each
    read by its field's declaration; the dataclass supplies every default.
    A key that names no field of `cls`, or one in `fixed`, is a ValueError
    naming it."""
    declared = {f.name: f.metadata[SETTING] for f in fields(cls) if f.name not in fixed}
    settings = {}
    for key, value in doc.items():
        if key not in declared:
            raise ValueError(f"unknown key {key!r}")
        try:
            settings[key] = _from_json(value, declared[key])
        except (TypeError, ValueError) as exc:  # from a nested config
            raise ValueError(f"{key}: {exc}") from exc
    return settings


def parse_generator_spec(doc: dict, seed_override: int | None = None) -> GeneratorSpec:
    _expect(doc, dict, "generator spec")
    try:
        settings = _settings(GeneratorSpec, doc)
        if seed_override is not None:
            settings["seed"] = seed_override
        return GeneratorSpec(**settings)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad generator spec: {exc}") from exc


def parse_variants(names) -> list[Variant]:
    if names is not None:
        _expect(names, list, "variants")
    if not names:
        return list(Variant)
    out = []
    for name in names:
        try:
            variant = Variant(name)
        except ValueError:
            valid = ", ".join(v.value for v in Variant)
            raise UsageError(f"unknown variant {name!r}; choose from: {valid}")
        if variant in out:
            raise UsageError(f"variant {name!r} is listed twice")
        out.append(variant)
    return out


def parse_tree_section(doc: dict, variant: Variant, seed: int) -> TreeConfig:
    """Omitted fields take the TreeConfig defaults, the benchmark settings."""
    _expect(doc, dict, "tree section")
    try:
        return TreeConfig(variant=variant, seed=seed,
                          **_settings(TreeConfig, doc, fixed=("variant", "seed")))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad tree section: {exc}") from exc


_REPETITIONS = Setting(int, low=1)


def parse_evaluation_section(doc: dict, base_seed: int) -> PrequentialConfig:
    """Omitted fields take the PrequentialConfig defaults. Without explicit
    seeds, `repetitions` (30 by default) seeds count up from `base_seed`."""
    _expect(doc, dict, "evaluation section")
    try:
        repetitions = _from_json(doc.get("repetitions", 30), _REPETITIONS)
        _REPETITIONS.check("repetitions", repetitions, EvaluationError)
        settings = _settings(PrequentialConfig,
                             {k: v for k, v in doc.items() if k != "repetitions"})
        if settings.get("seeds") is None:
            settings["seeds"] = tuple(range(base_seed, base_seed + repetitions))
        config = PrequentialConfig(**settings)
    except (EvaluationError, TypeError, ValueError) as exc:
        raise UsageError(f"bad evaluation section: {exc}") from exc
    if "repetitions" in doc and config.repetitions != repetitions:
        raise UsageError("evaluation.seeds length must equal evaluation.repetitions")
    return config


def _file_name(name, what: str) -> str:
    """`name` when it is a single non-empty file-name component, so a file
    named after it stays inside the output directory."""
    if not isinstance(name, str) or Path(name).name != name or name in ("", ".", ".."):
        raise UsageError(f"{what} must be a file name without a directory part, got {name!r}")
    return name


def _dataset_entries(doc: dict) -> list[dict]:
    datasets = _expect(doc.get("datasets", []), list, "datasets")
    if not datasets:
        raise UsageError("run config needs a non-empty 'datasets' list")
    names = set()
    for i, entry in enumerate(datasets):
        _expect(entry, dict, f"datasets[{i}]")
        if "name" not in entry:
            raise UsageError(f"datasets[{i}] needs a 'name'")
        # the name heads the cell's report file name inside the output directory
        name = _file_name(entry["name"], f"datasets[{i}].name")
        if name in names:
            raise UsageError(f"datasets[{i}].name {name!r} is used by an earlier dataset")
        names.add(name)
        if ("generator" in entry) == ("csv" in entry):
            raise UsageError(f"datasets[{i}] needs exactly one of 'generator' or 'csv'")
        if "csv" in entry and "schema" not in entry:
            raise UsageError(f"datasets[{i}] with 'csv' also needs 'schema'")
        _expect(entry.get("csv", ""), str, f"datasets[{i}].csv")
        _expect(entry.get("schema", ""), (str, dict), f"datasets[{i}].schema")
    return datasets


def _make_source(entry: dict):
    if "generator" in entry:
        return make_stream(parse_generator_spec(entry["generator"]))
    return read_csv(entry["csv"], entry["schema"])


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _run_cell(payload: dict) -> WindowedReport:
    """One (dataset, variant, seed) cell; module-level for process pools."""
    return run_prequential(_make_source(payload["dataset"]), payload["tree"],
                           payload["evaluation"], dataset=payload["dataset"]["name"])


def _leaf_cost(variant_name: str) -> tuple:
    """Sort key for the cost of a variant's leaves: a stacked layer, then a
    base layer, then the number of selectable predictors."""
    variant = Variant(variant_name)
    return variant.has_meta_layer, variant.has_base_layer, len(variant.selectable)


def report_filename(dataset: str, variant: str, seed: int) -> str:
    return f"{dataset}__{variant}__seed{seed}.csv"


def cmd_run(args) -> int:
    doc = _load_json(args.config)
    out_dir = _resolve_out_dir(args.out, doc.get("output_dir"))
    datasets = _dataset_entries(doc)
    variants = parse_variants(doc.get("variants"))
    tree = parse_tree_section(doc.get("tree", {}), variants[0], args.seed)
    preq = parse_evaluation_section(doc.get("evaluation", {}), args.seed)
    for entry in datasets:  # each cell opens its source again
        try:
            _make_source(entry)
        except (OSError, ValueError) as exc:
            raise UsageError(f"dataset {entry['name']!r}: {exc}") from exc

    payloads = [
        {"dataset": entry, "tree": replace(tree, variant=variant, seed=seed),
         "evaluation": preq}
        for entry in datasets
        for variant in variants
        for seed in preq.seeds
    ]

    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and len(payloads) > 1:
        # longest leaf stack first, so no slow cell starts last; reports keep
        # the config order
        order = sorted(range(len(payloads)), reverse=True,
                       key=lambda i: _leaf_cost(payloads[i]["tree"].variant.value))
        reports = [None] * len(payloads)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for i, report in zip(order, pool.map(_run_cell, [payloads[i] for i in order])):
                reports[i] = report
    else:
        reports = [_run_cell(p) for p in payloads]

    for report in reports:
        write_report_csv(report, out_dir / report_filename(
            report.dataset, report.variant, report.seed))

    _write_summary(reports, out_dir)
    print(f"wrote {len(reports)} report file(s) to {out_dir}")
    return 0


def _aggregate(reports: list[WindowedReport]):
    """Group runs by (dataset, variant); returns per-cell mean/sd stats and
    the seed-averaged window-error curves used for ranking."""
    cells: dict[tuple[str, str], list[WindowedReport]] = {}
    for r in reports:
        cells.setdefault((r.dataset, r.variant), []).append(r)
    stats_rows = {}
    curves = {}
    for key, runs in sorted(cells.items()):
        counts = {len(r.rows) for r in runs}
        if len(counts) != 1:
            raise EvaluationError(
                f"misaligned windows for {key}: runs disagree on window count {sorted(counts)}; "
                "compare needs identical stream lengths and window sizes")
        armses = [r.cum_armse for r in runs]
        times = [r.elapsed_s for r in runs]
        sizes = [float(r.final_model_bytes) for r in runs]
        summed = [r.summed_window_error for r in runs]
        stats_rows[key] = {
            "repetitions": len(runs),
            "armse_mean": statistics.fmean(armses),
            "armse_sd": statistics.pstdev(armses),
            "time_s_mean": statistics.fmean(times),
            "time_s_sd": statistics.pstdev(times),
            "model_bytes_mean": statistics.fmean(sizes),
            "model_bytes_sd": statistics.pstdev(sizes),
            "summed_window_error_mean": statistics.fmean(summed),
        }
        n_windows = counts.pop()
        mean_curve = [
            statistics.fmean([r.rows[w].armse for r in runs]) for w in range(n_windows)
        ]
        curves[key] = mean_curve
    return stats_rows, curves


def _comparison_from_curves(curves: dict):
    """Rank algorithms per block: blocks are datasets when several exist
    (statistic: summed seed-averaged window error), otherwise the single
    dataset's windows. None below two algorithms or two blocks."""
    datasets = sorted({d for d, _ in curves})
    variants = sorted({v for _, v in curves})
    if len(variants) < 2:
        return None
    for d in datasets:
        present = {v for dd, v in curves if dd == d}
        if present != set(variants):
            raise EvaluationError(
                f"dataset {d!r} lacks reports for variants {sorted(set(variants) - present)}")
    if len(datasets) >= 2:
        matrix = [
            [sum(curves[(d, v)]) for v in variants]
            for d in datasets
        ]
    else:
        d = datasets[0]
        lengths = {len(curves[(d, v)]) for v in variants}
        if len(lengths) != 1:
            raise EvaluationError(f"misaligned windows across variants for {d!r}")
        n_windows = lengths.pop()
        if n_windows < 2:
            return None
        matrix = [
            [curves[(d, v)][w] for v in variants]
            for w in range(n_windows)
        ]
    return friedman_nemenyi(variants, matrix)


def _write_summary(reports: list[WindowedReport], out_dir: Path):
    """Write summary.csv, and the comparison files when the reports make a
    comparison, else delete any that an earlier run left; returns the
    comparison or None."""
    import csv as _csv

    stats_rows, curves = _aggregate(reports)
    comparison = _comparison_from_curves(curves)
    rank_by_variant = {}
    if comparison is not None:
        rank_by_variant = dict(zip(comparison.algorithms, comparison.average_ranks))

    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["dataset", "variant", "repetitions",
                         "armse_mean", "armse_sd", "time_s_mean", "time_s_sd",
                         "model_bytes_mean", "model_bytes_sd",
                         "summed_window_error_mean", "avg_rank"])
        for (dataset, variant), row in sorted(stats_rows.items()):
            writer.writerow([
                dataset, variant, row["repetitions"],
                repr(row["armse_mean"]), repr(row["armse_sd"]),
                repr(row["time_s_mean"]), repr(row["time_s_sd"]),
                repr(row["model_bytes_mean"]), repr(row["model_bytes_sd"]),
                repr(row["summed_window_error_mean"]),
                repr(rank_by_variant[variant]) if variant in rank_by_variant else "",
            ])

    if comparison is None:
        for name in ("comparison.csv", "comparison.txt"):
            (out_dir / name).unlink(missing_ok=True)
        return None
    with open(out_dir / "comparison.csv", "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["algorithm", "average_rank", "critical_difference",
                         "chi2", "f_stat", "p_value", "reject"])
        for name, rank in zip(comparison.algorithms, comparison.average_ranks):
            writer.writerow([name, repr(rank), repr(comparison.critical_difference),
                             repr(comparison.chi2), repr(comparison.f_stat),
                             repr(comparison.p_value), comparison.reject])
    with open(out_dir / "comparison.txt", "w", encoding="utf-8") as fh:
        fh.write(_comparison_text(comparison))
    return comparison


def _comparison_text(c) -> str:
    lines = ["Cross-algorithm comparison (windowed errors, lower rank is better)", ""]
    order = sorted(zip(c.average_ranks, c.algorithms))
    for rank, name in order:
        lines.append(f"  {name:<20s} avg rank {rank:.4f}")
    lines.append("")
    f_repr = "inf" if c.f_stat == float("inf") else f"{c.f_stat:.4f}"
    lines.append(f"Friedman chi^2 = {c.chi2:.04f}, F = {f_repr}, p = {c.p_value:.6g}")
    lines.append("Differences are significant at alpha = 0.05"
                 if c.reject else "No significant differences at alpha = 0.05")
    lines.append(f"Nemenyi critical difference = {c.critical_difference:.4f}")
    for group in c.groups:
        if len(group) > 1:
            lines.append("  indistinguishable: " + ", ".join(group))
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    report_dir = Path(args.report_dir)
    if not report_dir.is_dir():
        raise UsageError(f"report directory not found: {report_dir}")
    reports = []
    for path in sorted(report_dir.glob("*.csv")):
        m = REPORT_NAME_RE.match(path.name)
        if m is None:
            continue
        reports.append(WindowedReport(m.group("dataset"), m.group("variant"),
                                      int(m.group("seed")), rows=read_report_csv(path)))
    if not reports:
        raise UsageError(f"no report files matching NAME__VARIANT__seedN.csv in {report_dir}")
    out_dir = _resolve_out_dir(args.out, str(report_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    comparison = _write_summary(reports, out_dir)
    if comparison is None:
        raise UsageError("compare needs reports from at least two algorithms, over two "
                         "datasets or two windows of one dataset")
    print(_comparison_text(comparison))
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    doc = _load_json(args.config)
    name = _file_name(doc.get("name", doc.get("family", "stream")), "name")
    # the flat form keeps the generator keys beside the file's own
    flat = {k: v for k, v in doc.items() if k not in ("name", "output_dir")}
    spec = parse_generator_spec(doc.get("generator", flat), seed_override=args.seed)
    out_dir = _resolve_out_dir(args.out, doc.get("output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    rows = write_csv(make_stream(spec), csv_path)
    print(f"wrote {rows} rows to {csv_path} (+ schema declaration)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _resolve_out_dir(flag_value, config_value) -> Path:
    if flag_value:
        return Path(flag_value)
    if config_value:
        return Path(_expect(config_value, str, "output_dir"))
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    return Path(DEFAULT_OUT_DIR)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtstream",
        description="Incremental multi-target regression trees and their benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a prequential experiment matrix from a config file")
    run.add_argument("--config", required=True, help="run configuration (JSON)")
    run.add_argument("--out", default=None, help="output directory for report CSVs")
    run.add_argument("--jobs", type=_positive_int, default=None,
                     help="parallel worker processes, at least 1 (default: CPU count)")
    run.add_argument("--seed", type=int, default=0,
                     help="base seed when the config lists no explicit seeds")

    cmp_ = sub.add_parser("compare", help="rank algorithms from a directory of report CSVs")
    cmp_.add_argument("report_dir", help="directory holding NAME__VARIANT__seedN.csv files")
    cmp_.add_argument("--out", default=None, help="where to write summary/comparison files")

    gen = sub.add_parser("generate", help="materialize a synthetic stream as CSV + schema")
    gen.add_argument("--config", required=True, help="generator spec (JSON)")
    gen.add_argument("--out", default=None, help="output directory")
    gen.add_argument("--seed", type=int, default=None,
                     help="override the generator seed")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_generate(args)
    except (UsageError, ConfigError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
