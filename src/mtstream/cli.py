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
from pathlib import Path

from .evaluation import (
    EvaluationError,
    PrequentialConfig,
    RankTable,
    WindowedReport,
    friedman_nemenyi,
    read_report_csv,
    run_prequential,
    write_report_csv,
)
from .schema import SchemaError, Variant
from .streams import (
    ConfigError,
    DriftSpec,
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
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc


def parse_generator_spec(doc: dict, seed_override: int | None = None) -> GeneratorSpec:
    if "family" not in doc:
        raise UsageError("generator spec needs a 'family'")
    drift = None
    if doc.get("drift") is not None:
        ddoc = doc["drift"]
        drift = DriftSpec(positions=tuple(ddoc.get("positions", ())),
                          mode=ddoc.get("mode", "synchronous"))
    affine = doc.get("target_affine")
    try:
        return GeneratorSpec(
            family=doc["family"],
            n_examples=int(doc.get("n_examples", 10_000)),
            n_targets=int(doc.get("n_targets", 2)),
            noise_sd=float(doc.get("noise_sd", 1.0)),
            seed=int(seed_override if seed_override is not None else doc.get("seed", 0)),
            drift=drift,
            target_affine=tuple((float(a), float(b)) for a, b in affine) if affine else None,
        )
    except (ConfigError, TypeError, ValueError) as exc:
        raise UsageError(f"bad generator spec: {exc}") from exc


def parse_variants(names) -> list[Variant]:
    if not names:
        return list(Variant)
    out = []
    for name in names:
        try:
            out.append(Variant(name))
        except ValueError:
            valid = ", ".join(v.value for v in Variant)
            raise UsageError(f"unknown variant {name!r}; choose from: {valid}")
    return out


def parse_tree_section(doc: dict, variant: Variant, seed: int) -> TreeConfig:
    """Omitted fields default to the benchmark settings."""
    if doc.get("ascend_errors", False):
        raise UsageError("tree.ascend_errors is not supported: leaf models "
                         "always descend the squared error")
    try:
        return TreeConfig(
            variant=variant,
            delta=float(doc.get("delta", 1e-7)),
            tau=float(doc.get("tau", 0.05)),
            grace_period=int(doc.get("grace_period", 200)),
            learning_rate=float(doc.get("learning_rate", 0.01)),
            seed=seed,
        )
    except ValueError as exc:
        raise UsageError(f"bad tree section: {exc}") from exc


def parse_evaluation_section(doc: dict, tree_doc: dict, base_seed: int) -> PrequentialConfig:
    warm_default = int(tree_doc.get("warm_start", 200))
    repetitions = int(doc.get("repetitions", 30))
    seeds = doc.get("seeds")
    if seeds is not None:
        seeds = tuple(int(s) for s in seeds)
        if "repetitions" in doc and len(seeds) != repetitions:
            raise UsageError("evaluation.seeds length must equal evaluation.repetitions")
    else:
        seeds = tuple(base_seed + i for i in range(repetitions))
    try:
        return PrequentialConfig(
            window=int(doc.get("window", 200)),
            warm_start=int(doc.get("warm_start", warm_default)),
            seeds=seeds,
        )
    except EvaluationError as exc:
        raise UsageError(f"bad evaluation section: {exc}") from exc


def _dataset_entries(doc: dict) -> list[dict]:
    datasets = doc.get("datasets")
    if not datasets:
        raise UsageError("run config needs a non-empty 'datasets' list")
    for i, entry in enumerate(datasets):
        if "name" not in entry:
            raise UsageError(f"datasets[{i}] needs a 'name'")
        if ("generator" in entry) == ("csv" in entry):
            raise UsageError(f"datasets[{i}] needs exactly one of 'generator' or 'csv'")
        if "csv" in entry and "schema" not in entry:
            raise UsageError(f"datasets[{i}] with 'csv' also needs 'schema'")
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
    source = _make_source(payload["dataset"])
    tree_config = parse_tree_section(payload["tree"], Variant(payload["variant"]),
                                     payload["seed"])
    preq = PrequentialConfig(window=payload["window"],
                             warm_start=payload["warm_start"],
                             seeds=(payload["seed"],))
    return run_prequential(source, tree_config, preq,
                           dataset=payload["dataset"]["name"])


def _leaf_cost(variant_name: str) -> tuple:
    """Sort key for the cost of a variant's leaves: a stacked layer, then a
    base layer, then the number of scored predictors."""
    variant = Variant(variant_name)
    return variant.has_meta_layer, variant.has_base_layer, len(variant.scored)


def report_filename(dataset: str, variant: str, seed: int) -> str:
    return f"{dataset}__{variant}__seed{seed}.csv"


def cmd_run(args) -> int:
    doc = _load_json(args.config)
    out_dir = _resolve_out_dir(args.out, doc.get("output_dir"))
    datasets = _dataset_entries(doc)
    variants = parse_variants(doc.get("variants"))
    tree_doc = doc.get("tree", {})
    parse_tree_section(tree_doc, variants[0], args.seed)  # exit 2 before any cell runs
    preq = parse_evaluation_section(doc.get("evaluation", {}), tree_doc, args.seed)

    payloads = [
        {"dataset": entry, "variant": variant.value, "seed": seed,
         "tree": tree_doc, "window": preq.window, "warm_start": preq.warm_start}
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
                       key=lambda i: _leaf_cost(payloads[i]["variant"]))
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
    dataset's windows."""
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
        matrix = [
            [curves[(d, v)][w] for v in variants]
            for w in range(n_windows)
        ]
    table = RankTable.from_scores(variants, matrix, lower_is_better=True)
    return friedman_nemenyi(table)


def _write_summary(reports: list[WindowedReport], out_dir: Path) -> None:
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
        return
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
        rows = read_report_csv(path)
        report = WindowedReport(dataset=m.group("dataset"), variant=m.group("variant"),
                                seed=int(m.group("seed")), window=0, warm_start=0,
                                rows=rows)
        report.cum_armse = rows[-1].cum_armse if rows else 0.0
        report.elapsed_s = rows[-1].elapsed_s if rows else 0.0
        report.final_model_bytes = rows[-1].model_bytes if rows else 0
        reports.append(report)
    if not reports:
        raise UsageError(f"no report files matching NAME__VARIANT__seedN.csv in {report_dir}")
    variants = {r.variant for r in reports}
    if len(variants) < 2:
        raise UsageError("compare needs reports from at least two algorithms")

    out_dir = _resolve_out_dir(args.out, str(report_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_summary(reports, out_dir)
    with open(out_dir / "comparison.txt", "r", encoding="utf-8") as fh:
        print(fh.read())
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    doc = _load_json(args.config)
    name = doc.get("name", doc.get("family", "stream"))
    spec = parse_generator_spec(doc.get("generator", doc), seed_override=args.seed)
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
        return Path(config_value)
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    return Path(DEFAULT_OUT_DIR)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtstream",
        description="Incremental multi-target regression trees and their benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a prequential experiment matrix from a config file")
    run.add_argument("--config", required=True, help="run configuration (JSON)")
    run.add_argument("--out", default=None, help="output directory for report CSVs")
    run.add_argument("--jobs", type=int, default=None,
                     help="parallel worker processes (default: CPU count)")
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
