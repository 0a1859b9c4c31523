"""The mtstream benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports mtstream from ``src/`` there
and writes only under ``.perfbench_out/``. Each repetition runs in a fresh
process started by this one, in a closed loop: the prequential protocol feeds
an example only after the previous one returned.

Workloads (why each was chosen is recorded in BENCHMARK.json and README.md):

* ``friedman-sa``   friedman_mt, 4 targets, noise 0, 50k examples,
                    stacked_adaptive, ``run_prequential`` in one process;
* ``plane-mean``    plane_mt, 4 targets, noise 1, 50k examples, mean leaves
                    (runnable by name; not listed in BENCHMARK.json);
* ``mv-csv-matrix`` ``mtstream generate`` writes two 10k-row mv_like CSVs,
                    then ``mtstream run --jobs 2`` races 5 variants on each
                    (10 cells).

With ``--trace 0`` the run reports the end-to-end metrics. Repetitions cycle
over ``streams`` derived stream seeds (``seed * 100 + j``) until ``--seconds``
is used up; every stream runs at least once, and the first one runs twice
when that still fits in ``--seconds`` (the run says so when it does not).
Timings are medians over repetitions; the
deterministic outputs ``model_bytes`` (the mean of ``model_size_bytes()``
over the run's window boundaries) and ``cum_armse`` are means over the
derived streams, which keeps them steady from seed to seed.

With ``--trace 1`` repetitions alternate untraced and traced on the first
derived stream. The traced ones record spans at the layer boundaries (see
``hooks.py``) and report the per-layer metrics; the difference between the
traced and the untraced wall time is the tracing overhead. ``LAYER_MOVES``
names the end-to-end metric each per-layer metric should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The command exits 1
when an output check fails and 2 when the checkout holds no mtstream source.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Fixed per-target affine maps (a_t, b_t): the seed draws the inputs and the
# noise, not the target scales, so cum_armse compares across seeds.
TARGET_AFFINE = ((1.0, 0.0), (1.5, 2.0), (0.75, -2.0), (1.25, 4.0))

WORKLOADS = {
    "friedman-sa": {
        "kind": "prequential", "family": "friedman_mt", "noise_sd": 0.0,
        "n_examples": 50_000, "variant": "stacked_adaptive", "streams": 3,
    },
    "plane-mean": {
        "kind": "prequential", "family": "plane_mt", "noise_sd": 1.0,
        "n_examples": 50_000, "variant": "mean", "streams": 4,
    },
    "mv-csv-matrix": {
        "kind": "matrix", "family": "mv_like", "noise_sd": 1.0,
        "n_examples": 10_000, "streams": 2, "jobs": 2, "datasets": 2,
        "variants": ["mean", "perceptron", "adaptive", "stacked", "stacked_adaptive"],
    },
}

END_TO_END = {  # name: (unit, better)
    "examples_per_s": ("1/s", "higher"),
    "matrix_wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "model_bytes": ("bytes", "lower"),
    "cum_armse": ("armse", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

# per-layer metric: (unit, the end-to-end metric(s) it should move, where)
LAYER_MOVES = {
    "observers.insert_us": ("us", "examples_per_s on friedman-sa (deep BST appends) and plane-mean (duplicate folds)"),
    "observers.insert_calls": ("count", "examples_per_s on friedman-sa and plane-mean"),
    "observers.scan_us": ("us", "tree.step_us_p999 on friedman-sa; little on plane-mean"),
    "observers.scan_calls": ("count", "tree.step_us_p999 on friedman-sa"),
    "observers.keys_per_scan": ("count", "tree.step_us_p999 on friedman-sa"),
    "splitting.decide_us": ("us", "tree.step_us_p999 on friedman-sa"),
    "leaf_models.predict_us": ("us", "examples_per_s, tree.step_us_p50 on friedman-sa; ~0 on plane-mean"),
    "leaf_models.select_us": ("us", "examples_per_s, tree.step_us_p50 on friedman-sa"),
    "leaf_models.score_us": ("us", "examples_per_s, tree.step_us_p50 on friedman-sa"),
    "leaf_models.train_us": ("us", "examples_per_s, tree.step_us_p50 on friedman-sa; 0 on plane-mean"),
    "stats.standardize_us": ("us", "examples_per_s, tree.step_us_p50 on plane-mean"),
    "stats.update_us": ("us", "examples_per_s, tree.step_us_p50 on plane-mean"),
    "schema.validate_us": ("us", "examples_per_s, tree.step_us_p50 on plane-mean"),
    "tree.self_us": ("us", "examples_per_s, tree.step_us_p50 on plane-mean (routing, orchestration)"),
    "tree.split_attempts": ("count", "tree.step_us_p999"),
    "tree.splits": ("count", "tree.step_us_p999"),
    "tree.split_yield": ("ratio", "tree.step_us_p999 (splits per attempt)"),
    "tree.leaves": ("count", "tree.step_us_p999, model_bytes"),
    "tree.rejected": ("count", "ok_ratio"),
    "tree.size_walk_us": ("us", "tree.step_us_p999, examples_per_s (one walk per window)"),
    "tree.step_us_p50": ("us", "median predict_then_learn time in the untraced runs"),
    "tree.step_us_p999": ("us", "split-stall latency: p99.9 of predict_then_learn in the untraced runs"),
    "observers.bytes": ("bytes", "model_bytes, peak_rss_mb"),
    "stats.bytes": ("bytes", "model_bytes, peak_rss_mb"),
    "leaf_models.bytes": ("bytes", "model_bytes, peak_rss_mb"),
    "tree.node_bytes": ("bytes", "model_bytes, peak_rss_mb"),
    "streams.next_us": ("us", "examples_per_s, matrix_wall_s"),
    "streams.skipped_rows": ("count", "ok_ratio"),
    "evaluation.self_us": ("us", "examples_per_s, matrix_wall_s"),
    "cli.cell_s": ("s", "matrix_wall_s on mv-csv-matrix"),
    "cli.pool_overhead_s": ("s", "matrix_wall_s on mv-csv-matrix"),
    "cli.report_write_s": ("s", "matrix_wall_s on mv-csv-matrix"),
    "cli.summary_s": ("s", "matrix_wall_s on mv-csv-matrix"),
    "cli.import_s": ("s", "matrix_wall_s, setup_s on mv-csv-matrix"),
    "cli.self_s": ("s", "matrix_wall_s on mv-csv-matrix"),
    "trace.remainder_us": ("us", "untraced remainder of the traced wall time"),
    "trace.wall_s": ("s", "traced wall time (run_prequential, or the matrix process)"),
    "trace.untraced_wall_s": ("s", "the same wall time without tracing"),
    "trace.overhead_pct": ("%", "tracing overhead; no end-to-end metric"),
}

# span label -> per-layer metric of its self time, in us per example
SELF_TIME_METRICS = {
    "observers.insert": "observers.insert_us",
    "observers.scan": "observers.scan_us",
    "splitting.decide": "splitting.decide_us",
    "leaf_models.predict": "leaf_models.predict_us",
    "leaf_models.select": "leaf_models.select_us",
    "leaf_models.score": "leaf_models.score_us",
    "leaf_models.train": "leaf_models.train_us",
    "stats.standardize": "stats.standardize_us",
    "stats.update": "stats.update_us",
    "schema.validate": "schema.validate_us",
    "tree.step": "tree.self_us",
    "tree.size_walk": "tree.size_walk_us",
    "streams.next": "streams.next_us",
    "evaluation": "evaluation.self_us",
    "run": "trace.remainder_us",
    "cell": "trace.remainder_us",
}
REPORT_METRIC_COLUMNS = ("window_index", "armse", "cum_armse", "model_bytes")
CALIBRATION_LOOPS = 200_000
MAX_RUN_S = 170.0


class RepFailure(Exception):
    """A repetition whose process or outputs failed a check."""


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
    }


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def calibrate_ms() -> float:
    """A fixed pure-Python loop; reported beside the metrics as a host-speed
    record, never divided out."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run(cmd, timeout: float) -> float:
    """Run a child process to completion; returns its wall time. The child
    gets its own process group, so a timeout or an interrupt also stops any
    pool workers it started."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RepFailure(f"{cmd[1]} timed out after {timeout:.0f} s") from exc
        raise
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RepFailure(f"{' '.join(cmd[1:3])} exited {proc.returncode}: {err.strip()[-2000:]}")
    return wall


def _worker(mode: str, spec: dict, rep_dir: Path, timeout: float) -> tuple[dict, float]:
    out_json = rep_dir / "result.json"
    spec = {**spec, "root": str(ROOT), "out_dir": str(rep_dir),
            "spawned_at": time.monotonic()}
    wall = _run([sys.executable, str(HERE / "worker.py"), mode, json.dumps(spec),
                 str(out_json)], timeout)
    with open(out_json, encoding="utf-8") as fh:
        return json.load(fh), wall


def _step_percentiles(rep_dir: Path) -> dict:
    """p50 and p99.9 of one repetition's predict_then_learn times, in us."""
    steps = np.sort(np.fromfile(rep_dir / "steps.f64", dtype=np.float64)) * 1e6
    return {"steps": len(steps), "step_us_p50": percentile(steps, 0.5),
            "step_us_p999": percentile(steps, 0.999)}


def prequential_rep(w: dict, stream_seed: int, trace: bool, dump_spans: bool,
                    rep_dir: Path, timeout: float) -> dict:
    spec = {"family": w["family"], "noise_sd": w["noise_sd"],
            "n_examples": w["n_examples"], "variant": w["variant"],
            "target_affine": TARGET_AFFINE, "stream_seed": stream_seed,
            "trace": trace, "dump_spans": dump_spans}
    res, proc_wall = _worker("prequential", spec, rep_dir, timeout)
    n = w["n_examples"]
    failed = res["nonfinite"] + res["rejected"] + (n - res["calls"])
    if not math.isclose(res["armse_recomputed"], res["cum_armse"], rel_tol=1e-9):
        raise RepFailure(f"cum_armse {res['cum_armse']!r} differs from the "
                         f"recomputed {res['armse_recomputed']!r}")
    if res["report_model_bytes"] != res["model_bytes"]:
        raise RepFailure("report.final_model_bytes differs from model_size_bytes()")
    rep = {
        "attempted": n, "failed": failed, "calls": res["calls"],
        "wall_s": res["wall_s"], "proc_wall_s": proc_wall, "setup_s": [res["setup_s"]],
        "examples_per_s": res["calls"] / res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "model_bytes": res["avg_model_bytes"], "cum_armse": res["cum_armse"],
        "fingerprint": [res["cum_armse"], res["model_bytes"], res["avg_model_bytes"], res["leaves"],
                        res["skeleton_sha"]],
        "counters": {k: res[k] for k in ("leaves", "splits", "split_attempts", "rejected")},
        **_step_percentiles(rep_dir),
    }
    if trace:
        rep["layers"] = layer_metrics([res])
        check_additive(res["layers"], res["wall_s"], "run_prequential")
        check_bytes(res["bytes"], res["model_bytes"])
        rep["layers"].update(bytes_metrics(res["bytes"]))
        rep["missing"] = res["missing"]
    return rep


def matrix_rep(w: dict, stream_seed: int, trace: bool, rep_dir: Path,
               timeout: float) -> dict:
    data_dir = rep_dir / "data"
    report_dir = rep_dir / "reports"
    names = [f"mv{d}" for d in range(w["datasets"])]
    setup_s = []
    for d, name in enumerate(names):
        gen_config = rep_dir / f"{name}.json"
        gen_config.write_text(json.dumps({
            "name": name, "generator": {
                "family": w["family"], "n_examples": w["n_examples"],
                "n_targets": len(TARGET_AFFINE), "noise_sd": w["noise_sd"],
                "target_affine": TARGET_AFFINE}}))
        setup_s.append(_run([sys.executable, "-m", "mtstream.cli", "generate", "--config",
                             str(gen_config), "--out", str(data_dir),
                             "--seed", str(stream_seed + d)], timeout))
    run_config = rep_dir / "run.json"
    run_config.write_text(json.dumps({
        "datasets": [{"name": name, "csv": str(data_dir / f"{name}.csv"),
                      "schema": str(data_dir / f"{name}.csv.schema.json")}
                     for name in names],
        "variants": w["variants"],
        "evaluation": {"window": 200, "warm_start": 200, "seeds": [stream_seed]}}))
    spec = {"run_config": str(run_config), "report_dir": str(report_dir),
            "jobs": w["jobs"], "trace": trace}
    res, proc_wall = _worker("matrix", spec, rep_dir, timeout)
    if res["exit_code"] != 0:
        raise RepFailure(f"mtstream run exited {res['exit_code']}")
    cells = res["cells"]
    n_cells = len(w["variants"]) * len(names)
    reports = sorted(report_dir.glob("*__*__seed*.csv"))
    if len(cells) != n_cells or len(reports) != n_cells:
        raise RepFailure(f"expected {n_cells} cells, got {len(cells)} results "
                         f"and {len(reports)} report files")
    if not (report_dir / "summary.csv").is_file():
        raise RepFailure("summary.csv missing")
    skeletons = {name: {c["skeleton_sha"] for c in cells if c["dataset"] == name}
                 for name in names}
    if any(len(shas) != 1 for shas in skeletons.values()):
        raise RepFailure("variants grew different skeletons on one stream")

    digest = hashlib.sha256()
    last_rows = []
    avg_bytes = 0.0
    for path in reports:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        digest.update(path.name.encode())
        for row in rows:
            digest.update(",".join(row[c] for c in REPORT_METRIC_COLUMNS).encode())
        last_rows.append(rows[-1])
        avg_bytes += statistics.fmean(int(row["model_bytes"]) for row in rows)
    csv_bytes = sum(int(r["model_bytes"]) for r in last_rows)
    csv_armse = statistics.fmean(float(r["cum_armse"]) for r in last_rows)
    if csv_bytes != sum(c["model_bytes"] for c in cells):
        raise RepFailure("report model_bytes differ from model_size_bytes()")
    for c in cells:
        if not math.isclose(c["armse_recomputed"], c["cum_armse"], rel_tol=1e-9):
            raise RepFailure("a cell's cum_armse differs from the recomputed one")
    for name in names:
        with open(data_dir / f"{name}.csv", "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())

    calls = sum(c["calls"] for c in cells)
    attempted = n_cells * w["n_examples"]
    failed = sum(c["nonfinite"] + c["rejected"] for c in cells) + (attempted - calls)
    rep = {
        "attempted": attempted, "failed": failed, "calls": calls,
        "wall_s": proc_wall, "proc_wall_s": proc_wall, "setup_s": setup_s,
        "examples_per_s": calls / proc_wall,
        "peak_rss_mb": res["peak_rss_mb"],
        "model_bytes": avg_bytes, "cum_armse": csv_armse,
        "fingerprint": [csv_armse, csv_bytes, sum(c["leaves"] for c in cells),
                        sorted(sha for shas in skeletons.values() for sha in shas),
                        digest.hexdigest()],
        "counters": {k: sum(c[k] for c in cells)
                     for k in ("leaves", "splits", "split_attempts", "rejected")},
        **_step_percentiles(rep_dir),
    }
    if trace:
        for c in cells:
            check_additive(c["layers"], c["wall_s"], "cell")
        launcher = res["launcher_layers"]
        check_additive(launcher, res["traced_wall_s"], "mtstream run")
        comps = {k: sum(c["bytes"][k] for c in cells) for k in cells[0]["bytes"]}
        check_bytes(comps, csv_bytes)
        layers = layer_metrics(cells)
        layers.update(bytes_metrics(comps))
        cell_s = sum(c["wall_s"] for c in cells)
        pool_s = launcher.get("cli.pool", [0.0, 0])[0]
        layers.update({
            "cli.cell_s": cell_s,
            "cli.pool_overhead_s": pool_s - cell_s / w["jobs"],
            "cli.report_write_s": launcher.get("cli.report_write", [0.0])[0],
            "cli.summary_s": launcher.get("cli.summary", [0.0])[0],
            "cli.import_s": res["import_s"],
            "cli.self_s": launcher.get("cli.run", [0.0])[0],
        })
        rep["layers"] = layers
        rep["missing"] = res["missing"]
    shutil.rmtree(data_dir)
    return rep


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer metrics from one or more traced runs' span totals."""
    totals: dict[str, list] = {}
    for res in results:
        for label, (self_s, calls) in res["layers"].items():
            acc = totals.setdefault(label, [0.0, 0])
            acc[0] += self_s
            acc[1] += calls
    examples = sum(res["calls"] for res in results)
    out = {name: 0.0 for name in LAYER_MOVES}
    for label, metric in SELF_TIME_METRICS.items():
        if label in totals:
            out[metric] += totals[label][0] * 1e6 / examples
    scans = totals.get("observers.scan", [0.0, 0])[1]
    out["observers.insert_calls"] = totals.get("observers.insert", [0.0, 0])[1]
    out["observers.scan_calls"] = scans
    out["observers.keys_per_scan"] = totals["_keys_scanned"][1] / scans if scans else 0.0
    out["streams.skipped_rows"] = totals["_skipped_rows"][1]
    for key in ("leaves", "splits", "split_attempts", "rejected"):
        out[f"tree.{key}"] = sum(res[key] for res in results)
    attempts = out["tree.split_attempts"]
    out["tree.split_yield"] = out["tree.splits"] / attempts if attempts else 0.0
    return out


def bytes_metrics(comps: dict) -> dict:
    return {"observers.bytes": comps["observers"], "stats.bytes": comps["stats"],
            "leaf_models.bytes": comps["leaf_models"], "tree.node_bytes": comps["node"]}


def check_additive(layers: dict, wall_s: float, what: str) -> None:
    covered = sum(v[0] for k, v in layers.items() if not k.startswith("_"))
    if abs(covered - wall_s) > 1e-3 * wall_s + 1e-4:
        raise RepFailure(f"{what}: layer self times sum to {covered:.6f} s, "
                         f"traced wall is {wall_s:.6f} s")


def check_bytes(comps: dict, model_bytes: int) -> None:
    if sum(comps.values()) != model_bytes:
        raise RepFailure(f"byte components {comps} do not sum to "
                         f"model_size_bytes() = {model_bytes}")


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def plan(w: dict, trace: bool):
    """Endless (stream index, traced) schedule for the repetitions: traced
    runs alternate with untraced ones on stream 0; untraced runs cycle over
    the streams, so run `streams` is the first rerun."""
    k = 0
    while True:
        yield (0, k % 2 == 1) if trace else (k % w["streams"], False)
        k += 1


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    w = WORKLOADS[name]
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    min_reps = 2 if trace else w["streams"]
    reps, calibration, errors, notes = [], [], [], []
    attempted = failed = 0
    fingerprints: dict[int, list] = {}
    started = time.monotonic()
    longest = 0.0
    for i, (index, traced) in enumerate(plan(w, trace)):
        elapsed = time.monotonic() - started
        rerun_done = trace or i > w["streams"]
        if i >= min_reps and elapsed + longest > seconds:
            if not rerun_done:
                notes.append(f"skipped the rerun check after {i} runs to stay inside --seconds")
            break
        if elapsed + longest > MAX_RUN_S:
            errors.append(f"stopped after {i} repetitions to stay inside {MAX_RUN_S:.0f} s")
            break
        stream_seed = seed * 100 + index * w.get("datasets", 1)
        rep_dir = run_dir / f"rep{i}"
        rep_dir.mkdir()
        calibration.append(calibrate_ms())
        t0 = time.monotonic()
        timeout = max(10.0, MAX_RUN_S - elapsed)
        n_attempt = w["n_examples"] * (1 if w["kind"] == "prequential"
                                       else len(w["variants"]) * w["datasets"])
        try:
            if w["kind"] == "prequential":
                rep = prequential_rep(w, stream_seed, traced, traced and i == 1, rep_dir, timeout)
            else:
                rep = matrix_rep(w, stream_seed, traced, rep_dir, timeout)
            first = fingerprints.setdefault(index, rep["fingerprint"])
            if rep["fingerprint"] != first:
                raise RepFailure(f"stream seed {stream_seed}: outputs {rep['fingerprint']} "
                                 f"differ from the first run's {first}")
        except (RepFailure, OSError, ValueError, KeyError) as exc:
            errors.append(f"rep {i} (stream seed {stream_seed}): {exc}")
            attempted += n_attempt
            failed += n_attempt
            longest = max(longest, time.monotonic() - t0)
            continue
        finally:
            (rep_dir / "steps.f64").unlink(missing_ok=True)
        rep.update(index=index, traced=traced, stream_seed=stream_seed)
        reps.append(rep)
        attempted += rep["attempted"]
        failed += rep["failed"]
        longest = max(longest, time.monotonic() - t0)
    return {"workload": name, "seed": seed, "trace": trace, "reps": reps,
            "calibration_ms": calibration, "errors": errors, "notes": notes,
            "attempted": attempted, "failed": failed,
            "seconds": time.monotonic() - started}


def percentile(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile of an ascending array."""
    k = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return float(sorted_values[k])


def end_to_end(run: dict) -> tuple[dict, dict]:
    """(metrics, sample counts) for an untraced run."""
    reps = run["reps"]
    per_stream = {}
    for rep in reps:
        per_stream.setdefault(rep["index"], rep)
    med = lambda key: statistics.median(rep[key] for rep in reps)  # noqa: E731
    metrics = {
        "examples_per_s": med("examples_per_s"),
        "matrix_wall_s": med("proc_wall_s"),
        "setup_s": statistics.median(x for rep in reps for x in rep["setup_s"]),
        "peak_rss_mb": med("peak_rss_mb"),
        "model_bytes": statistics.fmean(r["model_bytes"] for r in per_stream.values()),
        "cum_armse": statistics.fmean(r["cum_armse"] for r in per_stream.values()),
        "ok_ratio": 1.0 - run["failed"] / run["attempted"],
    }
    counts = {name: f"{len(reps)} runs" for name in metrics}
    counts["model_bytes"] = counts["cum_armse"] = f"{len(per_stream)} streams"
    counts["ok_ratio"] = f"{run['attempted']} examples"
    counts["setup_s"] = f"{sum(len(rep['setup_s']) for rep in reps)} set-ups"
    return metrics, counts


def per_layer(run: dict) -> tuple[dict, dict]:
    """(metrics, sample counts) for a traced run."""
    traced = [r for r in run["reps"] if r["traced"]]
    plain = [r for r in run["reps"] if not r["traced"]]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in LAYER_MOVES}
    metrics["tree.step_us_p50"] = statistics.median(r["step_us_p50"] for r in plain)
    metrics["tree.step_us_p999"] = statistics.median(r["step_us_p999"] for r in plain)
    wall_t = statistics.median(r["wall_s"] for r in traced)
    wall_u = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.wall_s"] = wall_t
    metrics["trace.untraced_wall_s"] = wall_u
    metrics["trace.overhead_pct"] = 100.0 * (wall_t - wall_u) / wall_u
    counts = {name: f"{len(traced)} traced runs" for name in metrics}
    for name in ("trace.untraced_wall_s", "tree.step_us_p50", "tree.step_us_p999"):
        counts[name] = f"{len(plain)} runs"
    return metrics, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "mtstream" / "__init__.py").is_file():
        print(f"error: no mtstream source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated benchmark still stops the processes it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    info = machine_info()
    run = run_workload(args.workload, args.seed, args.seconds, trace)
    correct = not run["errors"] and run["failed"] == 0 and bool(run["reps"])
    if trace:
        kinds = {r["traced"] for r in run["reps"]}
        correct = correct and kinds == {True, False}
        metrics, counts = per_layer(run) if kinds == {True, False} else ({}, {})
    else:
        metrics, counts = end_to_end(run) if run["reps"] else ({}, {})
    cal = sorted(run["calibration_ms"])

    units = {n: LAYER_MOVES[n][0] for n in LAYER_MOVES} if trace else \
        {n: END_TO_END[n][0] for n in END_TO_END}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(run['reps'])} runs in {run['seconds']:.1f} s")
    print(f"host  {info['cpu_model']}  nproc {info['nproc']}  python {info['python']}  "
          f"numpy {info['numpy']}  scipy {info['scipy']}")
    for name, value in metrics.items():
        note = f"  -> {LAYER_MOVES[name][1]}" if trace else ""
        print(f"  {name:<26s} {value:>16.6g} {units[name]:<6s} n={counts[name]}{note}")
    if cal:
        print(f"  {'calibration_ms':<26s} {statistics.median(cal):>16.6g} ms     "
              f"n={len(cal)} (min {cal[0]:.3g}, max {cal[-1]:.3g}; host speed, not divided out)")
    if not trace and run["reps"]:
        c = run["reps"][0]["counters"]
        print(f"  counters (first run): leaves {c['leaves']}, splits {c['splits']}, "
              f"split attempts {c['split_attempts']}, rejected {c['rejected']}")
    for rep in run["reps"]:
        if rep.get("missing"):
            print(f"  untraced layer boundaries (not found): {', '.join(rep['missing'])}")
            break
    for note in run["notes"]:
        print(f"  note: {note}")
    for err in run["errors"]:
        print(f"  CHECK FAILED: {err}")

    record = {"machine": info, "seed": args.seed, "workload": args.workload,
              "trace": args.trace, "calibration_ms": run["calibration_ms"],
              "runs": run["reps"],
              "errors": run["errors"], "metrics": metrics}
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"info": {**info, "seed": args.seed,
                               "calibration_ms_median": statistics.median(cal) if cal else None,
                               "record": str(result_path.relative_to(ROOT))}}))

    result = {"correct": correct, "attempted": max(run["attempted"], 1),
              "failed": run["failed"] if run["attempted"] else 1,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
