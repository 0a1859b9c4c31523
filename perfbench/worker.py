"""One repetition of a benchmark workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand. Usage:

    worker.py prequential SPEC_JSON OUT_JSON
    worker.py matrix SPEC_JSON OUT_JSON

``prequential`` runs ``run_prequential`` over one generated stream in this
process. ``matrix`` runs ``mtstream run`` through ``mtstream.cli.main`` in
this process, so its pool workers are this process's children. SPEC_JSON
carries the checkout root, the workload settings, the stream seed, the trace
flag and the monotonic time at which the parent started this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path


def _import_mtstream(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import mtstream

    if Path(mtstream.__file__).resolve().parent != (src / "mtstream").resolve():
        raise SystemExit(f"mtstream was imported from {mtstream.__file__}, not from {src}")
    return mtstream


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_prequential_rep(spec: dict) -> dict:
    mtstream = _import_mtstream(Path(spec["root"]))
    from mtstream import evaluation

    import hooks

    probe = hooks.install(spec["trace"])
    seed = spec["stream_seed"]
    source = mtstream.make_stream(mtstream.GeneratorSpec(
        family=spec["family"], n_examples=spec["n_examples"],
        n_targets=len(spec["target_affine"]), noise_sd=spec["noise_sd"], seed=seed,
        target_affine=tuple(map(tuple, spec["target_affine"]))))
    tree_config = mtstream.TreeConfig(variant=mtstream.Variant(spec["variant"]))
    preq = mtstream.PrequentialConfig(window=200, warm_start=200, seeds=(seed,))

    tr = probe.tracer
    root = tr.open("run") if tr is not None else None
    t0 = time.perf_counter()
    report = evaluation.run_prequential(source, tree_config, preq, seed=seed)
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "setup_s": probe.first_learned - spec["spawned_at"]}
    if tr is not None:
        tr.close(root)
        out["layers"] = probe.layer_totals()
        out["bytes"] = hooks.component_bytes(probe.tree)
        out["missing"] = probe.missing
        if spec["dump_spans"]:
            tr.dump(Path(spec["out_dir"]) / "spans.npz")
    out.update(probe.outputs())
    out["cum_armse"] = report.cum_armse
    out["report_model_bytes"] = report.final_model_bytes
    out["avg_model_bytes"] = sum(r.model_bytes for r in report.rows) / len(report.rows)
    out["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    _save_steps(spec, probe.steps)
    return out


def run_matrix_rep(spec: dict) -> dict:
    t_start = time.perf_counter()
    root = Path(spec["root"])
    import hooks

    os.environ[hooks.TRACE_ENV] = "1" if spec["trace"] else "0"
    tracer = hooks.Tracer() if spec["trace"] else None
    t_top = time.perf_counter()
    top = tracer.open("cli.run") if tracer is not None else None
    imp = tracer.open("cli.import") if tracer is not None else None
    t_import = time.perf_counter()
    _import_mtstream(root)
    from mtstream import cli

    import_s = time.perf_counter() - t_import
    if tracer is not None:
        tracer.close(imp)
    probe = hooks.install(spec["trace"], tracer)
    code = cli.main(["run", "--config", spec["run_config"], "--out", spec["report_dir"],
                     "--jobs", str(spec["jobs"])])
    out = {"exit_code": code, "import_s": import_s,
           "main_s": time.perf_counter() - t_start,
           "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN)}
    if tracer is not None:
        tracer.close(top)
        out["traced_wall_s"] = time.perf_counter() - t_top
        out["launcher_layers"] = {k: list(v) for k, v in tracer.self_times().items()}
        out["missing"] = probe.missing
    steps = array("d")
    for cell in probe.cells:
        steps.extend(cell.pop("steps"))
    out["cells"] = probe.cells
    _save_steps(spec, steps)
    return out


def _save_steps(spec: dict, steps) -> None:
    with open(Path(spec["out_dir"]) / "steps.f64", "wb") as fh:
        steps.tofile(fh)


def main(argv) -> int:
    mode, spec_json, out_json = argv
    spec = json.loads(spec_json)
    if mode == "prequential":
        result = run_prequential_rep(spec)
    else:
        result = run_matrix_rep(spec)
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
