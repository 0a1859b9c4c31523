"""The benchmark's traced layer boundaries still name code that exists.

`perfbench/hooks.py` wraps the first attribute of each `TRACE_POINTS` entry
that it finds on its owner and reports the rest as "not found", so a rename
in the package would silently drop a layer from traced runs. This test reads
that table (it installs nothing) and checks every entry against the
imported package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import mtstream.cli  # noqa: F401  (imports every module the table names)

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"

# Replaced by VectorStats.learn, which the table does not trace yet.
STALE = {
    ("stats", "VectorStats", "standardize_targets"),
    ("stats", "VectorStats", "update_targets"),
    ("stats", "VectorStats", "update_feature"),
}


def trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    return hooks.TRACE_POINTS


def test_every_trace_point_resolves():
    missing = set()
    for module_name, owner_name, candidates, _ in trace_points():
        module = importlib.import_module(f"mtstream.{module_name}")
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None or not any(name in vars(owner) for name in candidates):
            missing.add((module_name, owner_name, candidates[0]))
    assert missing <= STALE


def test_cells_iterate_a_traced_stream_class(tmp_path, monkeypatch):
    """The benchmark times each example a cell draws by wrapping `__iter__`
    on the classes that `mtstream.streams` defines; a stream class kept
    elsewhere, or one that inherits `__iter__`, would book that time
    silently as evaluation self time."""
    import json

    from mtstream import cli, streams

    sources = []
    run_cell = cli._run_cell
    monkeypatch.setattr(cli, "_run_cell",
                        lambda payload: sources.append(payload["source"]) or run_cell(payload))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "datasets": [{"name": "toy", "generator": {
            "family": "plane_mt", "n_examples": 150, "n_targets": 1, "seed": 2}}],
        "variants": ["mean"],
        "evaluation": {"window": 50, "warm_start": 50, "seeds": [0]}}))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--jobs", "1"]) == 0
    assert sources
    for source in sources:
        cls = type(source)
        assert cls.__module__ == streams.__name__
        assert vars(streams)[cls.__name__] is cls
        assert "__iter__" in vars(cls)
        assert hasattr(source, "skipped_rows")
