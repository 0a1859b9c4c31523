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
