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
import json
from collections import Counter
from pathlib import Path

import pytest

from mtstream import cli, evaluation  # cli imports every module the table names
from mtstream.schema import Variant
from mtstream.streams import GeneratorSpec, StoredStream, make_stream
from mtstream.tree import MultiTargetHoeffdingTree, TreeConfig

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"

# Replaced by VectorStats.learn, which the table does not trace yet.
STALE = {
    ("stats", "VectorStats", "standardize_targets"),
    ("stats", "VectorStats", "update_targets"),
    ("stats", "VectorStats", "update_feature"),
}


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    return hooks


def trace_points():
    return load_hooks().TRACE_POINTS


def resolved_points():
    """Yield `(entry, owner, attr)` for each `TRACE_POINTS` entry, resolved as
    the benchmark's tracer does: the first candidate found in the owner's own
    namespace, or `attr` None when none is."""
    for entry in trace_points():
        module_name, owner_name, candidates, _ = entry
        module = importlib.import_module(f"mtstream.{module_name}")
        owner = module if owner_name is None else getattr(module, owner_name, None)
        attr = next((a for a in candidates if owner is not None and a in vars(owner)), None)
        yield entry, owner, attr


def test_every_trace_point_resolves():
    missing = {(module_name, owner_name, candidates[0])
               for (module_name, owner_name, candidates, _), _, attr in resolved_points()
               if attr is None}
    assert missing <= STALE


def test_every_traced_layer_runs(tmp_path, monkeypatch):
    """Every layer the benchmark traces is reached by the runs it times: a
    traced point on code that no run calls would read 0 and book the work
    that replaced it under its caller's self time. Each resolving entry is
    wrapped with a counter here; nothing from the benchmark is installed."""
    reached = Counter()
    labels = set()
    for (*_, label), owner, attr in resolved_points():
        if attr is None:
            continue
        labels.add(label)

        def counted(*args, _fn=getattr(owner, attr), _label=label, **kwargs):
            reached[_label] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    generator = {"family": "mv_like", "n_examples": 1500, "n_targets": 2, "seed": 5}
    evaluation.run_prequential(
        make_stream(GeneratorSpec(**generator)),
        TreeConfig(variant=Variant.STACKED_ADAPTIVE, grace_period=100),
        evaluation.PrequentialConfig(window=250, warm_start=250))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "datasets": [{"name": "mv", "generator": {**generator, "n_examples": 300}}],
        "variants": ["mean", "stacked_adaptive"],
        "tree": {"grace_period": 100},
        "evaluation": {"window": 100, "warm_start": 100, "seeds": [0]}}))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--jobs", "1"]) == 0
    assert sorted(labels - set(reached)) == []


def test_cells_iterate_a_traced_stream_class(tmp_path, monkeypatch):
    """The benchmark times each example a cell draws, or that a prequential
    run draws straight from `make_stream`, by wrapping `__iter__` on the
    classes that `mtstream.streams` defines; a stream class kept elsewhere,
    or one that inherits `__iter__`, would book that time silently as
    evaluation self time."""
    import json

    from mtstream import cli, streams

    def assert_traced(source):
        cls = type(source)
        assert cls.__module__ == streams.__name__
        assert vars(streams)[cls.__name__] is cls
        assert "__iter__" in vars(cls)

    for family in ("friedman_mt", "plane_mt", "mv_like"):
        assert_traced(make_stream(GeneratorSpec(family=family, n_examples=10)))
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
        assert_traced(source)
        assert hasattr(source, "skipped_rows")


@pytest.mark.parametrize("family", ["friedman_mt", "mv_like"])
def test_component_bytes_sum_to_the_model_size(family):
    """The benchmark splits `model_size_bytes()` by component with its own
    walk of the tree; the parts must add up to the whole, on trees with
    splits and with pending rows."""
    component_bytes = load_hooks().component_bytes
    stream = StoredStream(make_stream(GeneratorSpec(family=family, n_examples=3050, seed=13)))
    for variant in Variant:
        tree = MultiTargetHoeffdingTree(stream.schema, TreeConfig(
            variant=variant, grace_period=100, seed=13))
        for inst in stream:
            tree.learn(inst)
        nodes, pending = [tree.root], 0
        while nodes:
            node = nodes.pop()
            if node.is_leaf:
                pending += len(node.pending_y)
            else:
                nodes.extend(node.children)
        assert tree.split_count > 0 and pending > 0
        assert sum(component_bytes(tree).values()) == tree.model_size_bytes()
