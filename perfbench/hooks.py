"""Instrumentation that the benchmark installs into mtstream from outside.

Nothing under ``src/`` knows about it: every hook replaces a class or module
attribute of an already-imported mtstream module with a wrapper. Two levels:

* the step timer (always on) wraps ``MultiTargetHoeffdingTree.learn`` and
  ``predict_then_learn``. It times each prequential step, keeps the
  predictions and targets for the output checks, notes when the first example
  was learned (the end of set-up) and remembers the tree;
* the tracer (``--trace 1`` only) records one span per call at the layer
  boundaries listed in ``TRACE_POINTS``. Spans live in flat arrays in memory;
  self time is a span's duration minus the durations of its direct children.

Matrix cells run in the CLI's worker processes. ``run_cell`` replaces
``mtstream.cli._run_cell``; it is a module-level function, so the pool
pickles it by reference, and it sends the cell's numbers back to the parent
attached to the report the cell returns.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from array import array

import numpy as np

TRACE_ENV = "PERFBENCH_TRACE"

# (module, class or None for a module function, candidate attribute names,
# span label). The first candidate that exists is wrapped, so a later rename
# of a twin method keeps its layer traced. ``learn`` and ``predict_then_learn``
# get the "tree.step" label together with the step timer.
TRACE_POINTS = (
    ("schema", "StreamSchema", ("validate_instance",), "schema.validate"),
    ("schema", "StreamSchema", ("targets_finite",), "schema.validate"),
    ("stats", "VectorStats", ("standardize_features",), "stats.standardize"),
    ("stats", "VectorStats", ("standardize_targets",), "stats.standardize"),
    ("stats", "VectorStats", ("update_targets",), "stats.update"),
    ("stats", "VectorStats", ("update_feature",), "stats.update"),
    ("leaf_models", "LeafPredictorSet", ("_candidates", "candidates"), "leaf_models.predict"),
    ("leaf_models", "LeafPredictorSet", ("select_from", "select_and_predict"), "leaf_models.select"),
    ("leaf_models", "LeafPredictorSet", ("score_candidates", "score"), "leaf_models.score"),
    ("leaf_models", "LeafPredictorSet", ("train",), "leaf_models.train"),
    ("observers", "EBSTObserver", ("insert_row", "insert"), "observers.insert"),
    ("observers", "NominalObserver", ("insert_row", "insert"), "observers.insert"),
    ("observers", "EBSTObserver", ("best_splits",), "observers.scan"),
    ("observers", "NominalObserver", ("suggest",), "observers.scan"),
    ("tree", None, ("decide_split",), "splitting.decide"),
    ("tree", "MultiTargetHoeffdingTree", ("model_size_bytes",), "tree.size_walk"),
    ("evaluation", None, ("run_prequential",), "evaluation"),
    ("cli", None, ("run_prequential",), "evaluation"),
    ("cli", None, ("write_report_csv",), "cli.report_write"),
    ("cli", None, ("_write_summary",), "cli.summary"),
)
SCAN_LABEL = "observers.scan"
STREAM_LABEL = "streams.next"


class Tracer:
    """In-memory span recorder: label, parent, start, end per span."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.label = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cur = -1
        self.keys_scanned = 0
        self.skipped_rows = 0

    def label_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.labels)
            self.labels.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.label.append(self.label_id(name))
        self.parent.append(self.cur)
        self.end.append(0.0)
        self.cur = i
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.cur = self.parent[i]

    def wrap(self, fn, name: str, probe=None):
        nid = self.label_id(name)
        tr = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(tr.start)
            tr.label.append(nid)
            tr.parent.append(tr.cur)
            tr.end.append(0.0)
            prev = tr.cur
            tr.cur = i
            if probe is not None:
                tr.keys_scanned += probe(args[0])
            tr.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[i] = clock()
                tr.cur = prev

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict:
        """{label: (self seconds, calls)} over every recorded span."""
        n = len(self.start)
        if n == 0:
            return {}
        label = np.frombuffer(self.label, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = np.bincount(label, weights=dur - child, minlength=len(self.labels))
        calls = np.bincount(label, minlength=len(self.labels))
        return {name: (float(own[k]), int(calls[k]))
                for k, name in enumerate(self.labels) if calls[k]}

    def dump(self, path) -> None:
        """Write the raw spans as a numpy archive."""
        np.savez(
            path, labels=np.array(self.labels),
            label=np.frombuffer(self.label, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


class _TimedIter:
    """Iterator proxy: one span per example drawn from a stream."""

    __slots__ = ("it", "tracer", "source")

    def __init__(self, it, tracer, source):
        self.it = it
        self.tracer = tracer
        self.source = source

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        i = tr.open(STREAM_LABEL)
        try:
            return next(self.it)
        except StopIteration:
            tr.skipped_rows += getattr(self.source, "skipped_rows", 0)
            raise
        finally:
            tr.close(i)


class Probe:
    """Per-process measurement state; `reset` starts a new run or cell."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = None
        self.reset()
        self.tracer = tracer  # keeps any spans the caller already opened
        self.missing: list[str] = []
        self.cells: list[dict] = []

    def reset(self) -> None:
        self.steps = array("d")
        self.preds = array("d")
        self.targets = array("d")
        self.learned = 0
        self.first_learned = None
        self.tree = None
        if self.tracer is not None:
            self.tracer.reset()

    # -- results -----------------------------------------------------------

    def outputs(self) -> dict:
        """Outputs of the run since `reset`, and the checks on them."""
        tree = self.tree
        steps = np.frombuffer(self.steps, dtype=np.float64)
        d = tree.schema.n_targets
        preds = np.frombuffer(self.preds, dtype=np.float64).reshape(-1, d)
        targets = np.frombuffer(self.targets, dtype=np.float64).reshape(-1, d)
        finite_rows = np.isfinite(preds).all(axis=1)
        scored = np.isfinite(targets).all(axis=1)
        sq = ((targets[scored] - preds[scored]) ** 2).sum(axis=0)
        n_scored = int(scored.sum())
        armse = float(np.mean(np.sqrt(sq / n_scored))) if n_scored else 0.0
        return {
            "calls": self.learned + len(steps),
            "nonfinite": int((~finite_rows).sum()),
            "armse_recomputed": armse,
            "model_bytes": tree.model_size_bytes(),
            "leaves": tree.leaf_count,
            "splits": tree.split_count,
            "split_attempts": tree.split_attempt_count,
            "rejected": tree.rejected_count,
            "skeleton_sha": hashlib.sha256(tree.serialize_skeleton().encode()).hexdigest(),
        }

    def layer_totals(self) -> dict:
        """Self time and calls per span label, plus the scan-key counter."""
        tr = self.tracer
        totals = {name: list(v) for name, v in tr.self_times().items()}
        totals["_keys_scanned"] = [0.0, tr.keys_scanned]
        totals["_skipped_rows"] = [0.0, tr.skipped_rows]
        return totals


def component_bytes(tree) -> dict:
    """Split `model_size_bytes()` by component, walking the tree from outside
    with the slot formula documented on that method (8 bytes per slot)."""
    from mtstream import tree as tree_mod

    base = getattr(tree_mod, "NODE_BASE_SLOTS", 4)
    counters = getattr(tree_mod, "LEAF_COUNTER_SLOTS", 4)
    d = tree.schema.n_targets
    n_numeric = len(tree.schema.numeric_indices())
    slots = {"observers": 0, "stats": 0, "leaf_models": 0, "node": 0}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        slots["node"] += base
        if not node.is_leaf:
            slots["node"] += len(node.children)
            stack.extend(node.children)
            continue
        slots["node"] += counters
        slots["stats"] += 3 * d + 3 * n_numeric
        slots["observers"] += sum(obs.memory_slots() for obs in node.observers)
        slots["leaf_models"] += node.predictors.weight_slots() + node.predictors.fade_slots()
    return {k: 8 * v for k, v in slots.items()}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

ACTIVE: Probe | None = None
_ORIGINAL_RUN_CELL = None


def install(trace: bool, tracer: Tracer | None = None) -> Probe:
    """Patch the imported mtstream modules; idempotent per process. Spans go
    to `tracer`, or to a new one, when `trace` is set."""
    global ACTIVE, _ORIGINAL_RUN_CELL
    if ACTIVE is not None:
        return ACTIVE
    from mtstream import tree as tree_mod

    probe = Probe((tracer or Tracer()) if trace else None)
    if trace:
        _install_tracer(probe)
    _install_step_timer(probe, tree_mod.MultiTargetHoeffdingTree)
    cli = sys.modules.get("mtstream.cli")
    if cli is not None:
        _ORIGINAL_RUN_CELL = cli._run_cell
        cli._run_cell = run_cell
        cli.write_report_csv = _harvesting(cli.write_report_csv, probe)
    ACTIVE = probe
    return probe


def _install_step_timer(probe: Probe, cls) -> None:
    inner_ptl = cls.predict_then_learn
    inner_learn = cls.learn
    clock = time.perf_counter

    def timed_ptl(tree, instance):
        t0 = clock()
        prediction = inner_ptl(tree, instance)
        probe.steps.append(clock() - t0)
        probe.preds.extend(prediction.values)
        probe.targets.extend(instance.targets)
        return prediction

    def counted_learn(tree, instance):
        inner_learn(tree, instance)
        probe.learned += 1
        if probe.first_learned is None:
            probe.first_learned = time.monotonic()
            probe.tree = tree

    if probe.tracer is not None:
        cls.predict_then_learn = probe.tracer.wrap(timed_ptl, "tree.step")
        cls.learn = probe.tracer.wrap(counted_learn, "tree.step")
    else:
        cls.predict_then_learn = timed_ptl
        cls.learn = counted_learn


def _install_tracer(probe: Probe) -> None:
    tr = probe.tracer
    for module_name, owner_name, candidates, label in TRACE_POINTS:
        module = sys.modules.get(f"mtstream.{module_name}")
        if module is None:
            continue  # e.g. the CLI in a single-process run
        owner = module if owner_name is None else getattr(module, owner_name, None)
        attr = next((a for a in candidates if owner is not None
                     and a in vars(owner)), None)
        if attr is None:
            probe.missing.append(f"{module_name}.{owner_name or ''}.{candidates[0]}")
            continue
        probe_fn = _distinct_keys if label == SCAN_LABEL else None
        setattr(owner, attr, tr.wrap(getattr(owner, attr), label, probe_fn))
    from mtstream import streams

    for cls in vars(streams).values():
        if isinstance(cls, type) and "__iter__" in vars(cls) and cls.__module__ == streams.__name__:
            cls.__iter__ = _traced_iter(cls.__iter__, tr)
    cli = sys.modules.get("mtstream.cli")
    if cli is not None:
        cli.ProcessPoolExecutor = _traced_pool(cli.ProcessPoolExecutor, tr)


def _distinct_keys(observer) -> int:
    keys = getattr(observer, "distinct_keys", None)
    if keys is None:
        keys = getattr(observer, "observed_categories", 0)
    return keys


def _traced_iter(orig_iter, tr):
    def __iter__(source):
        return _TimedIter(orig_iter(source), tr, source)
    return __iter__


def _traced_pool(base, tr):
    class TracedPool(base):
        def __enter__(self):
            self._perfbench_span = tr.open("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tr.close(self._perfbench_span)

    return TracedPool


def _harvesting(write_report_csv, probe: Probe):
    """Collect the numbers a worker attached to each report before the CLI
    writes it."""
    def write(report, path):
        cell = getattr(report, "_perfbench", None)
        if cell is not None:
            probe.cells.append(cell)
        return write_report_csv(report, path)
    return write


def run_cell(payload):
    """Stand-in for ``mtstream.cli._run_cell`` inside a pool worker. A forked
    worker inherits the parent's hooks; a spawned one installs its own."""
    if ACTIVE is None:
        import mtstream.cli  # noqa: F401  (install patches the imported CLI)
    probe = ACTIVE or install(os.environ.get(TRACE_ENV) == "1")
    probe.reset()
    tr = probe.tracer
    root = tr.open("cell") if tr is not None else None
    t0 = time.perf_counter()
    report = _ORIGINAL_RUN_CELL(payload)
    wall = time.perf_counter() - t0
    cell = {"wall_s": wall, "dataset": payload["dataset"]["name"]}
    if tr is not None:
        tr.close(root)
        cell["layers"] = probe.layer_totals()
        cell["bytes"] = component_bytes(probe.tree)
    cell.update(probe.outputs())
    cell["cum_armse"] = report.cum_armse
    cell["steps"] = probe.steps
    report._perfbench = cell
    return report

