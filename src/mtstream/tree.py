"""Incremental multi-target regression tree.

One pass over the stream: each example routes to a single leaf, updates that
leaf's sufficient statistics and leaf predictors, joins the leaf's pending
block, and every `grace_period` examples the leaf folds the block into its
per-feature observers and asks the split engine whether its best candidate
is confidently ahead. Split decisions read only statistics and
observers - never leaf-model errors - so every variant grows the same tree
skeleton on the same stream.

Concurrency contract: `learn` needs exclusive access; `predict`, `serialize`
and `model_size_bytes` only read, and may run concurrently with each other.
Distinct trees are fully independent.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .leaf_models import LeafPredictorSet
from .observers import EBSTObserver, NominalObserver, ParentStats, moment_block
from .schema import (NOMINAL, SEED, Instance, Prediction, StreamSchema, Variant, check_settings,
                     setting)
from .splitting import MeritRatio, decide_split
from .stats import VectorStats

SERIAL_FORMAT = "mtstream-tree/2"
SKELETON_FORMAT = "mtstream-tree/1"  # split structure only: unchanged since /1

# Size accounting: every stored float/int/reference counts as one 8-byte slot.
NODE_BASE_SLOTS = 4  # kind tag, feature id, threshold, child count
LEAF_COUNTER_SLOTS = 3  # examples seen, ratio total + count

_NAN = math.nan  # a missing value in a leaf's pending feature buffer


@dataclass(frozen=True)
class TreeConfig:
    """Tree hyperparameters: `delta` is the confidence of the split bound,
    `tau` its tie-break threshold and `grace_period` the examples a leaf
    learns between split attempts; leaf weights start uniform in [-1, 1].
    The defaults are the benchmark settings. A value outside its declared
    kind or range raises ValueError here, not when a tree is built."""

    variant: Variant = setting(Variant, Variant.STACKED_ADAPTIVE)
    delta: float = setting(float, 1e-7, low=0.0, high=1.0, open=True)
    tau: float = setting(float, 0.05, low=0.0)
    grace_period: int = setting(int, 200, low=1)
    learning_rate: float = setting(float, 0.01, low=0.0, open=True)
    seed: int = setting(int, 0, **SEED)

    def __post_init__(self):
        check_settings(self, ValueError)


class SplitNode:
    __slots__ = ("feature", "threshold", "children")
    is_leaf = False

    def __init__(self, feature: int, threshold: float | None, children: list):
        self.feature = feature
        self.threshold = threshold  # None marks a nominal multiway node
        self.children = children


class LeafNode:
    """A leaf's statistics, observers and predictors, plus its pending block:
    the examples learned since the last fold, packed row by row into two
    float64 buffers (features with missing values as NaN and nominal indices
    as floats; targets). The leaf keeps no reference to a learned Instance."""

    __slots__ = ("stats", "observers", "predictors", "ratio",
                 "examples_seen", "pending_x", "pending_y")
    is_leaf = True

    def __init__(self, stats: VectorStats, observers: list,
                 predictors: LeafPredictorSet):
        self.stats = stats
        self.observers = observers
        self.predictors = predictors
        self.ratio = MeritRatio()
        self.examples_seen = 0
        self.pending_x = array("d")  # learned, not yet in the observers
        self.pending_y = array("d")

    def add_pending(self, features: tuple, targets: tuple) -> None:
        """Append one learned example to the pending block."""
        self.pending_x.fromlist([_NAN if v is None else v for v in features])
        self.pending_y.fromlist(list(targets))

    def fold_pending(self) -> None:
        """Fold the pending block into every observer, in arrival order.
        Missing values (NaN) never reach an observer; a feature without any
        passes its column and the block as they are."""
        if not self.pending_x:
            return
        values = np.frombuffer(self.pending_x).reshape(-1, len(self.observers))
        block = moment_block(np.frombuffer(self.pending_y).reshape(len(values), -1))
        present = values == values
        for obs, column, mask in zip(self.observers, values.T, present.T):
            if mask.all():
                obs.insert(column, block)
            elif mask.any():
                obs.insert(column[mask], block[mask])
        self.pending_x = array("d")
        self.pending_y = array("d")


class MultiTargetHoeffdingTree:
    """Incremental tree learner over a fixed stream schema."""

    def __init__(self, schema: StreamSchema, config: TreeConfig | None = None):
        self.schema = schema
        self.config = config or TreeConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self._numeric = tuple(schema.numeric_indices())
        # only linear leaf models read z-scores; mean leaves skip them
        self._standardize = self.config.variant.has_base_layer
        self.root: SplitNode | LeafNode = self._new_leaf()
        self.leaf_count = 1
        self.split_count = 0
        self.split_attempt_count = 0
        self.rejected_count = 0
        self.examples_learned = 0

    # -- leaf construction ------------------------------------------------

    def _new_observers(self) -> list:
        d = self.schema.n_targets
        return [NominalObserver(len(f.categories), d) if f.kind == NOMINAL else EBSTObserver(d)
                for f in self.schema.features]

    def _new_leaf(self) -> LeafNode:
        stats = VectorStats(self.schema.n_features, self._numeric,
                            self.schema.n_targets)
        predictors = LeafPredictorSet(
            self.config.variant, self.schema.n_features, self.schema.n_targets,
            self.config.learning_rate, self.rng)
        return LeafNode(stats, self._new_observers(), predictors)

    def _child_leaf(self, parent: LeafNode, seed_column) -> LeafNode:
        """Fresh leaf for one split branch: target statistics seeded from the
        winning suggestion's moment column, weights inherited from the
        parent, everything else starts over."""
        stats = VectorStats(self.schema.n_features, self._numeric,
                            self.schema.n_targets)
        stats.seed_targets(seed_column)
        return LeafNode(stats, self._new_observers(), parent.predictors.spawn_child())

    # -- routing -----------------------------------------------------------

    def route(self, instance: Instance) -> LeafNode:
        """Descend to the leaf responsible for `instance`. Missing numeric
        values go right, the side whose merit and seed statistics count them;
        missing or out-of-range nominal values go to the first child."""
        return self._descend(instance)[0]

    def _descend(self, instance: Instance):
        """(leaf, parent split node or None, the leaf's index among the
        parent's children) of the descent that `route` describes."""
        parent = None
        index = 0
        node = self.root
        features = instance.features
        while not node.is_leaf:
            v = features[node.feature]
            if node.threshold is not None:
                index = 1 if v is None or v > node.threshold else 0
            elif isinstance(v, int) and 0 <= v < len(node.children):
                index = v
            else:
                index = 0
            parent = node
            node = node.children[index]
        return node, parent, index

    # -- the learner contract ----------------------------------------------

    def predict(self, instance: Instance) -> Prediction:
        """Pure prediction: d finite values, no state change. Admission as in
        `learn`, but a non-finite numeric feature counts as missing."""
        return self._read(instance, self.schema.validate_instance(instance))

    def learn(self, instance: Instance) -> None:
        """Fold one example into exactly one leaf; attempt a split whenever
        that leaf's example count reaches a multiple of the grace period. An
        example that `StreamSchema.validate_instance` does not admit as
        learnable is counted in `rejected_count`, never learned."""
        self._learn_impl(instance, want_prediction=False)

    def predict_then_learn(self, instance: Instance) -> Prediction:
        """Prequential step: the returned prediction is exactly predict()'s,
        and the state change exactly learn()'s, but the shared pre-update
        work (admission, routing, standardization, candidates) runs once."""
        return self._learn_impl(instance, want_prediction=True)

    def _read(self, instance: Instance, learnable: bool) -> Prediction:
        """`predict` after admission; an example that is not `learnable` is
        read with its non-finite numeric features as missing."""
        if not learnable:
            instance = self.schema.nonfinite_as_missing(instance)
        leaf = self.route(instance)
        stats = leaf.stats
        x_std = stats.standardize_features(instance.features) if self._standardize else None
        predictors = leaf.predictors
        return predictors.select_from(predictors._candidates(x_std, stats))

    def _learn_impl(self, instance: Instance, want_prediction: bool):
        if not self.schema.validate_instance(instance):
            self.rejected_count += 1
            return self._read(instance, False) if want_prediction else None
        leaf, parent, child_index = self._descend(instance)
        features = instance.features
        y = instance.targets
        stats = leaf.stats
        predictors = leaf.predictors
        standardize = self._standardize

        # score predictors against the untouched leaf state (test-then-train)
        x_std = stats.standardize_features(features) if standardize else None
        candidates = predictors._candidates(x_std, stats)
        prediction = predictors.select_from(candidates) if want_prediction else None
        predictors.score_candidates(candidates, y)

        leaf.add_pending(features, y)  # folded at the next split attempt

        # one pass updates the statistics and, for linear leaves, returns the
        # standardized inputs and targets of the updated state
        scaled = stats.learn(features, y, standardize)
        if standardize:
            predictors.train(*scaled)

        leaf.examples_seen += 1
        self.examples_learned += 1
        if leaf.examples_seen % self.config.grace_period == 0:
            self.split_attempt_count += 1
            self._attempt_split(leaf, parent, child_index)
        return prediction

    # -- splitting -----------------------------------------------------------

    def _attempt_split(self, leaf: LeafNode, parent, child_index: int) -> bool:
        leaf.fold_pending()
        if leaf.stats.n_seen < 2:
            return False
        parent_stats = ParentStats(leaf.stats.moments())

        # rank features by their best candidate; the decision compares the
        # best feature against the runner-up feature
        per_feature = []
        for i, obs in enumerate(leaf.observers):
            if isinstance(obs, NominalObserver):
                best = obs.suggest(i, parent_stats)
            else:
                best = obs.best_splits(i, parent_stats)
            if best is not None:
                per_feature.append(best)
        if not per_feature:
            return False
        per_feature.sort(key=lambda s: (-s.merit, s.feature))
        best = per_feature[0]
        second = per_feature[1] if len(per_feature) > 1 else None

        winner = decide_split(best, second, leaf.ratio, self.config,
                              leaf.examples_seen)
        if winner is None:
            return False
        self._execute_split(leaf, winner, parent, child_index)
        return True

    def _execute_split(self, leaf: LeafNode, winner, parent, child_index: int) -> None:
        children = [self._child_leaf(leaf, seed) for seed in winner.child_stats]
        node = SplitNode(winner.feature, winner.threshold, children)
        if parent is None:
            self.root = node
        else:
            parent.children[child_index] = node
        self.split_count += 1
        self.leaf_count += len(children) - 1

    # -- accounting ----------------------------------------------------------

    def model_size_bytes(self) -> int:
        """Deterministic, platform-independent size accounting.

        Every stored float, count, or reference is one 8-byte slot:
        - any node: 4 base slots; split nodes add one slot per child link;
        - leaf statistics: 3 slots per target and per numeric feature;
        - observers: numeric, (2 + 2d) slots per folded distinct key;
          nominal, (1 + 2d) slots per declared category;
        - leaf models: one slot per weight; on an adaptive leaf, one faded
          numerator per target per selectable predictor plus one shared
          denominator; 3 counter slots.

        A leaf's pending block (at most `grace_period` rows, folded at every
        split attempt) is not counted.
        """
        total_slots = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total_slots += NODE_BASE_SLOTS
            if not node.is_leaf:
                total_slots += len(node.children)
                stack.extend(node.children)
                continue
            total_slots += 3 * self.schema.n_targets
            total_slots += 3 * len(self._numeric)
            for obs in node.observers:
                total_slots += obs.memory_slots()
            total_slots += node.predictors.weight_slots()
            total_slots += node.predictors.fade_slots()
            total_slots += LEAF_COUNTER_SLOTS
        return total_slots * 8

    # -- serialization ---------------------------------------------------------

    def to_dict(self, include_leaf_state: bool = True) -> dict:
        """Self-describing tree snapshot. With `include_leaf_state=False` only
        the skeleton (split structure) is captured, which is identical across
        variants trained on the same stream - so the skeleton form carries no
        variant tag. A leaf is written as stored, its pending rows included
        (missing values as None), so a snapshot changes nothing."""
        doc = {
            "format": SERIAL_FORMAT if include_leaf_state else SKELETON_FORMAT,
            "n_features": self.schema.n_features,
            "n_targets": self.schema.n_targets,
            "leaf_count": self.leaf_count,
            "split_count": self.split_count,
            "root": _node_dict(self.root, include_leaf_state),
        }
        if include_leaf_state:
            doc["variant"] = self.config.variant.value
        return doc

    def serialize(self, include_leaf_state: bool = True) -> str:
        """Canonical textual form of `to_dict`: stable key order, shortest
        round-trip float repr. Byte-identical for identical tree state."""
        return json.dumps(self.to_dict(include_leaf_state), sort_keys=True,
                          separators=(",", ":"))

    def serialize_skeleton(self) -> str:
        return self.serialize(include_leaf_state=False)


def _node_dict(node, include_leaf_state: bool) -> dict:
    if not node.is_leaf:
        return {
            "kind": "split",
            "feature": node.feature,
            "threshold": node.threshold,
            "children": [_node_dict(c, include_leaf_state) for c in node.children],
        }
    if not include_leaf_state:
        return {"kind": "leaf"}
    return {
        "kind": "leaf",
        "examples_seen": node.examples_seen,
        "ratio": node.ratio.state(),
        "stats": node.stats.state(),
        "predictors": node.predictors.state(),
        "observers": [obs.dump() for obs in node.observers],
        "pending_x": [None if v != v else v for v in node.pending_x],
        "pending_y": node.pending_y.tolist(),
    }
