"""Incremental multi-target regression tree.

One pass over the stream: each example routes to a single leaf, updates that
leaf's sufficient statistics and leaf predictors, joins the leaf's pending
block, and every `grace_period` examples the leaf folds the block into its
per-feature observers and asks the split engine whether its best candidate
is confidently ahead. Split decisions read only statistics and
observers - never leaf-model errors - so every variant grows the same tree
skeleton on the same stream.

Concurrency contract: a tree is single-writer (learn needs exclusive access,
and so does serialize, which folds the pending blocks first); predict is
read-only and may run concurrently with other predicts. Distinct trees are
fully independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .leaf_models import LeafPredictorSet
from .observers import EBSTObserver, NominalObserver, moment_block
from .schema import NOMINAL, Instance, Prediction, StreamSchema, Variant
from .splitting import HoeffdingParams, MeritRatio, decide_split
from .stats import RunningStats, VectorStats

SERIAL_FORMAT = "mtstream-tree/1"

# Size accounting: every stored float/int/reference counts as one 8-byte slot.
NODE_BASE_SLOTS = 4  # kind tag, feature id, threshold, child count
LEAF_COUNTER_SLOTS = 4  # examples seen, attempt counter, ratio total + count


@dataclass(frozen=True)
class TreeConfig:
    """Tree hyperparameters. Defaults are the benchmark settings: split
    attempts every 200 examples, confidence 1e-7, tie-break 0.05, learning
    rate 0.01, 200 warm-start examples, weights drawn uniformly from [-1, 1].
    """

    variant: Variant = Variant.STACKED_ADAPTIVE
    delta: float = 1e-7
    tau: float = 0.05
    grace_period: int = 200
    learning_rate: float = 0.01
    warm_start: int = 200
    seed: int = 0

    def hoeffding_params(self) -> HoeffdingParams:
        return HoeffdingParams(delta=self.delta, tau=self.tau,
                               grace_period=self.grace_period)


class SplitNode:
    __slots__ = ("feature", "threshold", "children")

    def __init__(self, feature: int, threshold: float | None, children: list):
        self.feature = feature
        self.threshold = threshold  # None marks a nominal multiway node
        self.children = children

    @property
    def is_leaf(self) -> bool:
        return False


class LeafNode:
    __slots__ = ("stats", "observers", "predictors", "ratio",
                 "examples_seen", "since_attempt", "pending")

    def __init__(self, stats: VectorStats, observers: list,
                 predictors: LeafPredictorSet):
        self.stats = stats
        self.observers = observers
        self.predictors = predictors
        self.ratio = MeritRatio()
        self.examples_seen = 0
        self.since_attempt = 0
        self.pending: list[Instance] = []  # learned, not yet in the observers

    @property
    def is_leaf(self) -> bool:
        return True

    def fold_pending(self) -> None:
        """Fold the pending block into every observer, in arrival order.
        Missing values (None, read as NaN) never reach an observer."""
        pending = self.pending
        if not pending:
            return
        block = moment_block([inst.targets for inst in pending])
        values = np.array([inst.features for inst in pending], dtype=float)
        present = values == values
        for obs, column, mask, full in zip(self.observers, values.T, present.T,
                                           present.all(axis=0).tolist()):
            if full:
                obs.fold(column, block)
            elif mask.any():
                obs.fold(column[mask], block[mask])
        self.pending = []


class MultiTargetHoeffdingTree:
    """Incremental tree learner over a fixed stream schema."""

    def __init__(self, schema: StreamSchema, config: TreeConfig | None = None):
        self.schema = schema
        self.config = config or TreeConfig()
        self.params = self.config.hoeffding_params()
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
        obs = []
        for i, f in enumerate(self.schema.features):
            if f.kind == NOMINAL:
                obs.append(NominalObserver(len(f.categories), self.schema.n_targets))
            else:
                obs.append(EBSTObserver(self.schema.n_targets))
        return obs

    def _new_leaf(self) -> LeafNode:
        stats = VectorStats(self.schema.n_features, self._numeric,
                            self.schema.n_targets)
        predictors = LeafPredictorSet(
            self.config.variant, self.schema.n_features, self.schema.n_targets,
            self.config.learning_rate, self.rng)
        return LeafNode(stats, self._new_observers(), predictors)

    def _child_leaf(self, parent: LeafNode, seed_stats) -> LeafNode:
        """Fresh leaf for one split branch: target statistics seeded from the
        winning suggestion, weights inherited from the parent, everything else
        starts over."""
        stats = VectorStats(self.schema.n_features, self._numeric,
                            self.schema.n_targets)
        cnt, sums, sumsqs = seed_stats
        if cnt > 0:
            stats.targets = [
                RunningStats.from_moments(cnt, sums[t], sumsqs[t])
                for t in range(self.schema.n_targets)
            ]
        return LeafNode(stats, self._new_observers(), parent.predictors.spawn_child())

    # -- routing -----------------------------------------------------------

    def route(self, instance: Instance) -> LeafNode:
        """Descend to the leaf responsible for `instance`. Missing numeric
        values go left; missing or out-of-range nominal values go to the
        first child."""
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
                index = 0 if v is None or v <= node.threshold else 1
            elif isinstance(v, int) and 0 <= v < len(node.children):
                index = v
            else:
                index = 0
            parent = node
            node = node.children[index]
        return node, parent, index

    # -- the learner contract ----------------------------------------------

    def predict(self, instance: Instance) -> Prediction:
        """Pure prediction: d finite values, no state change. Non-finite
        numeric features count as missing."""
        self.schema.validate_instance(instance)
        instance = self.schema.nonfinite_as_missing(instance)
        leaf = self.route(instance)
        stats = leaf.stats
        x_std = stats.standardize_features(instance.features) if self._standardize else None
        predictors = leaf.predictors
        return predictors.select_from(predictors._candidates(x_std, stats))

    def learn(self, instance: Instance) -> None:
        """Fold one example into exactly one leaf; attempt a split when that
        leaf's counter reaches the grace period. Examples with a non-finite
        target or numeric feature are rejected and counted, never learned."""
        self._learn_impl(instance, want_prediction=False)

    def predict_then_learn(self, instance: Instance) -> Prediction:
        """Prequential step: the returned prediction is exactly predict()'s,
        and the state change exactly learn()'s, but the shared pre-update
        work (routing, standardization, candidate predictions) runs once."""
        return self._learn_impl(instance, want_prediction=True)

    def _learn_impl(self, instance: Instance, want_prediction: bool):
        schema = self.schema
        schema.validate_instance(instance)
        if not (schema.targets_finite(instance) and schema.features_finite(instance)):
            self.rejected_count += 1
            return self.predict(instance) if want_prediction else None
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

        observers = leaf.observers
        for i in self._numeric:
            v = features[i]
            if v is not None:
                observers[i].seen.add(v)
        leaf.pending.append(instance)  # folded at the next split attempt

        # one pass updates the statistics and, for linear leaves, returns the
        # standardized inputs and targets of the updated state
        scaled = stats.learn(features, y, standardize)
        if standardize:
            predictors.train(*scaled)

        leaf.examples_seen += 1
        leaf.since_attempt += 1
        self.examples_learned += 1
        if leaf.since_attempt >= self.params.grace_period:
            leaf.since_attempt = 0
            self.split_attempt_count += 1
            self._attempt_split(leaf, parent, child_index)
        return prediction

    # -- splitting -----------------------------------------------------------

    def _parent_triple(self, leaf: LeafNode):
        targets = leaf.stats.targets
        return (
            float(targets[0].n),
            tuple(rs.sum for rs in targets),
            tuple(rs.sum_sq for rs in targets),
        )

    def _attempt_split(self, leaf: LeafNode, parent, child_index: int) -> bool:
        leaf.fold_pending()
        parent_triple = self._parent_triple(leaf)
        if parent_triple[0] < 2:
            return False

        # rank features by their best candidate; the decision compares the
        # best feature against the runner-up feature
        per_feature = []
        for i, obs in enumerate(leaf.observers):
            if isinstance(obs, NominalObserver):
                best = obs.suggest(i, parent_triple)
            else:
                best, _ = obs.best_splits(i, parent_triple)
            if best is not None:
                per_feature.append(best)
        if not per_feature:
            return False
        per_feature.sort(key=lambda s: (-s.merit, s.feature))
        best = per_feature[0]
        second = per_feature[1] if len(per_feature) > 1 else None

        winner = decide_split(best, second, leaf.ratio, self.params,
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
        - observers: numeric, (2 + 2d) slots per distinct key; nominal,
          (1 + 2d) slots per declared category;
        - leaf models: one slot per weight, 2 slots per target per scored
          predictor (faded numerator/denominator), 4 counter slots.
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
        variant tag."""
        doc = {
            "format": SERIAL_FORMAT,
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
    node.fold_pending()
    observers = []
    for obs in node.observers:
        if isinstance(obs, NominalObserver):
            observers.append({"kind": "nominal", "cnt": obs.cnt,
                              "sums": obs.sums, "sumsqs": obs.sumsqs})
        else:
            observers.append({"kind": "numeric", "nodes": obs.key_ordered_dump()})
    return {
        "kind": "leaf",
        "examples_seen": node.examples_seen,
        "since_attempt": node.since_attempt,
        "ratio": list(node.ratio.state()),
        "stats": _rows(node.stats.state()),
        "predictors": _rows(node.predictors.state()),
        "observers": observers,
    }


def _rows(obj):
    """Tuples to lists, recursively (json-friendly, deterministic)."""
    if isinstance(obj, tuple):
        return [_rows(o) for o in obj]
    if isinstance(obj, list):
        return [_rows(o) for o in obj]
    return obj
