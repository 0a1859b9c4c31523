"""Leaf predictors: target means, linear models, a stacked second layer, and
faded-error bookkeeping for per-target predictor selection.

All linear modelling happens in z-score space; predictions are mapped back to
the original target scales. Both layers train with the delta rule under a
shared learning rate; the stacked layer consumes the base layer's outputs, so
inter-target structure can sharpen each target's estimate.
"""

from __future__ import annotations

import math

import numpy as np

from .schema import (
    MEAN_PRED,
    PERCEPTRON_PRED,
    STACKED_PRED,
    Prediction,
    Variant,
)
from .stats import unstandardize

FADE_DECAY = 0.95

class AffineLayer:
    """Dense affine map with a leading bias column; one output row per target.

    The bias input is fixed at 1. `update` applies one delta-rule step toward
    the supplied standardized targets using the layer's own current output;
    `LeafPredictorSet.train` applies the same step to both of a leaf's layers.
    Products use `ndarray.dot`, the same BLAS call as `@` with less overhead
    per call on these small arrays.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)

    @classmethod
    def random(cls, n_outputs: int, n_inputs: int, rng: np.random.Generator) -> "AffineLayer":
        return cls(rng.uniform(-1.0, 1.0, size=(n_outputs, n_inputs + 1)))

    @staticmethod
    def augment(inputs) -> np.ndarray:
        """Prepend the fixed bias input 1."""
        aug = np.empty(len(inputs) + 1)
        aug[0] = 1.0
        aug[1:] = inputs
        return aug

    def predict(self, inputs) -> np.ndarray:
        return self.weights.dot(self.augment(inputs))

    def update(self, inputs, targets_std, learning_rate: float) -> None:
        aug = self.augment(inputs)
        error = np.asarray(targets_std) - self.weights.dot(aug)
        self.weights += (error * learning_rate)[:, None] * aug

    def copy(self) -> "AffineLayer":
        return AffineLayer(self.weights.copy())

    @property
    def n_parameters(self) -> int:
        return self.weights.size


class FadedError:
    """Per-target exponentially faded mean absolute error for one predictor.

    Each observation decays previous evidence by 0.95 and adds one unit of
    weight, so the denominator is bounded by 1/(1 - 0.95) = 20. Before the
    first observation the error reads as +inf, so fresh predictors tie and
    the tie-break order decides.
    """

    __slots__ = ("num", "den")

    def __init__(self, n_targets: int):
        self.num = [0.0] * n_targets
        self.den = [0.0] * n_targets

    def update(self, abs_errors) -> None:
        num = self.num
        den = self.den
        for t, e in enumerate(abs_errors):
            num[t] = FADE_DECAY * num[t] + e
            den[t] = FADE_DECAY * den[t] + 1.0

    def update_one(self, target_index: int, abs_error: float) -> None:
        self.num[target_index] = FADE_DECAY * self.num[target_index] + abs_error
        self.den[target_index] = FADE_DECAY * self.den[target_index] + 1.0

    def value(self, target_index: int) -> float:
        d = self.den[target_index]
        return self.num[target_index] / d if d > 0.0 else math.inf

    def values(self) -> list[float]:
        return [n / d if d > 0.0 else math.inf for n, d in zip(self.num, self.den)]

    def state(self) -> tuple:
        return (tuple(self.num), tuple(self.den))


class LeafPredictorSet:
    """The predictor stack one leaf carries, shaped by the tree variant.

    Faded errors are tracked for every predictor the leaf evaluates per
    example (the variant's `scored` set); selection draws from the variant's
    `selectable` set, breaking fMAE ties toward the cheaper model.
    """

    __slots__ = ("variant", "n_features", "n_targets", "base", "meta",
                 "fmae", "learning_rate", "train_inputs")

    def __init__(self, variant: Variant, n_features: int, n_targets: int,
                 learning_rate: float, rng: np.random.Generator):
        self.variant = variant
        self.n_features = n_features
        self.n_targets = n_targets
        self.learning_rate = learning_rate
        self.base = AffineLayer.random(n_targets, n_features, rng) \
            if variant.has_base_layer else None
        self.meta = AffineLayer.random(n_targets, n_targets, rng) \
            if variant.has_meta_layer else None
        self.fmae = {name: FadedError(n_targets) for name in variant.scored}
        # augmented-input buffers of `train` (bias slot preset to 1), shared by
        # every predictor set spawned from this one, i.e. by one tree's leaves
        self.train_inputs = (np.ones(n_features + 1), np.ones(n_targets + 1)) \
            if variant.has_base_layer else None

    def spawn_child(self) -> "LeafPredictorSet":
        """Child predictor set for a fresh leaf after a split: weights are
        inherited from this (parent) leaf, faded errors start over."""
        child = LeafPredictorSet.__new__(LeafPredictorSet)
        child.variant = self.variant
        child.n_features = self.n_features
        child.n_targets = self.n_targets
        child.learning_rate = self.learning_rate
        child.base = self.base.copy() if self.base is not None else None
        child.meta = self.meta.copy() if self.meta is not None else None
        child.fmae = {name: FadedError(self.n_targets) for name in self.variant.scored}
        child.train_inputs = self.train_inputs
        return child

    def _candidates(self, x_std, stats) -> dict[str, list[float]]:
        """Original-scale prediction of every scored predictor, all Python
        floats. `x_std` is read only when the variant has a base layer.

        Inputs are built fresh on every call, not in the `train` buffers,
        because `predict` may run concurrently."""
        means, sds = stats.target_scales()
        out = {}
        if MEAN_PRED in self.fmae:
            out[MEAN_PRED] = means
        base = self.base
        if base is not None:
            base_std = base.weights.dot(np.array([1.0, *x_std])).tolist()
            if PERCEPTRON_PRED in self.fmae:
                out[PERCEPTRON_PRED] = unstandardize(base_std, means, sds)
            if self.meta is not None:
                meta_std = self.meta.weights.dot(np.array([1.0, *base_std])).tolist()
                out[STACKED_PRED] = unstandardize(meta_std, means, sds)
        return out

    def select_from(self, candidates: dict[str, list[float]]) -> Prediction:
        """Pick, per target, the selectable predictor with the lowest faded
        error (fixed variants have a single choice) and emit original-scale
        values."""
        selectable = self.variant.selectable
        if len(selectable) == 1:
            name = selectable[0]
            return Prediction(values=tuple(candidates[name]),
                              per_target_source=(name,) * self.n_targets)
        fmae = self.fmae
        tables = [(name, fmae[name].num, fmae[name].den) for name in selectable]
        inf = math.inf
        values = []
        sources = []
        for t in range(self.n_targets):
            best_name = None
            for name, num, den in tables:
                d = den[t]
                err = num[t] / d if d > 0.0 else inf
                if best_name is None or err < best_err:
                    best_err = err
                    best_name = name
            values.append(candidates[best_name][t])
            sources.append(best_name)
        return Prediction(values=tuple(values), per_target_source=tuple(sources))

    def score_candidates(self, candidates: dict[str, list[float]], y_true) -> None:
        """Fold one example's absolute errors into every scored predictor's
        faded table (call before any state is updated)."""
        fmae = self.fmae
        for name, pred in candidates.items():
            fe = fmae[name]
            fe.num = [FADE_DECAY * e + abs(y - p) for e, y, p in zip(fe.num, y_true, pred)]
            fe.den = [FADE_DECAY * d + 1.0 for d in fe.den]

    def train(self, x_std, y_std) -> None:
        """One delta-rule step on both layers. The stacked layer consumes the
        base outputs as they were before the base layer moved; the base output
        is computed once and serves as the base layer's own error term too.
        Runs only on the single-writer learn path, so it fills the shared
        `train_inputs` buffers instead of allocating."""
        base = self.base
        if base is None:
            return
        x_aug, base_aug = self.train_inputs
        x_aug[1:] = x_std
        base_std = base.weights.dot(x_aug)
        y = np.array(y_std)
        lr = self.learning_rate
        meta = self.meta
        if meta is not None:
            base_aug[1:] = base_std
            meta.weights += ((y - meta.weights.dot(base_aug)) * lr)[:, None] * base_aug
        base.weights += ((y - base_std) * lr)[:, None] * x_aug

    def weight_slots(self) -> int:
        slots = 0
        if self.base is not None:
            slots += self.base.n_parameters
        if self.meta is not None:
            slots += self.meta.n_parameters
        return slots

    def fade_slots(self) -> int:
        return 2 * self.n_targets * len(self.fmae)

    def state(self) -> tuple:
        return (
            self.variant.value,
            tuple(map(tuple, self.base.weights.tolist())) if self.base is not None else None,
            tuple(map(tuple, self.meta.weights.tolist())) if self.meta is not None else None,
            tuple((name, self.fmae[name].state()) for name in sorted(self.fmae)),
        )
