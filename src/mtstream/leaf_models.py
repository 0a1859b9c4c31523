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

FADE_DECAY = 0.95

_SD_EPSILON = 1e-12


def _to_original(target_stats, z_values) -> list[float]:
    """Inverse z-score a standardized prediction vector (inlined hot path)."""
    sqrt = math.sqrt
    out = []
    for rs, z in zip(target_stats, z_values):
        n = rs.n
        if n == 0:
            out.append(0.0)
            continue
        m2 = rs._m2
        if m2 <= 0.0 or n < 2:
            out.append(rs.sum / n)
            continue
        s = sqrt(m2 / (n - 1))
        out.append(rs.sum / n if s < _SD_EPSILON else z * s + rs.sum / n)
    return out


class AffineLayer:
    """Dense affine map with a leading bias column; one output row per target.

    The bias input is fixed at 1. `update` applies one delta-rule step toward
    the supplied standardized targets using the layer's own current output.
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
        return self.weights @ self.augment(inputs)

    def predict_aug(self, aug: np.ndarray) -> np.ndarray:
        return self.weights @ aug

    def update(self, inputs, targets_std, learning_rate: float) -> None:
        self.update_aug(self.augment(inputs), np.asarray(targets_std), learning_rate)

    def update_aug(self, aug: np.ndarray, targets_std: np.ndarray,
                   learning_rate: float) -> None:
        error = targets_std - self.weights @ aug
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
                 "fmae", "learning_rate")

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
        return child

    def _candidates(self, x_std, stats) -> dict[str, list[float]]:
        """Original-scale prediction of every scored predictor."""
        out = {}
        if MEAN_PRED in self.fmae:
            out[MEAN_PRED] = stats.target_means()
        base = self.base
        if base is not None:
            x_aug = AffineLayer.augment(x_std)
            base_std = base.predict_aug(x_aug)
            targets = stats.targets
            if PERCEPTRON_PRED in self.fmae:
                out[PERCEPTRON_PRED] = _to_original(targets, base_std)
            if self.meta is not None:
                meta_std = self.meta.predict(base_std)
                out[STACKED_PRED] = _to_original(targets, meta_std)
        return out

    def select_from(self, candidates: dict[str, list[float]]) -> Prediction:
        """Pick, per target, the selectable predictor with the lowest faded
        error (fixed variants have a single choice) and emit original-scale
        values."""
        selectable = self.variant.selectable
        if len(selectable) == 1:
            name = selectable[0]
            vals = candidates[name]
            return Prediction(values=tuple(float(v) for v in vals),
                              per_target_source=(name,) * self.n_targets)
        values = []
        sources = []
        fmae = self.fmae
        for t in range(self.n_targets):
            best_name = selectable[0]
            best_err = fmae[best_name].value(t)
            for name in selectable[1:]:
                err = fmae[name].value(t)
                if err < best_err:
                    best_err = err
                    best_name = name
            values.append(float(candidates[best_name][t]))
            sources.append(best_name)
        return Prediction(values=tuple(values), per_target_source=tuple(sources))

    def select_and_predict(self, x_std, stats) -> Prediction:
        return self.select_from(self._candidates(x_std, stats))

    def score_candidates(self, candidates: dict[str, list[float]], y_true) -> None:
        """Fold one example's absolute errors into every scored predictor's
        faded table (call before any state is updated)."""
        for name, pred in candidates.items():
            self.fmae[name].update([abs(y - p) for y, p in zip(y_true, pred)])

    def score(self, x_std, y_true, stats) -> None:
        self.score_candidates(self._candidates(x_std, stats), y_true)

    def train(self, x_std, y_std) -> None:
        """One delta-rule step on both layers. The stacked layer consumes the
        base outputs as they were before the base layer moved."""
        base = self.base
        if base is None:
            return
        x_aug = AffineLayer.augment(x_std)
        y = np.asarray(y_std)
        if self.meta is not None:
            base_aug = AffineLayer.augment(base.predict_aug(x_aug))
            self.meta.update_aug(base_aug, y, self.learning_rate)
        base.update_aug(x_aug, y, self.learning_rate)

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
