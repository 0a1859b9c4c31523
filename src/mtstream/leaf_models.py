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

    def update(self, inputs, targets_std, learning_rate: float) -> None:
        aug = self.augment(inputs)
        self.update_aug(aug, self.weights @ aug, np.asarray(targets_std), learning_rate)

    def update_aug(self, aug: np.ndarray, output: np.ndarray, targets_std: np.ndarray,
                   learning_rate: float) -> None:
        """Delta-rule step from an augmented input and the layer's current
        output for it (`weights @ aug`), which the caller has already computed."""
        error = targets_std - output
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
            # tolist() first, so candidates and faded errors hold Python floats
            base_std = base.weights @ AffineLayer.augment(x_std)
            targets = stats.targets
            if PERCEPTRON_PRED in self.fmae:
                out[PERCEPTRON_PRED] = _to_original(targets, base_std.tolist())
            if self.meta is not None:
                meta_std = self.meta.weights @ AffineLayer.augment(base_std)
                out[STACKED_PRED] = _to_original(targets, meta_std.tolist())
        return out

    def select_from(self, candidates: dict[str, list[float]]) -> Prediction:
        """Pick, per target, the selectable predictor with the lowest faded
        error (fixed variants have a single choice) and emit original-scale
        values."""
        selectable = self.variant.selectable
        if len(selectable) == 1:
            name = selectable[0]
            return Prediction(values=tuple(map(float, candidates[name])),
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
            values.append(float(candidates[best_name][t]))
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
        is computed once and serves as the base layer's own error term too."""
        base = self.base
        if base is None:
            return
        x_aug = AffineLayer.augment(x_std)
        base_std = base.weights @ x_aug
        y = np.asarray(y_std)
        meta = self.meta
        if meta is not None:
            base_aug = AffineLayer.augment(base_std)
            meta.update_aug(base_aug, meta.weights @ base_aug, y, self.learning_rate)
        base.update_aug(x_aug, base_std, y, self.learning_rate)

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
