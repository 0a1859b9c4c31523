"""Stream schema, instances, predictions, and the learner variant enumeration."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class SchemaError(ValueError):
    """Configuration error: instance or stream does not match the declared schema."""


NUMERIC = "numeric"
NOMINAL = "nominal"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str = NUMERIC
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, NOMINAL):
            raise SchemaError(f"unknown feature kind {self.kind!r}")
        if self.kind == NOMINAL and not self.categories:
            raise SchemaError(f"nominal feature {self.name!r} needs a category set")
        if self.kind == NUMERIC and self.categories:
            raise SchemaError(f"numeric feature {self.name!r} cannot carry categories")


@dataclass(frozen=True)
class StreamSchema:
    """Declares the m input features and d target names of a stream.

    Feature and target names must be unique; category sets are fixed for the
    stream's lifetime.
    """

    features: tuple[FeatureSpec, ...]
    targets: tuple[str, ...]

    def __post_init__(self):
        if not self.features:
            raise SchemaError("schema needs at least one feature")
        if not self.targets:
            raise SchemaError("schema needs at least one target")
        names = [f.name for f in self.features] + list(self.targets)
        if len(set(names)) != len(names):
            raise SchemaError("feature and target names must be unique")
        object.__setattr__(self, "_nominal_cache", self._nominal_slots())
        object.__setattr__(self, "_numeric_cache", tuple(self.numeric_indices()))

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    def numeric_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.features) if f.kind == NUMERIC]

    def _nominal_slots(self) -> tuple:
        return tuple((i, len(f.categories)) for i, f in enumerate(self.features)
                     if f.kind == NOMINAL)

    def validate_instance(self, inst: "Instance") -> None:
        """Raise SchemaError unless `inst` conforms: lengths match and nominal
        indices fall inside the declared category sets."""
        features = inst.features
        if len(features) != len(self.features):
            raise SchemaError(
                f"instance has {len(features)} features, schema declares {len(self.features)}"
            )
        if len(inst.targets) != len(self.targets):
            raise SchemaError(
                f"instance has {len(inst.targets)} targets, schema declares {len(self.targets)}"
            )
        for i, n_cats in self._nominal_cache:
            v = features[i]
            if v is None:
                continue
            if not isinstance(v, int) or not 0 <= v < n_cats:
                raise SchemaError(
                    f"nominal feature {self.features[i].name!r}: index {v!r} "
                    "outside its category set"
                )

    def targets_finite(self, inst: "Instance") -> bool:
        return all(map(math.isfinite, inst.targets))

    def features_finite(self, inst: "Instance") -> bool:
        """False when a numeric feature holds NaN or an infinity."""
        features = inst.features
        isfinite = math.isfinite
        for i in self._numeric_cache:
            v = features[i]
            if v is not None and not isfinite(v):
                return False
        return True

    def nonfinite_as_missing(self, inst: "Instance") -> "Instance":
        """`inst` itself, or a copy with every non-finite numeric feature
        replaced by None."""
        if self.features_finite(inst):
            return inst
        features = list(inst.features)
        for i in self._numeric_cache:
            v = features[i]
            if v is not None and not math.isfinite(v):
                features[i] = None
        return Instance(features=tuple(features), targets=inst.targets)


@dataclass(frozen=True)
class Instance:
    """One stream example.

    `features` holds, per schema position, a float (numeric), an int category
    index (nominal), or None for a missing value. `targets` holds d floats.
    """

    features: tuple
    targets: tuple


# Per-target predictor names, cheapest first: the tie-break order that
# `Variant.selectable` lists them in.
MEAN_PRED = "mean"
PERCEPTRON_PRED = "perceptron"
STACKED_PRED = "stacked"


@dataclass(frozen=True)
class Prediction:
    """d predicted values plus which leaf predictor produced each of them."""

    values: tuple[float, ...]
    per_target_source: tuple[str, ...]

    def __post_init__(self):
        if len(self.values) != len(self.per_target_source):
            raise ValueError("values and per_target_source lengths differ")


class Variant(enum.Enum):
    """The five tree flavours, named by how their leaves predict.

    MEAN              per-target running mean
    PERCEPTRON        one linear model per target over standardized inputs
    ADAPTIVE          per-target choice between mean and perceptron (faded MAE)
    STACKED           second linear layer over the base predictions, always used
    STACKED_ADAPTIVE  per-target choice among mean, perceptron, and stacked
    """

    MEAN = "mean"
    PERCEPTRON = "perceptron"
    ADAPTIVE = "adaptive"
    STACKED = "stacked"
    STACKED_ADAPTIVE = "stacked_adaptive"

    @property
    def has_base_layer(self) -> bool:
        return self is not Variant.MEAN

    @property
    def has_meta_layer(self) -> bool:
        return self in (Variant.STACKED, Variant.STACKED_ADAPTIVE)

    @property
    def selectable(self) -> tuple[str, ...]:
        """Predictors the variant may pick from, in tie-break order."""
        return _SELECTABLE[self]

    @property
    def scored(self) -> tuple[str, ...]:
        """Predictors whose faded error is tracked: everything the leaf
        computes on each example (the base layer is computed whenever a meta
        layer consumes it)."""
        return _SCORED[self]


_SELECTABLE = {
    Variant.MEAN: (MEAN_PRED,),
    Variant.PERCEPTRON: (PERCEPTRON_PRED,),
    Variant.ADAPTIVE: (MEAN_PRED, PERCEPTRON_PRED),
    Variant.STACKED: (STACKED_PRED,),
    Variant.STACKED_ADAPTIVE: (MEAN_PRED, PERCEPTRON_PRED, STACKED_PRED),
}

_SCORED = {
    Variant.MEAN: (MEAN_PRED,),
    Variant.PERCEPTRON: (PERCEPTRON_PRED,),
    Variant.ADAPTIVE: (MEAN_PRED, PERCEPTRON_PRED),
    Variant.STACKED: (PERCEPTRON_PRED, STACKED_PRED),
    Variant.STACKED_ADAPTIVE: (MEAN_PRED, PERCEPTRON_PRED, STACKED_PRED),
}


def numeric_schema(n_features: int, n_targets: int,
                   feature_prefix: str = "x", target_prefix: str = "y") -> StreamSchema:
    """All-numeric schema with generated names, handy for generators and tests."""
    return StreamSchema(
        features=tuple(FeatureSpec(f"{feature_prefix}{i + 1}") for i in range(n_features)),
        targets=tuple(f"{target_prefix}{i + 1}" for i in range(n_targets)),
    )
