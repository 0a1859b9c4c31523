"""Incremental multi-target regression trees for data streams.

The library grows confidence-gated decision trees one example at a time, with
leaf predictors ranging from target means through per-target linear models to
a stacked second linear layer that exploits inter-target correlation, and
ships a prequential benchmark harness (windowed error/time/size accounting
plus Friedman/Nemenyi rank comparison) and seeded synthetic stream generators.
"""

from .evaluation import (
    ComparisonResult,
    EvaluationError,
    PrequentialConfig,
    WindowedReport,
    armse,
    friedman_nemenyi,
    run_prequential,
)
from .leaf_models import LeafPredictorSet
from .observers import EBSTObserver, NominalObserver, ParentStats, SplitSuggestion
from .schema import (
    FeatureSpec,
    Instance,
    Prediction,
    SchemaError,
    StreamSchema,
    Variant,
    numeric_schema,
)
from .splitting import MeritRatio, decide_split, hoeffding_bound
from .stats import VectorStats
from .streams import (
    ConfigError,
    CsvSchemaDecl,
    DriftSpec,
    GeneratorSpec,
    make_stream,
    read_csv,
    write_csv,
)
from .tree import MultiTargetHoeffdingTree, TreeConfig

__version__ = "0.1.0"

__all__ = [
    "ComparisonResult",
    "ConfigError",
    "CsvSchemaDecl",
    "DriftSpec",
    "EBSTObserver",
    "EvaluationError",
    "FeatureSpec",
    "GeneratorSpec",
    "Instance",
    "LeafPredictorSet",
    "MeritRatio",
    "MultiTargetHoeffdingTree",
    "NominalObserver",
    "ParentStats",
    "Prediction",
    "PrequentialConfig",
    "SchemaError",
    "SplitSuggestion",
    "StreamSchema",
    "TreeConfig",
    "VectorStats",
    "Variant",
    "WindowedReport",
    "armse",
    "decide_split",
    "friedman_nemenyi",
    "hoeffding_bound",
    "make_stream",
    "numeric_schema",
    "read_csv",
    "run_prequential",
    "write_csv",
]
