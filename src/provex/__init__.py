"""Provably sufficient and minimal explanations for feed-forward networks.

The package verifies feature-subset sufficiency with sound interval bound
propagation and searches for subset-minimal explanations, accelerating the
search by reducing the network through neuron merging and refining the
reduction only when a query is inconclusive.
"""

from .abstraction import (
    AbstractNetwork,
    MergeSpec,
    ReductionSchedule,
    build_abstract,
    build_from_merge_sets,
    refine,
    score_neurons,
)
from .bounds import LayerBounds, propagate_abstract, propagate_box
from .errors import DimensionError, ProvexError, SchemaError, ValidationError
from .explain import (
    STATUS_EARLY_STOP,
    STATUS_MINIMAL,
    ExplanationTrace,
    FeatureGrouping,
    FeatureOrdering,
    count_work,
    explain_abstraction_refinement,
    explain_baseline,
    order_features,
)
from .fixtures import FixtureSpec, demo_network, make_fixture, mnist_shape_network, random_network
from .intervals import IntervalVector, iv_subset
from .network import (
    ActivationKind,
    ConcreteNetwork,
    Layer,
    forward,
    gradient,
    load_network,
    predict,
    save_network,
)
from .queries import (
    OracleOutcome,
    OracleResult,
    RegressionQuery,
    SufficiencyQuery,
    Verdict,
    VerdictKind,
    check_abstract,
    check_concrete,
    check_regression,
    gen_counterexample,
    oracle_check,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractNetwork", "ActivationKind", "ConcreteNetwork", "DimensionError",
    "ExplanationTrace", "FeatureGrouping", "FeatureOrdering", "FixtureSpec",
    "IntervalVector", "Layer", "LayerBounds", "MergeSpec",
    "OracleOutcome", "OracleResult", "ProvexError", "ReductionSchedule",
    "RegressionQuery", "STATUS_EARLY_STOP", "STATUS_MINIMAL", "SchemaError",
    "SufficiencyQuery", "ValidationError", "Verdict", "VerdictKind",
    "build_abstract", "build_from_merge_sets", "check_abstract",
    "check_concrete", "check_regression", "count_work", "demo_network",
    "explain_abstraction_refinement", "explain_baseline", "forward",
    "gen_counterexample", "gradient", "iv_subset", "load_network", "make_fixture",
    "mnist_shape_network", "oracle_check", "order_features", "predict",
    "propagate_abstract", "propagate_box", "random_network", "refine",
    "save_network", "score_neurons",
]
