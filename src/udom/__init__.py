"""Conservative and progressive domination-count bounds for similarity
queries (threshold kNN / reverse-kNN, inverse ranking, expected rank) over
uncertain rectangular objects, with an exact possible-worlds oracle."""

from .geometry import Rect, rect_min_dist
from .model import (
    DatasetError,
    DecompositionTree,
    Frontier,
    UncertainObject,
    build_object,
    generate_synthetic,
    load_dataset,
    save_dataset_jsonl,
    split,
)
from .domination import DominationClassification, ProbBounds, classify
from .genfunc import DomCountDistribution, gf_exact
from .idca import (
    AnyOf,
    IdcaResult,
    MaxDepth,
    PredicateDecided,
    StopCriterion,
    UncertaintyBelow,
    idca,
    uncertainty,
)
from .oracle import ExactPdf, WorldBudgetError, enumerate_exact, mc_baseline
from .queries import (
    QueryAnswer,
    QueryPredicate,
    RankDistribution,
    expected_rank,
    expected_rank_interval,
    inverse_ranking,
    knn_probability_bounds,
    pknn_query,
    prknn_query,
)

__version__ = "0.1.0"
