"""Boolean combination ensembles over named-entity annotation sets.

Combines annotation output from multiple extraction systems with set algebra
over character spans (union, intersection, majority vote), scores the
combinations against a gold standard at character and concept level, and
searches the combination space for optimal ensembles per semantic group.
"""

from .complementarity import ErrorSet, comp_rate, error_set
from .errors import (
    ConfigError,
    EnsembleError,
    ParseError,
    UnsupportedOperatorError,
    ValidationError,
)
from .expr import (
    SEMANTIC,
    SYNTACTIC,
    And,
    ExprSignature,
    ExprTree,
    Leaf,
    Or,
    enumerate_ensembles,
    evaluate,
    parse,
    to_string,
    tree_sources,
    truth_table_signature,
)
from .ingest import (
    MappingOutcome,
    disambiguate_overlaps,
    load_annotations,
    load_corpus_manifest,
    load_semantic_group_map,
    write_annotations,
    write_manifest,
)
from .masks import (
    CharMask,
    CuiMask,
    CuiRun,
    intersect,
    merge_cui_layers,
    to_cui_mask,
    union,
)
from .metrics import (
    CuiMetricsResult,
    MetricsResult,
    bernoulli_ci,
    char_prf,
    ci_overlap_significant,
    doc_level_cui_prf,
    mention_level_cui_prf,
)
from .model import (
    ALL_GROUPS,
    GOLD_SOURCE,
    Annotation,
    AnnotationStore,
    DocumentRef,
    SemanticGroupMap,
)
from .search import (
    DOC_LEVEL,
    MENTION_LEVEL,
    ScoredEnsemble,
    SearchConfig,
    SearchResult,
    complementarity_scores,
    corpus_masks,
    cross_group_union_merge,
    cui_scores,
    evaluate_expression,
    grid_search,
    majority_vote_eval,
)
from .synth import SourceSpec, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "ALL_GROUPS",
    "And",
    "Annotation",
    "AnnotationStore",
    "CharMask",
    "ConfigError",
    "CuiMask",
    "CuiMetricsResult",
    "CuiRun",
    "DOC_LEVEL",
    "DocumentRef",
    "EnsembleError",
    "ErrorSet",
    "ExprSignature",
    "ExprTree",
    "GOLD_SOURCE",
    "Leaf",
    "MENTION_LEVEL",
    "MappingOutcome",
    "MetricsResult",
    "Or",
    "ParseError",
    "SEMANTIC",
    "SYNTACTIC",
    "ScoredEnsemble",
    "SearchConfig",
    "SearchResult",
    "SemanticGroupMap",
    "SourceSpec",
    "SynthSpec",
    "UnsupportedOperatorError",
    "ValidationError",
    "bernoulli_ci",
    "char_prf",
    "ci_overlap_significant",
    "comp_rate",
    "complementarity_scores",
    "corpus_masks",
    "cross_group_union_merge",
    "cui_scores",
    "disambiguate_overlaps",
    "doc_level_cui_prf",
    "enumerate_ensembles",
    "error_set",
    "evaluate",
    "evaluate_expression",
    "generate",
    "grid_search",
    "intersect",
    "load_annotations",
    "load_corpus_manifest",
    "load_semantic_group_map",
    "majority_vote_eval",
    "mention_level_cui_prf",
    "merge_cui_layers",
    "parse",
    "to_cui_mask",
    "to_string",
    "tree_sources",
    "truth_table_signature",
    "union",
    "write_annotations",
    "write_manifest",
]
