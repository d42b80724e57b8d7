"""The package's public names, pinned: adding or removing one changes this
tuple, so the change shows in review."""

import argparse

import span_ensembles
from span_ensembles.cli import build_parser

PUBLIC = (
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
)


def test_public_names_are_pinned():
    assert tuple(span_ensembles.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in PUBLIC if not hasattr(span_ensembles, name)]
    assert missing == []


# Every subcommand's option strings, recorded before the report tasks shared
# one driver: a new flag changes this map, so it shows in review.
IO_OPTIONS = [
    "--config", "--corpus-id", "--format", "--gold", "--group", "--help", "--manifest", "--out",
    "--overrides", "--seed", "--semgroups", "--system", "--systems", "-h",
]
CLI_OPTIONS = {
    "complementarity": IO_OPTIONS,
    "cui-eval": sorted([*IO_OPTIONS, "--expr", "--level"]),
    "ensemble-eval": sorted([*IO_OPTIONS, "--expr"]),
    "ner-eval": IO_OPTIONS,
    "search": sorted([
        *IO_OPTIONS, "--budget", "--f1-only", "--max-size", "--min-size", "--top-k", "--workers",
    ]),
    "synth": [
        "--correlation", "--cui-vocab", "--density", "--doc-length", "--docs", "--groups",
        "--help", "--n-sources", "--out-dir", "--scores", "--seed", "--source",
        "--span-len-max", "--span-len-min", "-h",
    ],
    "vote": IO_OPTIONS,
}


def test_cli_options_are_pinned():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(s for action in sub._actions for s in action.option_strings)
        for name, sub in subcommands.choices.items()
    }
    assert options == CLI_OPTIONS
