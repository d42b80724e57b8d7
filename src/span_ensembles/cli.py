"""Command-line interface: one subcommand per evaluation task.

Each run loads the corpus manifest and annotation files, applies semantic
group mapping when a groups file is given, disambiguates overlapping spans
per system, executes the task, and emits one report (CSV, markdown, or
JSON).  Reports are built fully before anything is written, so a failing run
never leaves a partial report.  Exit codes: 0 success, 2 validation or
configuration error, 3 parse error, 4 unsupported operation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import report as report_mod
from .errors import (
    ConfigError,
    EnsembleError,
    ParseError,
    UnsupportedOperatorError,
)
from .expr import IDENTIFIER, parse, to_string
from .ingest import (
    _SURROGATE,
    disambiguate_spans,
    load_corpus_manifest,
    load_semantic_group_map,
    load_span_files,
    map_groups,
    write_annotations,
    write_manifest,
)
from .model import ALL_GROUPS, GOLD_SOURCE, AnnotationStore
from .report import ComplementarityRow, CuiRow, PanelBlock, SystemRow, VoteRow, emit_table
from .search import (
    DOC_LEVEL,
    SearchConfig,
    complementarity_scores,
    cui_scores,
    evaluate_expression,
    grid_search,
    majority_vote_eval,
)
from .synth import SourceSpec, SynthSpec, generate_annotations

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_UNSUPPORTED = 4

EACH_GROUP = "each"


@dataclass
class RunConfig:
    """Resolved inputs of one run: file paths, filters, seed, output format."""

    manifest: Path
    gold: Path
    systems: dict[str, Path]
    semgroups: Optional[Path] = None
    overrides: Optional[Path] = None
    corpus_id: str = ""
    gold_source: str = GOLD_SOURCE
    group: str = ALL_GROUPS
    seed: int = 0
    fmt: str = report_mod.CSV_FORMAT
    selected: tuple[str, ...] = field(default_factory=tuple)


# The config keys read besides ``systems`` (an object of name -> path); each
# is a string.  Paths are relative to the config's directory.
_CONFIG_TEXT_KEYS = (
    "manifest", "gold", "semgroups", "overrides", "group", "corpus_id", "gold_source",
)


def _load_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad JSON ({exc.msg})") from None
    except RecursionError:
        raise ParseError(f"{path}: bad JSON (nested too deeply)") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in _CONFIG_TEXT_KEYS:
        if key in data and type(data[key]) is not str:
            raise ParseError(f"{path}: config key {key!r} must be a string")
        if key in data and _SURROGATE.search(data[key]):
            raise ParseError(f"{path}: config key {key!r} holds a lone surrogate, expected text")
    systems = data.get("systems", {})
    if type(systems) is not dict or any(type(rel) is not str for rel in systems.values()):
        raise ParseError(f"{path}: config key 'systems' must be an object of strings")
    return data


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    base = Path(".")
    if args.config:
        config_path = Path(args.config)
        data = _load_config_file(config_path)
        base = config_path.parent

    def path_of(key, flag_value):
        if flag_value:
            return Path(flag_value)
        if data.get(key):
            return base / data[key]
        return None

    manifest = path_of("manifest", args.manifest)
    gold = path_of("gold", args.gold)
    if manifest is None:
        raise ConfigError("no corpus manifest given (use --manifest or a config file)")
    if gold is None:
        raise ConfigError("no gold annotation file given (use --gold or a config file)")

    systems: dict[str, Path] = {}
    for name, rel in sorted(data.get("systems", {}).items()):
        systems[name] = base / rel
    flagged = set()
    for spec in args.system or []:
        name, _, raw = spec.partition("=")
        if not name or not raw:
            raise ConfigError(f"bad --system value {spec!r}; expected NAME=PATH")
        if name in flagged:
            raise ConfigError(f"--system names system {name!r} more than once")
        flagged.add(name)
        systems[name] = Path(raw)
    if not systems:
        raise ConfigError("no system annotation files given")
    gold_source = data.get("gold_source") or GOLD_SOURCE
    if gold_source in systems:
        raise ConfigError(f"system {gold_source!r} has the gold source's name")
    for name in systems:
        if not IDENTIFIER.fullmatch(name):
            raise ConfigError(
                f"system {name!r} is not an expression identifier (letters, digits, '_')"
            )

    selected = tuple(systems)
    if args.systems is not None:
        selected = tuple(s.strip() for s in args.systems.split(",") if s.strip())
        if not selected:
            raise ConfigError(f"--systems {args.systems!r} selects no system")
        unknown = [s for s in selected if s not in systems]
        if unknown:
            raise ConfigError(f"--systems names unknown systems: {unknown}")
        repeated = sorted({s for s in selected if selected.count(s) > 1})
        if repeated:
            raise ConfigError(f"--systems names systems more than once: {repeated}")

    group = args.group or data.get("group") or ALL_GROUPS
    if group.lower() == "all":
        group = ALL_GROUPS

    semgroups = path_of("semgroups", args.semgroups)
    overrides = path_of("overrides", args.overrides)
    if overrides and not semgroups:
        raise ConfigError(
            "--overrides (config key 'overrides') maps types to groups of a groups file; "
            "give one with --semgroups (config key 'semgroups')"
        )
    required = [("manifest", manifest), ("gold", gold)] + sorted(systems.items())
    required += [(k, p) for k, p in (("semgroups", semgroups), ("overrides", overrides)) if p]
    for label, path in required:
        if not Path(path).exists():
            raise ConfigError(f"{label} path does not exist: {path}")

    return RunConfig(
        manifest=manifest,
        gold=gold,
        systems=systems,
        semgroups=semgroups,
        overrides=overrides,
        corpus_id=args.corpus_id or data.get("corpus_id") or "",
        gold_source=gold_source,
        group=group,
        seed=args.seed,
        fmt=args.format,
        selected=selected,
    )


def _build_store(cfg: RunConfig) -> AnnotationStore:
    documents = load_corpus_manifest(cfg.manifest)
    gmap = load_semantic_group_map(cfg.semgroups, cfg.overrides) if cfg.semgroups else None
    inputs = [(cfg.gold_source, cfg.gold)]
    inputs += [(name, cfg.systems[name]) for name in sorted(cfg.systems)]
    spans = load_span_files(inputs, documents, gmap.group_universe if gmap else ())

    keep = None
    if gmap is not None:
        outcome = map_groups(spans, gmap)
        if outcome.dropped:
            print(f"note: {outcome.note()}", file=sys.stderr)
        spans, keep = outcome.columns, outcome.kept
        universe = gmap.group_universe
    else:
        universe = spans.groups_present()

    # Overlapping concepts from one system resolve by the longest-span /
    # highest-score / seeded cascade; gold spans merge later in mask building.
    keep = disambiguate_spans(spans, cfg.seed, exempt=(cfg.gold_source,), keep=keep)
    return AnnotationStore.adopt(
        documents,
        spans,
        keep,
        group_universe=universe,
        sources=[cfg.gold_source, *cfg.systems],
    )


def _corpus_label(cfg: RunConfig, store: AnnotationStore) -> str:
    if cfg.corpus_id:
        return cfg.corpus_id
    ids = sorted({doc.corpus_id for doc in store.documents if doc.corpus_id})
    if len(ids) > 1:
        raise ConfigError(
            f"the manifest pools corpora {', '.join(map(repr, ids))}; "
            "name the pool with --corpus-id or config corpus_id"
        )
    return ids[0] if ids else "corpus"


def _groups_to_run(cfg: RunConfig, store: AnnotationStore) -> list[str]:
    universe = store.group_universe or store.groups_present()
    if cfg.group == EACH_GROUP:
        return [*universe, ALL_GROUPS]
    if cfg.group != ALL_GROUPS and cfg.group not in universe:
        raise ConfigError(f"unknown group {cfg.group!r}; known: {', '.join(universe) or 'none'}")
    return [cfg.group]


# A report task builds one group's rows: rows(cfg, store, args, tree, corpus,
# group), where ``tree`` is the parsed ``--expr`` of the tasks that take one.
# ``run`` walks the groups and writes every row in the task's layout.


def _ner_eval_rows(cfg, store, args, tree, corpus, group) -> list:
    config = SearchConfig(sources=cfg.selected, group=group, max_size=1)
    singles = grid_search(store, cfg.gold_source, config).singles
    return [SystemRow(corpus, group, name, singles[name]) for name in cfg.selected]


def _ensemble_eval_rows(cfg, store, args, tree, corpus, group) -> list:
    metrics = evaluate_expression(store, tree, cfg.gold_source, group)
    return [SystemRow(corpus, group, to_string(tree), metrics)]


def _search_rows(cfg, store, args, tree, corpus, group) -> list:
    config = SearchConfig(
        sources=cfg.selected,
        group=group,
        min_size=args.min_size,
        max_size=args.max_size,
        sample_budget=args.budget,
        seed=cfg.seed,
        top_k=args.top_k,
        beat_singles_f1_only=args.f1_only,
    )
    return [PanelBlock(corpus, group, grid_search(store, cfg.gold_source, config))]


def _vote_rows(cfg, store, args, tree, corpus, group) -> list:
    metrics = majority_vote_eval(store, cfg.selected, cfg.gold_source, group, cfg.seed)
    return [VoteRow(corpus, group, cfg.selected, metrics)]


def _cui_eval_rows(cfg, store, args, tree, corpus, group) -> list:
    ensemble, singles = cui_scores(
        store, tree, cfg.gold_source, level=args.level, seed=cfg.seed, group=group
    )
    rows = [CuiRow(corpus, group, args.level, to_string(tree), "ensemble", ensemble)]
    rows += [CuiRow(corpus, group, args.level, s, "single", m) for s, m in singles.items()]
    return rows


def _complementarity_rows(cfg, store, args, tree, corpus, group) -> list:
    scores = complementarity_scores(store, cfg.selected, cfg.gold_source, group)
    return [
        ComplementarityRow(corpus, group, a, b, rate, restricted)
        for (a, b), (rate, restricted) in scores.items()
    ]


REPORT_TASKS = {
    "ner-eval": (_ner_eval_rows, report_mod.SINGLE_SYSTEMS),
    "ensemble-eval": (_ensemble_eval_rows, report_mod.SINGLE_SYSTEMS),
    "search": (_search_rows, report_mod.ENSEMBLE_PANELS),
    "vote": (_vote_rows, report_mod.VOTE),
    "cui-eval": (_cui_eval_rows, report_mod.CUI),
    "complementarity": (_complementarity_rows, report_mod.COMPLEMENTARITY),
}


def _parse_source_spec(text: str) -> SourceSpec:
    parts = text.split(":")
    if not parts[0]:
        raise ConfigError(f"bad --source value {text!r}; expected NAME[:miss[:spurious[:jitter]]]")
    try:
        return SourceSpec(
            name=parts[0],
            miss_rate=float(parts[1]) if len(parts) > 1 else 0.0,
            spurious_rate=float(parts[2]) if len(parts) > 2 else 0.0,
            jitter=int(parts[3]) if len(parts) > 3 else 0,
        )
    except ValueError:
        raise ConfigError(f"bad --source value {text!r}") from None


def _task_synth(args: argparse.Namespace) -> str:
    if args.source:
        sources = tuple(_parse_source_spec(s) for s in args.source)
    else:
        sources = tuple(
            SourceSpec(name=chr(ord("A") + i), miss_rate=0.1 + 0.05 * i, spurious_rate=1.0, jitter=1)
            for i in range(args.n_sources)
        )
    spec = SynthSpec(
        n_docs=args.docs,
        doc_length=args.doc_length,
        sources=sources,
        span_density=args.density,
        span_len_min=args.span_len_min,
        span_len_max=args.span_len_max,
        groups=tuple(g.strip() for g in args.groups.split(",") if g.strip()),
        error_correlation=args.correlation,
        cui_vocab=args.cui_vocab,
        emit_scores=args.scores,
        seed=args.seed,
    )
    documents, annotations = generate_annotations(spec)
    out_dir = Path(args.out_dir)
    names = sorted({GOLD_SOURCE, *(s.name for s in spec.sources)})
    config = {
        "manifest": "manifest.jsonl",
        "gold": f"{GOLD_SOURCE}.jsonl",
        "systems": {name: f"{name}.jsonl" for name in names if name != GOLD_SOURCE},
        "corpus_id": spec.corpus_id,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_manifest(documents, out_dir / "manifest.jsonl")
        for name in names:
            write_annotations([a for a in annotations if a.source == name], out_dir / f"{name}.jsonl")
        (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc.strerror or exc}") from None
    return (
        f"wrote {len(documents)} docs, {len(annotations)} annotations, "
        f"{len(config['systems'])} systems to {out_dir}\n"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="span-ensembles",
        description="Boolean combination ensembles over annotation sets: evaluation and search",
    )
    sub = parser.add_subparsers(dest="task", required=True)

    io = argparse.ArgumentParser(add_help=False)  # the report tasks' shared options
    io.add_argument("--config", help="JSON run config with manifest/gold/systems paths")
    io.add_argument("--manifest", help="corpus manifest JSONL (overrides config)")
    io.add_argument("--gold", help="gold annotations JSONL (overrides config)")
    io.add_argument(
        "--system",
        action="append",
        metavar="NAME=PATH",
        help="system annotations JSONL; repeatable (overrides config)",
    )
    io.add_argument("--systems", help="comma list selecting a subset of systems")
    io.add_argument("--semgroups", help="pipe-delimited semantic groups file")
    io.add_argument("--overrides", help="JSONL (source, native_type) -> group overrides")
    io.add_argument("--corpus-id", dest="corpus_id", help="corpus label for report rows")
    io.add_argument("--group", help="semantic group filter: label, 'all', or 'each'")
    io.add_argument("--seed", type=int, default=0, help="master seed for tie-breaks")
    io.add_argument(
        "--format",
        choices=[report_mod.CSV_FORMAT, report_mod.MARKDOWN_FORMAT, report_mod.JSON_FORMAT],
        default=report_mod.CSV_FORMAT,
    )
    io.add_argument("--out", help="write the report here instead of stdout")

    sub.add_parser("ner-eval", parents=[io], help="score each system against gold")

    p_expr = sub.add_parser("ensemble-eval", parents=[io], help="score one Boolean combination")
    p_expr.add_argument("--expr", required=True, help="expression, e.g. '((A&B)|C)'")

    p_search = sub.add_parser("search", parents=[io], help="grid search over the ensemble space")
    p_search.add_argument("--top-k", dest="top_k", type=int, default=10)
    p_search.add_argument("--min-size", dest="min_size", type=int, default=1)
    p_search.add_argument("--max-size", dest="max_size", type=int, default=None)
    p_search.add_argument("--budget", type=int, default=None,
                          help="score the singles and a seeded sample of N other ensembles")
    p_search.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
    p_search.add_argument(
        "--f1-only",
        dest="f1_only",
        action="store_true",
        help="relax 'beats all singles' to F1 only",
    )

    sub.add_parser("vote", parents=[io], help="majority vote over the selected systems")

    p_cui = sub.add_parser(
        "cui-eval", parents=[io], help="concept-matching score of a union ensemble"
    )
    p_cui.add_argument("--expr", required=True, help="union-only expression, e.g. '((B|D)|E)'")
    p_cui.add_argument("--level", choices=["doc", "mention"], default=DOC_LEVEL)

    sub.add_parser("complementarity", parents=[io], help="pairwise complementarity measures")

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--out-dir", dest="out_dir", required=True)
    p_synth.add_argument("--docs", type=int, default=50)
    p_synth.add_argument("--doc-length", dest="doc_length", type=int, default=1000)
    p_synth.add_argument("--n-sources", dest="n_sources", type=int, default=5)
    p_synth.add_argument(
        "--source",
        action="append",
        metavar="NAME:MISS:SPURIOUS:JITTER",
        help="explicit source spec; repeatable (overrides --n-sources)",
    )
    p_synth.add_argument("--density", type=float, default=5.0, help="gold spans per 1000 chars")
    p_synth.add_argument("--span-len-min", dest="span_len_min", type=int, default=3)
    p_synth.add_argument("--span-len-max", dest="span_len_max", type=int, default=10)
    p_synth.add_argument("--correlation", type=float, default=0.0)
    p_synth.add_argument("--cui-vocab", dest="cui_vocab", type=int, default=0)
    p_synth.add_argument(
        "--groups", default=",".join(("Anatomy", "Chemicals & Drugs", "Disorders", "Procedures"))
    )
    p_synth.add_argument("--scores", action="store_true", help="attach confidence scores")
    p_synth.add_argument("--seed", type=int, default=0)
    return parser


def run(args: argparse.Namespace) -> str:
    """One report: errors surface in the order configuration and input files,
    corpus label, expression, group, task."""
    if args.task == "synth":
        return _task_synth(args)
    rows_of, layout = REPORT_TASKS[args.task]
    cfg = _resolve_run_config(args)
    store = _build_store(cfg)
    corpus = _corpus_label(cfg, store)
    expr_text = getattr(args, "expr", None)
    tree = parse(expr_text, known_sources=cfg.selected) if expr_text is not None else None
    rows = []
    for group in _groups_to_run(cfg, store):
        rows += rows_of(cfg, store, args, tree, corpus, group)
    return emit_table(rows, layout, cfg.fmt)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedOperatorError as exc:
        print(f"unsupported operation: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except EnsembleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out_path = getattr(args, "out", None)
    if args.task != "synth" and out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write report to {out_path}: {exc.strerror}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
