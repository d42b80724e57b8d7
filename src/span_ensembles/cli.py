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
from .complementarity import comp_prf, comp_rate, error_set
from .errors import (
    ConfigError,
    EnsembleError,
    ParseError,
    UnsupportedOperatorError,
    ValidationError,
)
from .expr import Leaf, parse, to_string
from .ingest import (
    DisambiguationPolicy,
    apply_group_mapping,
    disambiguate_overlaps,
    load_annotations,
    load_corpus_manifest,
    load_semantic_group_map,
    write_annotations,
    write_manifest,
)
from .model import ALL_GROUPS, GOLD_SOURCE, AnnotationStore
from .report import ComplementarityRow, CuiRow, PanelBlock, SystemRow, VoteRow, emit_table
from .search import (
    DOC_LEVEL,
    EXHAUSTIVE,
    SearchConfig,
    corpus_masks,
    cui_scores,
    evaluate_expression,
    grid_search,
    majority_vote_eval,
)
from .synth import SourceSpec, SynthSpec, generate

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
    out: Optional[Path] = None
    selected: tuple[str, ...] = field(default_factory=tuple)


def _load_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad JSON ({exc.msg})") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
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
    for name, rel in sorted((data.get("systems") or {}).items()):
        systems[str(name)] = base / rel
    for spec in args.system or []:
        name, _, raw = spec.partition("=")
        if not name or not raw:
            raise ConfigError(f"bad --system value {spec!r}; expected NAME=PATH")
        systems[name] = Path(raw)
    if not systems:
        raise ConfigError("no system annotation files given")

    selected = tuple(systems)
    if args.systems:
        selected = tuple(s.strip() for s in args.systems.split(",") if s.strip())
        unknown = [s for s in selected if s not in systems]
        if unknown:
            raise ConfigError(f"--systems names unknown systems: {unknown}")

    group = args.group or data.get("group") or ALL_GROUPS
    if group.lower() == "all":
        group = ALL_GROUPS

    semgroups = path_of("semgroups", args.semgroups)
    overrides = path_of("overrides", args.overrides)
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
        gold_source=data.get("gold_source") or GOLD_SOURCE,
        group=group,
        seed=args.seed,
        fmt=args.format,
        out=Path(args.out) if args.out else None,
        selected=selected,
    )


def _build_store(cfg: RunConfig) -> AnnotationStore:
    documents = load_corpus_manifest(cfg.manifest)
    doc_map = {d.doc_id: d for d in documents}
    annotations = list(load_annotations(cfg.gold, doc_map, expected_source=cfg.gold_source))
    for name in sorted(cfg.systems):
        annotations.extend(load_annotations(cfg.systems[name], doc_map, expected_source=name))

    universe: tuple[str, ...] = ()
    if cfg.semgroups is not None:
        gmap = load_semantic_group_map(cfg.semgroups, cfg.overrides)
        outcome = apply_group_mapping(annotations, gmap)
        if outcome.dropped:
            print(
                f"note: dropped {outcome.dropped} annotation(s) with unmapped semantic types",
                file=sys.stderr,
            )
        annotations = list(outcome.annotations)
        universe = gmap.group_universe
    else:
        universe = tuple(sorted({a.group for a in annotations if a.group is not None}))

    # Overlapping concepts from one system resolve by the longest-span /
    # highest-score / seeded cascade; gold spans merge later in mask building.
    policy = DisambiguationPolicy(seed=cfg.seed)
    by_slice: dict[tuple[str, str], list] = {}
    for ann in annotations:
        by_slice.setdefault((ann.source, ann.doc_id), []).append(ann)
    final = []
    for (source, _doc_id), slice_anns in sorted(by_slice.items()):
        if source == cfg.gold_source:
            final.extend(slice_anns)
        else:
            final.extend(disambiguate_overlaps(slice_anns, policy))

    return AnnotationStore(
        documents,
        final,
        group_universe=universe,
        sources=[cfg.gold_source, *cfg.systems],
    )


def _corpus_label(cfg: RunConfig, store: AnnotationStore) -> str:
    if cfg.corpus_id:
        return cfg.corpus_id
    for doc in store.documents:
        if doc.corpus_id:
            return doc.corpus_id
    return "corpus"


def _groups_to_run(cfg: RunConfig, store: AnnotationStore) -> list[str]:
    if cfg.group != EACH_GROUP:
        return [cfg.group]
    universe = store.group_universe or store.groups_present()
    return list(universe) + [ALL_GROUPS]


def _task_ner_eval(cfg: RunConfig, store: AnnotationStore) -> str:
    corpus = _corpus_label(cfg, store)
    rows = []
    for group in _groups_to_run(cfg, store):
        for name in cfg.selected:
            metrics = evaluate_expression(store, Leaf(name), cfg.gold_source, group)
            rows.append(SystemRow(corpus, group, name, metrics))
    return emit_table(rows, report_mod.SINGLE_SYSTEMS, cfg.fmt)


def _task_ensemble_eval(cfg: RunConfig, store: AnnotationStore, expr_text: str) -> str:
    corpus = _corpus_label(cfg, store)
    tree = parse(expr_text, known_sources=cfg.selected)
    rows = []
    for group in _groups_to_run(cfg, store):
        metrics = evaluate_expression(store, tree, cfg.gold_source, group)
        rows.append(SystemRow(corpus, group, to_string(tree), metrics))
    return emit_table(rows, report_mod.SINGLE_SYSTEMS, cfg.fmt)


def _task_search(cfg: RunConfig, store: AnnotationStore, args: argparse.Namespace) -> str:
    corpus = _corpus_label(cfg, store)
    blocks = []
    for group in _groups_to_run(cfg, store):
        config = SearchConfig(
            sources=cfg.selected,
            group=group,
            min_size=args.min_size,
            max_size=args.max_size,
            mode=args.mode,
            sample_budget=args.budget,
            seed=cfg.seed,
            top_k=args.top_k,
            beat_singles_f1_only=args.f1_only,
        )
        blocks.append(PanelBlock(corpus, group, grid_search(store, cfg.gold_source, config)))
    return emit_table(blocks, report_mod.ENSEMBLE_PANELS, cfg.fmt)


def _task_vote(cfg: RunConfig, store: AnnotationStore) -> str:
    corpus = _corpus_label(cfg, store)
    rows = []
    for group in _groups_to_run(cfg, store):
        metrics = majority_vote_eval(store, cfg.selected, cfg.gold_source, group, cfg.seed)
        rows.append(VoteRow(corpus, group, cfg.selected, metrics))
    return emit_table(rows, report_mod.VOTE, cfg.fmt)


def _task_cui_eval(cfg: RunConfig, store: AnnotationStore, args: argparse.Namespace) -> str:
    corpus = _corpus_label(cfg, store)
    tree = parse(args.expr, known_sources=cfg.selected)
    rows = []
    for group in _groups_to_run(cfg, store):
        ensemble, singles = cui_scores(
            store, tree, cfg.gold_source, level=args.level, seed=cfg.seed, group=group
        )
        rows.append(CuiRow(corpus, group, args.level, to_string(tree), "ensemble", ensemble))
        for source, single in singles.items():
            rows.append(CuiRow(corpus, group, args.level, source, "single", single))
    return emit_table(rows, report_mod.CUI, cfg.fmt)


def _task_complementarity(cfg: RunConfig, store: AnnotationStore) -> str:
    corpus = _corpus_label(cfg, store)
    rows = []
    for group in _groups_to_run(cfg, store):
        gold = corpus_masks(store, cfg.gold_source, group)
        masks = {name: corpus_masks(store, name, group) for name in cfg.selected}
        errors = {name: error_set(gold, masks[name]) for name in cfg.selected}
        for a in cfg.selected:
            for b in cfg.selected:
                if a == b:
                    continue
                rate = comp_rate(errors[a], errors[b])
                restricted = comp_prf(gold, masks[a], masks[b])
                rows.append(ComplementarityRow(corpus, group, a, b, rate, restricted))
    return emit_table(rows, report_mod.COMPLEMENTARITY, cfg.fmt)


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
    store = generate(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(store.documents, out_dir / "manifest.jsonl")
    system_files = {}
    for source in store.sources:
        anns = [a for a in store.annotations if a.source == source]
        filename = f"{source}.jsonl"
        write_annotations(anns, out_dir / filename)
        if source != GOLD_SOURCE:
            system_files[source] = filename
    config = {
        "manifest": "manifest.jsonl",
        "gold": f"{GOLD_SOURCE}.jsonl",
        "systems": system_files,
        "corpus_id": spec.corpus_id,
    }
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return (
        f"wrote {len(store.documents)} docs, {len(store.annotations)} annotations, "
        f"{len(system_files)} systems to {out_dir}\n"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="span-ensembles",
        description="Boolean combination ensembles over annotation sets: evaluation and search",
    )
    sub = parser.add_subparsers(dest="task", required=True)

    def add_io_args(p):
        p.add_argument("--config", help="JSON run config with manifest/gold/systems paths")
        p.add_argument("--manifest", help="corpus manifest JSONL (overrides config)")
        p.add_argument("--gold", help="gold annotations JSONL (overrides config)")
        p.add_argument(
            "--system",
            action="append",
            metavar="NAME=PATH",
            help="system annotations JSONL; repeatable (overrides config)",
        )
        p.add_argument("--systems", help="comma list selecting a subset of systems")
        p.add_argument("--semgroups", help="pipe-delimited semantic groups file")
        p.add_argument("--overrides", help="JSONL (source, native_type) -> group overrides")
        p.add_argument("--corpus-id", dest="corpus_id", help="corpus label for report rows")
        p.add_argument("--group", help="semantic group filter: label, 'all', or 'each'")
        p.add_argument("--seed", type=int, default=0, help="master seed for tie-breaks")
        p.add_argument(
            "--format",
            choices=[report_mod.CSV_FORMAT, report_mod.MARKDOWN_FORMAT, report_mod.JSON_FORMAT],
            default=report_mod.CSV_FORMAT,
        )
        p.add_argument("--out", help="write the report here instead of stdout")

    add_io_args(sub.add_parser("ner-eval", help="score each system against gold"))

    p_expr = sub.add_parser("ensemble-eval", help="score one Boolean combination")
    add_io_args(p_expr)
    p_expr.add_argument("--expr", required=True, help="expression, e.g. '((A&B)|C)'")

    p_search = sub.add_parser("search", help="grid search over the ensemble space")
    add_io_args(p_search)
    p_search.add_argument("--top-k", dest="top_k", type=int, default=10)
    p_search.add_argument("--min-size", dest="min_size", type=int, default=1)
    p_search.add_argument("--max-size", dest="max_size", type=int, default=None)
    p_search.add_argument("--mode", choices=["exhaustive", "sampled"], default=EXHAUSTIVE)
    p_search.add_argument("--budget", type=int, default=None, help="sample budget in sampled mode")
    p_search.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
    p_search.add_argument(
        "--f1-only",
        dest="f1_only",
        action="store_true",
        help="relax 'beats all singles' to F1 only",
    )

    add_io_args(sub.add_parser("vote", help="majority vote over the selected systems"))

    p_cui = sub.add_parser("cui-eval", help="concept-matching score of a union ensemble")
    add_io_args(p_cui)
    p_cui.add_argument("--expr", required=True, help="union-only expression, e.g. '((B|D)|E)'")
    p_cui.add_argument("--level", choices=["doc", "mention"], default=DOC_LEVEL)

    add_io_args(sub.add_parser("complementarity", help="pairwise complementarity measures"))

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
    if args.task == "synth":
        return _task_synth(args)
    cfg = _resolve_run_config(args)
    store = _build_store(cfg)
    if args.task == "ner-eval":
        return _task_ner_eval(cfg, store)
    if args.task == "ensemble-eval":
        return _task_ensemble_eval(cfg, store, args.expr)
    if args.task == "search":
        return _task_search(cfg, store, args)
    if args.task == "vote":
        return _task_vote(cfg, store)
    if args.task == "cui-eval":
        return _task_cui_eval(cfg, store, args)
    if args.task == "complementarity":
        return _task_complementarity(cfg, store)
    raise ConfigError(f"unknown task {args.task!r}")


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
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
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
