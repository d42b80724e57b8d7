"""Deterministic synthetic corpus and annotator generator.

Gold spans are placed first; each simulated source derives its output from
gold by dropping spans (miss rate), jittering boundaries, and injecting
spurious spans.  A correlation coefficient interpolates between fully
independent error draws (0) and fully shared ones (1).  Every random decision
is a keyed hash draw, so output is a pure function of the spec and raising an
error rate never reshuffles the other decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import seeds
from .errors import ValidationError
from .model import ALL_GROUPS, GOLD_SOURCE, Annotation, AnnotationStore, DocumentRef

DEFAULT_GROUPS = ("Anatomy", "Chemicals & Drugs", "Disorders", "Procedures")


@dataclass(frozen=True)
class SourceSpec:
    """Error profile of one simulated annotator."""

    name: str
    miss_rate: float = 0.0
    spurious_rate: float = 0.0  # injected spans per 1000 characters
    jitter: int = 0  # max boundary shift in characters


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a synthetic corpus: gold span layout plus per-source noise."""

    n_docs: int
    doc_length: int
    sources: tuple[SourceSpec, ...]
    span_density: float = 5.0  # gold spans per 1000 characters
    span_len_min: int = 3
    span_len_max: int = 10
    groups: tuple[str, ...] = DEFAULT_GROUPS
    error_correlation: float = 0.0
    cui_vocab: int = 0  # 0 = no concept ids
    emit_scores: bool = False
    corpus_id: str = "synth"
    seed: int = 0


def _validate(spec: SynthSpec) -> None:
    if spec.n_docs < 1 or spec.doc_length < 1:
        raise ValidationError("need at least one document of positive length")
    if not spec.sources:
        raise ValidationError("need at least one source")
    names = [s.name for s in spec.sources]
    if len(set(names)) != len(names) or GOLD_SOURCE in names:
        raise ValidationError("source names must be unique and must not shadow gold")
    if not spec.groups or ALL_GROUPS in spec.groups:
        raise ValidationError("groups must be non-empty and must not contain the ALL sentinel")
    if not 0.0 <= spec.error_correlation <= 1.0:
        raise ValidationError("error correlation must lie in [0, 1]")
    if spec.span_density < 0 or spec.cui_vocab < 0:
        raise ValidationError("span density and cui vocabulary must be non-negative")
    if not 1 <= spec.span_len_min <= spec.span_len_max <= spec.doc_length:
        raise ValidationError("bad span length range")
    for src in spec.sources:
        if not 0.0 <= src.miss_rate <= 1.0:
            raise ValidationError(f"source {src.name!r}: miss rate outside [0, 1]")
        if src.spurious_rate < 0:
            raise ValidationError(f"source {src.name!r}: negative spurious rate")
        if src.jitter < 0 or src.jitter >= spec.span_len_min:
            raise ValidationError(
                f"source {src.name!r}: jitter must lie in [0, span_len_min)"
            )
    n_spans = _spans_per_doc(spec)
    if n_spans and n_spans * spec.span_len_max + (n_spans - 1) > spec.doc_length:
        raise ValidationError(
            f"infeasible spec: {n_spans} spans of up to {spec.span_len_max} chars "
            f"cannot fit in {spec.doc_length} chars"
        )


def _spans_per_doc(spec: SynthSpec) -> int:
    return int(round(spec.span_density * spec.doc_length / 1000.0))


def _gold_spans(spec: SynthSpec, doc_id: str) -> list[Annotation]:
    n_spans = _spans_per_doc(spec)
    if n_spans == 0:
        return []
    lengths = [
        seeds.randint(spec.span_len_min, spec.span_len_max, spec.seed, doc_id, "gold", i, "len")
        for i in range(n_spans)
    ]
    free = spec.doc_length - sum(lengths) - (n_spans - 1)
    cuts = sorted(
        seeds.randint(0, free, spec.seed, doc_id, "gold", i, "gap") for i in range(n_spans)
    )
    cuts = [0] + cuts + [free]
    spans = []
    cursor = 0
    for i, length in enumerate(lengths):
        cursor += cuts[i + 1] - cuts[i] + (1 if i else 0)
        group = spec.groups[
            seeds.pick_index(len(spec.groups), spec.seed, doc_id, "gold", i, "group")
        ]
        cui = None
        if spec.cui_vocab:
            cui = f"C{1 + seeds.pick_index(spec.cui_vocab, spec.seed, doc_id, 'gold', i, 'cui'):07d}"
        spans.append(
            Annotation(
                doc_id=doc_id,
                source=GOLD_SOURCE,
                begin=cursor,
                end=cursor + length,
                group=group,
                cui=cui,
            )
        )
        cursor += length
    return spans


def _mixed_unit(
    spec: SynthSpec, src: SourceSpec, prefix: tuple, name: str, coin: Optional[str] = None
) -> float:
    """One uniform draw ``name`` under the key ``prefix``: with probability
    equal to the correlation coefficient from the shared stream, keyed
    ``(*prefix, "shared", name)``, else from the source's own, keyed
    ``(*prefix, src.name, name)``.  The coin that chooses is keyed
    ``(*prefix, src.name, coin)``, by default ``coin`` = ``"coin-" + name``."""
    rho = spec.error_correlation
    if rho > 0.0 and seeds.unit(spec.seed, *prefix, src.name, coin or "coin-" + name) < rho:
        return seeds.unit(spec.seed, *prefix, "shared", name)
    return seeds.unit(spec.seed, *prefix, src.name, name)


def _derive_source_annotations(
    spec: SynthSpec, src: SourceSpec, doc_id: str, gold: list[Annotation]
) -> list[Annotation]:
    out: list[Annotation] = []
    for i, span in enumerate(gold):
        prefix = (doc_id, i)
        if _mixed_unit(spec, src, prefix=prefix, name="miss") < src.miss_rate:
            continue
        begin, end = span.begin, span.end
        if src.jitter:
            width = 2 * src.jitter + 1
            f_begin = _mixed_unit(spec, src, prefix=prefix, name="jb")
            f_end = _mixed_unit(spec, src, prefix=prefix, name="je")
            begin = begin + math.floor(f_begin * width) - src.jitter
            end = end + math.floor(f_end * width) - src.jitter
            begin = min(max(begin, 0), spec.doc_length - 1)
            end = min(max(end, begin + 1), spec.doc_length)
        score = None
        if spec.emit_scores:
            score = round(_mixed_unit(spec, src, prefix=prefix, name="score"), 4)
        out.append(
            Annotation(
                doc_id=doc_id,
                source=src.name,
                begin=begin,
                end=end,
                group=span.group,
                cui=span.cui,
                score=score,
            )
        )
    n_spurious = int(round(src.spurious_rate * spec.doc_length / 1000.0))
    for m in range(n_spurious):
        prefix = (doc_id, "spur", m)
        f_len = _mixed_unit(spec, src, prefix=prefix, name="len")
        length = spec.span_len_min + math.floor(
            f_len * (spec.span_len_max - spec.span_len_min + 1)
        )
        f_pos = _mixed_unit(spec, src, prefix=prefix, name="pos")
        begin = math.floor(f_pos * (spec.doc_length - length + 1))
        f_group = _mixed_unit(spec, src, prefix=prefix, name="group")
        group = spec.groups[math.floor(f_group * len(spec.groups))]
        cui = None
        if spec.cui_vocab:
            f_cui = _mixed_unit(spec, src, prefix=prefix, name="cui")
            cui = f"C{1 + math.floor(f_cui * spec.cui_vocab):07d}"
        score = None
        if spec.emit_scores:
            draw = _mixed_unit(spec, src, prefix=prefix, name="score", coin="coin-spscore")
            score = round(draw, 4)
        out.append(
            Annotation(
                doc_id=doc_id,
                source=src.name,
                begin=begin,
                end=begin + length,
                group=group,
                cui=cui,
                score=score,
            )
        )
    out.sort(key=lambda a: (a.begin, a.end))
    return out


def _doc_id(index: int) -> str:
    return f"doc-{index:05d}"


def generate_annotations(spec: SynthSpec) -> tuple[list[DocumentRef], list[Annotation]]:
    """Documents, then gold plus one annotation set per source made from it, in
    generation order: per document, gold and then each source, by begin."""
    _validate(spec)
    documents = [
        DocumentRef(_doc_id(i), spec.doc_length, spec.corpus_id) for i in range(spec.n_docs)
    ]
    annotations: list[Annotation] = []
    for doc in documents:
        gold = _gold_spans(spec, doc.doc_id)
        annotations.extend(gold)
        for src in spec.sources:
            annotations.extend(_derive_source_annotations(spec, src, doc.doc_id, gold))
    return documents, annotations


def generate(spec: SynthSpec) -> AnnotationStore:
    """Build a store holding gold plus one annotation set per source made from it."""
    documents, annotations = generate_annotations(spec)
    return AnnotationStore(
        documents,
        annotations,
        group_universe=spec.groups,
        sources=[GOLD_SOURCE] + [s.name for s in spec.sources],
    )
