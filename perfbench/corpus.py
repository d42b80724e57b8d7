"""Seeded corpus generator of the benchmark.

The generator is the benchmark's own: it draws from numpy's PCG64 stream and
never calls the program's ``synth`` or ``seeds`` modules, so a change to the
program's keyed hash cannot change the inputs a commit is scored on.

Every corpus has documents of ``DOC_LENGTH`` characters with ``DENSITY`` gold
spans per 1000 characters, ``SPAN_LEN`` characters long and disjoint (at
least one character apart).  Each corpus mixes:

* clean systems, which only miss gold spans (no jitter, no spurious spans),
  so their spans stay disjoint, disambiguation leaves them unchanged and
  their counts can be computed exactly by ``reference``;
* noisy systems, with correlated misses, boundary jitter, spurious spans,
  wrong concept ids and coarse scores, so that disambiguation, its score and
  seeded tie-breaks, and majority-vote ties all run.

When a corpus is "mapped", gold carries its group label and the systems emit
native semantic types that the program maps through a semantic-groups file
and a per-source overrides file; a share of the types is left unmapped.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GROUPS = ("Anatomy", "Chemicals & Drugs", "Disorders", "Procedures")
GROUP_ABBREV = ("ANAT", "CHEM", "DISO", "PROC")
TUIS_PER_GROUP = 3
UNMAPPED_TYPE = "T999"
DOC_LENGTH = 2000
DENSITY = 50.0  # gold spans per 1000 characters
SPAN_LEN = (3, 9)  # shortest and longest span, in characters
CORRELATION = 0.3  # share of noisy-system draws taken from a shared stream


def tui_of(group_index: int, k: int) -> str:
    return f"T{100 * (group_index + 1) + k:03d}"


def override_label(source: str, group_index: int) -> str:
    """Source-specific native label that only the overrides file maps."""
    return f"{source.lower()}-{GROUP_ABBREV[group_index].lower()}"


@dataclass(frozen=True)
class SystemSpec:
    name: str
    clean: bool
    miss: float
    jitter: int = 0
    spurious: float = 0.0  # spurious spans per 1000 characters
    cui_error: float = 0.0  # share of kept spans given a wrong concept id
    unmapped: float = 0.0  # share of spans emitted with an unmapped native type
    override_labels: bool = False  # emit source-specific labels instead of TUIs


@dataclass(frozen=True)
class CorpusSpec:
    n_docs: int
    systems: tuple[SystemSpec, ...]
    cui_vocab: int = 0  # 0 = no concept ids
    mapped: bool = False


def _gold_layout(rng: np.random.Generator):
    n = int(round(DENSITY * DOC_LENGTH / 1000.0))
    lo, hi = SPAN_LEN
    lengths = rng.integers(lo, hi + 1, size=n)
    free = DOC_LENGTH - int(lengths.sum()) - (n - 1)
    if free < 0:
        raise ValueError("gold spans do not fit in the document")
    gaps = np.diff(np.concatenate(([0], np.sort(rng.integers(0, free + 1, size=n)))))
    gaps[1:] += 1
    begins = np.cumsum(gaps) + np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return begins, begins + lengths


def _record(doc_id, source, begin, end, group=None, native=None, cui=None, score=None) -> str:
    parts = [f'"doc_id": "{doc_id}", "source": "{source}", "begin": {begin}, "end": {end}']
    if group is not None:
        parts.append(f'"group": {json.dumps(group)}')
    if native is not None:
        parts.append(f'"native_type": "{native}"')
    if cui is not None:
        parts.append(f'"cui": "{cui}"')
    if score is not None:
        parts.append(f'"score": {score}')
    return "{" + ", ".join(parts) + "}\n"


def _cui(index: int) -> str:
    return f"C{index + 1:07d}"


def _native(rng, sysspec: SystemSpec, group_index: int) -> str:
    if sysspec.unmapped and rng.random() < sysspec.unmapped:
        return UNMAPPED_TYPE
    if sysspec.override_labels:
        return override_label(sysspec.name, group_index)
    return tui_of(group_index, int(rng.integers(TUIS_PER_GROUP)))


def write_semantic_groups(path: Path) -> None:
    lines = []
    for g, (abbrev, name) in enumerate(zip(GROUP_ABBREV, GROUPS)):
        for k in range(TUIS_PER_GROUP):
            lines.append(f"{abbrev}|{name}|{tui_of(g, k)}|type {g}.{k}\n")
    path.write_text("".join(lines), encoding="utf-8")


def write_overrides(path: Path, systems) -> None:
    lines = [
        json.dumps({"source": s.name, "native_type": override_label(s.name, g), "group": name})
        + "\n"
        for s in systems
        if s.override_labels
        for g, name in enumerate(GROUPS)
    ]
    path.write_text("".join(lines), encoding="utf-8")


def generate(spec: CorpusSpec, seed: int, out_dir: Path) -> dict:
    """Write manifest, gold, one file per system and a config into ``out_dir``.

    Returns the corpus description that ``reference`` and the checks read.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.PCG64(seed))
    names = [s.name for s in spec.systems]
    handles = {name: open(out_dir / f"{name}.jsonl", "w", encoding="utf-8") for name in names}
    handles["gold"] = open(out_dir / "gold.jsonl", "w", encoding="utf-8")
    records = 0
    try:
        with open(out_dir / "manifest.jsonl", "w", encoding="utf-8") as manifest:
            for d in range(spec.n_docs):
                doc_id = f"d{d:05d}"
                manifest.write(
                    f'{{"doc_id": "{doc_id}", "length": {DOC_LENGTH}, "corpus_id": "bench"}}\n'
                )
                records += _write_doc(rng, spec, doc_id, handles)
    finally:
        for handle in handles.values():
            handle.close()

    config = {
        "manifest": "manifest.jsonl",
        "gold": "gold.jsonl",
        "systems": {name: f"{name}.jsonl" for name in names},
        "corpus_id": "bench",
    }
    if spec.mapped:
        write_semantic_groups(out_dir / "semgroups.txt")
        write_overrides(out_dir / "overrides.jsonl", spec.systems)
        config["semgroups"] = "semgroups.txt"
        config["overrides"] = "overrides.jsonl"
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return {
        "records": records,
        "clean": [s.name for s in spec.systems if s.clean],
        "mapped": spec.mapped,
        "digest": input_digest(out_dir),
    }


def _write_doc(rng, spec: CorpusSpec, doc_id: str, handles) -> int:
    begins, ends = _gold_layout(rng)
    n = len(begins)
    groups = rng.integers(len(GROUPS), size=n)
    cuis = rng.integers(spec.cui_vocab, size=n) if spec.cui_vocab else None
    shared = rng.random((n, 4))  # miss, begin jitter, end jitter, score
    records = 0

    gold_lines = []
    for i in range(n):
        gold_lines.append(
            _record(
                doc_id, "gold", int(begins[i]), int(ends[i]), group=GROUPS[groups[i]],
                cui=_cui(int(cuis[i])) if cuis is not None else None,
            )
        )
    handles["gold"].write("".join(gold_lines))
    records += n

    lo, hi = SPAN_LEN
    for s in spec.systems:
        own = rng.random((n, 4))
        if s.clean:
            draws = own
        else:
            coin = rng.random((n, 4))
            draws = np.where(coin < CORRELATION, shared, own)
        lines = []
        for i in np.flatnonzero(draws[:, 0] >= s.miss):
            b, e = int(begins[i]), int(ends[i])
            if s.jitter:
                width = 2 * s.jitter + 1
                b = min(max(b + int(draws[i, 1] * width) - s.jitter, 0), DOC_LENGTH - 1)
                e = min(max(e + int(draws[i, 2] * width) - s.jitter, b + 1), DOC_LENGTH)
            cui = None
            if cuis is not None:
                c = int(cuis[i])
                if s.cui_error and rng.random() < s.cui_error:
                    c = int(rng.integers(spec.cui_vocab))
                cui = _cui(c)
            lines.append(_span_line(rng, spec, s, doc_id, b, e, int(groups[i]), cui, draws[i, 3]))
        n_spur = int(round(s.spurious * DOC_LENGTH / 1000.0))
        for _ in range(n_spur):
            span = int(rng.integers(lo, hi + 1))
            b = int(rng.integers(0, DOC_LENGTH - span + 1))
            cui = _cui(int(rng.integers(spec.cui_vocab))) if spec.cui_vocab else None
            lines.append(
                _span_line(rng, spec, s, doc_id, b, b + span, int(rng.integers(len(GROUPS))),
                           cui, rng.random())
            )
        handles[s.name].write("".join(lines))
        records += len(lines)
    return records


def _span_line(rng, spec, s: SystemSpec, doc_id, b, e, group_index, cui, score_draw) -> str:
    # Noisy systems score on a coarse 0.1 grid so equal-length overlaps often
    # tie on score and reach the seeded pick.
    score = None if s.clean else round(float(score_draw) * 10) / 10
    if spec.mapped:
        return _record(doc_id, s.name, b, e, native=_native(rng, s, group_index), cui=cui,
                       score=score)
    return _record(doc_id, s.name, b, e, group=GROUPS[group_index], cui=cui, score=score)


def input_digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every input file, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.iterdir() if p.is_file()):
        if path.suffix in (".jsonl", ".txt") or path.name == "config.json":
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()
