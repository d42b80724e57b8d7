import json

import pytest

from span_ensembles import (
    Annotation,
    DisambiguationPolicy,
    DocumentRef,
    ParseError,
    ValidationError,
    apply_group_mapping,
    disambiguate_overlaps,
    load_annotations,
    load_corpus_manifest,
    load_semantic_group_map,
    write_annotations,
    write_manifest,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_lines(path, ['{"doc_id":"d1","length":120,"corpus_id":"synth"}'])
    docs = load_corpus_manifest(path)
    assert docs == [DocumentRef("d1", 120, "synth")]


def test_manifest_empty_file(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_corpus_manifest(path) == []


def test_manifest_negative_length(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_lines(path, ['{"doc_id":"d1","length":-3,"corpus_id":"x"}'])
    with pytest.raises(ValidationError):
        load_corpus_manifest(path)


def test_manifest_duplicate_id(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_lines(
        path,
        ['{"doc_id":"d1","length":5,"corpus_id":"x"}', '{"doc_id":"d1","length":9,"corpus_id":"x"}'],
    )
    with pytest.raises(ValidationError, match="duplicate"):
        load_corpus_manifest(path)


def test_manifest_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_lines(path, ['{"doc_id":"d1","length":5}', "{oops"])
    with pytest.raises(ParseError, match=":2:"):
        load_corpus_manifest(path)


DOCS = {"d1": DocumentRef("d1", 100, "x")}


def test_load_annotations_basic(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(
        path,
        [
            '{"doc_id":"d1","source":"A","begin":5,"end":12,'
            '"native_type":"DrugMention","cui":"C0004057","score":0.91}'
        ],
    )
    anns = load_annotations(path, DOCS, expected_source="A")
    assert anns[0].begin == 5 and anns[0].cui == "C0004057"


def test_load_annotations_optional_fields(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(path, ['{"doc_id":"d1","source":"A","begin":1,"end":2}'])
    (ann,) = load_annotations(path, DOCS)
    assert ann.cui is None and ann.score is None


def test_load_annotations_inverted_span(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(path, ['{"doc_id":"d1","source":"A","begin":12,"end":5}'])
    with pytest.raises(ValidationError):
        load_annotations(path, DOCS)


def test_load_annotations_lists_all_offenders(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(
        path,
        [
            '{"doc_id":"d1","source":"A","begin":0,"end":500}',
            '{"doc_id":"ghost","source":"A","begin":0,"end":5}',
            '{"doc_id":"d1","source":"B","begin":0,"end":5}',
        ],
    )
    with pytest.raises(ValidationError) as err:
        load_annotations(path, DOCS, expected_source="A")
    message = str(err.value)
    assert "3 invalid" in message and ":1:" in message and ":2:" in message and ":3:" in message


def test_load_annotations_ignores_unknown_fields(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(path, ['{"doc_id":"d1","source":"A","begin":0,"end":5,"text":"hi","extra":1}'])
    assert len(load_annotations(path, DOCS)) == 1


SEMGROUPS = [
    "ANAT|Anatomy|T017|Anatomical Structure",
    "ANAT|Anatomy|T023|Body Part, Organ, or Organ Component",
    "CHEM|Chemicals & Drugs|T121|Pharmacologic Substance",
    "DISO|Disorders|T047|Disease or Syndrome",
]


def test_semantic_group_map(tmp_path):
    path = tmp_path / "groups.txt"
    write_lines(path, SEMGROUPS)
    gmap = load_semantic_group_map(path)
    assert gmap.tui_to_group["T017"] == "Anatomy"
    assert gmap.group_universe == ("Anatomy", "Chemicals & Drugs", "Disorders")


def test_semantic_group_map_wrong_columns(tmp_path):
    path = tmp_path / "groups.txt"
    write_lines(path, ["ANAT|Anatomy|T017"])
    with pytest.raises(ParseError):
        load_semantic_group_map(path)


def test_overrides(tmp_path):
    groups = tmp_path / "groups.txt"
    write_lines(groups, SEMGROUPS)
    overrides = tmp_path / "overrides.jsonl"
    write_lines(
        overrides,
        ['{"source":"A","native_type":"DrugMention","group":"Chemicals & Drugs"}'],
    )
    gmap = load_semantic_group_map(groups, overrides)
    assert gmap.native_to_group[("A", "DrugMention")] == "Chemicals & Drugs"


def test_override_unknown_group(tmp_path):
    groups = tmp_path / "groups.txt"
    write_lines(groups, SEMGROUPS)
    overrides = tmp_path / "overrides.jsonl"
    write_lines(overrides, ['{"source":"A","native_type":"X","group":"Findings"}'])
    with pytest.raises(ValidationError):
        load_semantic_group_map(groups, overrides)


def test_apply_group_mapping(tmp_path):
    groups = tmp_path / "groups.txt"
    write_lines(groups, SEMGROUPS)
    overrides = tmp_path / "overrides.jsonl"
    write_lines(
        overrides,
        ['{"source":"A","native_type":"DrugMention","group":"Chemicals & Drugs"}'],
    )
    gmap = load_semantic_group_map(groups, overrides)
    anns = [
        Annotation("d1", "A", 0, 5, native_type="DrugMention"),
        Annotation("d1", "A", 10, 15, native_type="T017"),
        Annotation("d1", "A", 20, 25, native_type="UnheardOf"),
        Annotation("d1", "gold", 30, 35, group="Disorders"),  # already grouped
    ]
    outcome = apply_group_mapping(anns, gmap)
    groups_assigned = [a.group for a in outcome.annotations]
    assert groups_assigned == ["Chemicals & Drugs", "Anatomy", "Disorders"]
    assert outcome.dropped == 1
    assert outcome.dropped_types[("A", "UnheardOf")] == 1


def test_disambiguate_longest_wins():
    anns = [
        Annotation("d1", "A", 0, 10, group="g"),
        Annotation("d1", "A", 3, 8, group="g"),
    ]
    kept = disambiguate_overlaps(anns, DisambiguationPolicy(seed=1))
    assert [(a.begin, a.end) for a in kept] == [(0, 10)]


def test_disambiguate_score_breaks_length_tie():
    anns = [
        Annotation("d1", "A", 0, 5, group="g", score=0.9),
        Annotation("d1", "A", 2, 7, group="g", score=0.7),
    ]
    kept = disambiguate_overlaps(anns, DisambiguationPolicy(seed=1))
    assert [(a.begin, a.end) for a in kept] == [(0, 5)]


def test_disambiguate_missing_score_ranks_lowest():
    anns = [
        Annotation("d1", "A", 0, 5, group="g"),
        Annotation("d1", "A", 2, 7, group="g", score=0.1),
    ]
    kept = disambiguate_overlaps(anns, DisambiguationPolicy(seed=1))
    assert [(a.begin, a.end) for a in kept] == [(2, 7)]


def test_disambiguate_seeded_tie_is_reproducible():
    anns = [
        Annotation("d1", "A", 0, 5, group="g"),
        Annotation("d1", "A", 2, 7, group="g"),
    ]
    first = disambiguate_overlaps(anns, DisambiguationPolicy(seed=42))
    second = disambiguate_overlaps(anns, DisambiguationPolicy(seed=42))
    assert first == second
    assert len(first) == 1


def test_disambiguate_survivor_outside_winner_reach():
    # middle span wins on length; the right span does not overlap it and survives
    anns = [
        Annotation("d1", "A", 0, 5, group="g"),
        Annotation("d1", "A", 4, 12, group="g"),
        Annotation("d1", "A", 13, 17, group="g"),
    ]
    kept = disambiguate_overlaps(anns, DisambiguationPolicy(seed=1))
    assert [(a.begin, a.end) for a in kept] == [(4, 12), (13, 17)]


def test_disambiguate_properties():
    import random

    rng = random.Random(777)
    for _ in range(100):
        anns = [
            Annotation(
                "d1",
                "A",
                begin,
                begin + rng.randrange(1, 8),
                group="g",
                score=rng.choice([None, round(rng.random(), 2)]),
            )
            for begin in (rng.randrange(0, 40) for _ in range(rng.randrange(0, 10)))
        ]
        policy = DisambiguationPolicy(seed=5)
        kept = disambiguate_overlaps(anns, policy)
        # selection, never synthesis
        assert all(any(k == a for a in anns) for k in kept)
        assert len(kept) <= len(anns)
        # idempotent and deterministic
        assert disambiguate_overlaps(kept, policy) == kept
        assert disambiguate_overlaps(anns, policy) == kept
        # pairwise non-overlapping per group
        spans = sorted((a.begin, a.end) for a in kept)
        assert all(spans[i][1] <= spans[i + 1][0] for i in range(len(spans) - 1))


def test_disambiguate_rejects_mixed_slices():
    anns = [Annotation("d1", "A", 0, 5), Annotation("d2", "A", 0, 5)]
    with pytest.raises(ValidationError):
        disambiguate_overlaps(anns, DisambiguationPolicy())


def test_jsonl_roundtrip(tmp_path):
    docs = [DocumentRef("d1", 50, "x"), DocumentRef("d2", 60, "x")]
    anns = [
        Annotation("d1", "A", 0, 5, group="Anatomy", cui="C0000001", score=0.5),
        Annotation("d2", "A", 10, 20, group="Disorders"),
    ]
    write_manifest(docs, tmp_path / "m.jsonl")
    write_annotations(anns, tmp_path / "a.jsonl")
    docs_back = load_corpus_manifest(tmp_path / "m.jsonl")
    anns_back = load_annotations(tmp_path / "a.jsonl", docs_back, expected_source="A")
    assert docs_back == docs
    assert anns_back == anns


def test_written_records_have_expected_fields(tmp_path):
    write_annotations([Annotation("d1", "A", 0, 5)], tmp_path / "a.jsonl")
    record = json.loads((tmp_path / "a.jsonl").read_text().strip())
    assert record == {"doc_id": "d1", "source": "A", "begin": 0, "end": 5}


def test_load_annotations_reports_every_malformed_record(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(
        path,
        [
            '{"doc_id":"d1","source":"A","begin":0,"end":5}',
            "{oops",
            '{"doc_id":"d1","source":"A","begin":1,"end":4}',
            '{"doc_id":"d1","source":"A","begin":"x","end":4}',
            "[1, 2]",
            '{"doc_id":"d1","source":"A","end":4}',
        ],
    )
    with pytest.raises(ParseError) as err:
        load_annotations(path, DOCS)
    message = str(err.value)
    assert message.startswith("4 malformed annotation record(s)")
    for lineno in (2, 4, 5, 6):
        assert f"{path}:{lineno}:" in message
    assert f"{path}:1:" not in message and f"{path}:3:" not in message
    assert err.value.position == 2
