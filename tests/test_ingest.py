import json

import pytest

from span_ensembles import (
    Annotation,
    DocumentRef,
    ParseError,
    ValidationError,
    disambiguate_overlaps,
    load_annotations,
    load_corpus_manifest,
    load_semantic_group_map,
    write_annotations,
    write_manifest,
)
from span_ensembles.ingest import load_span_files, map_groups
from span_ensembles.model import SpanColumns


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


def test_manifest_reports_every_malformed_line(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_lines(
        path,
        [
            '{"doc_id":"d1","length":5}',
            "{oops",
            '{"doc_id":"d2","corpus_id":"x"}',
            "[1, 2]",
            '{"doc_id":"d3","length":"many"}',
            '{"doc_id":"d1","length":9}',
        ],
    )
    with pytest.raises(ParseError) as err:
        load_corpus_manifest(path)
    message = str(err.value)
    assert message.startswith("4 malformed manifest record(s)")
    for lineno, problem in ((2, "bad JSON"), (3, "missing field 'length'"),
                            (4, "expected a JSON object"),
                            (5, "field 'length' is a string, expected an integer")):
        assert f"{path}:{lineno}: {problem}" in message
    assert err.value.position == 2


def test_manifest_reports_every_invalid_record(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_lines(
        path,
        [
            '{"doc_id":"d1","length":5}',
            '{"doc_id":"d2","length":-1}',
            '{"doc_id":"d1","length":9}',
            '{"doc_id":"d3","length":4}',
        ],
    )
    with pytest.raises(ValidationError) as err:
        load_corpus_manifest(path)
    message = str(err.value)
    assert message.startswith("2 invalid manifest record(s)")
    assert f"{path}:2:" in message
    assert f"{path}:3: duplicate doc_id 'd1' (first at line 1)" in message


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


def test_overrides_report_every_bad_line(tmp_path):
    groups = tmp_path / "groups.txt"
    write_lines(groups, SEMGROUPS)
    overrides = tmp_path / "overrides.jsonl"
    write_lines(
        overrides,
        [
            '{"source":"A","native_type":"X","group":"Findings"}',
            "{oops",
            '{"source":"A","group":"Disorders"}',
            '{"source":"B","native_type":"Y","group":"Nowhere"}',
        ],
    )
    with pytest.raises(ParseError) as err:
        load_semantic_group_map(groups, overrides)
    message = str(err.value)
    assert message.startswith("2 malformed override record(s)")
    assert f"{overrides}:2: bad JSON" in message
    assert f"{overrides}:3: missing field 'native_type'" in message
    # invalid records are reported once the file parses
    write_lines(overrides, ['{"source":"A","native_type":"X","group":"Findings"}',
                            '{"source":"B","native_type":"Y","group":"Nowhere"}'])
    with pytest.raises(ValidationError) as err:
        load_semantic_group_map(groups, overrides)
    assert str(err.value).startswith("2 invalid override record(s)")
    assert f"{overrides}:1:" in str(err.value) and f"{overrides}:2:" in str(err.value)


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
    outcome = map_groups(SpanColumns.from_annotations(anns), gmap)
    groups_assigned = [a.group for a in outcome.columns.take(outcome.kept).annotations()]
    assert groups_assigned == ["Chemicals & Drugs", "Anatomy", "Disorders"]
    assert outcome.dropped == 1
    assert outcome.dropped_types[("A", "UnheardOf")] == 1


def test_disambiguate_longest_wins():
    anns = [
        Annotation("d1", "A", 0, 10, group="g"),
        Annotation("d1", "A", 3, 8, group="g"),
    ]
    kept = disambiguate_overlaps(anns, 1)
    assert [(a.begin, a.end) for a in kept] == [(0, 10)]


def test_disambiguate_score_breaks_length_tie():
    anns = [
        Annotation("d1", "A", 0, 5, group="g", score=0.9),
        Annotation("d1", "A", 2, 7, group="g", score=0.7),
    ]
    kept = disambiguate_overlaps(anns, 1)
    assert [(a.begin, a.end) for a in kept] == [(0, 5)]


def test_disambiguate_missing_score_ranks_lowest():
    anns = [
        Annotation("d1", "A", 0, 5, group="g"),
        Annotation("d1", "A", 2, 7, group="g", score=0.1),
    ]
    kept = disambiguate_overlaps(anns, 1)
    assert [(a.begin, a.end) for a in kept] == [(2, 7)]


def test_disambiguate_seeded_tie_is_reproducible():
    anns = [
        Annotation("d1", "A", 0, 5, group="g"),
        Annotation("d1", "A", 2, 7, group="g"),
    ]
    first = disambiguate_overlaps(anns, 42)
    second = disambiguate_overlaps(anns, 42)
    assert first == second
    assert len(first) == 1


def test_disambiguate_survivor_outside_winner_reach():
    # middle span wins on length; the right span does not overlap it and survives
    anns = [
        Annotation("d1", "A", 0, 5, group="g"),
        Annotation("d1", "A", 4, 12, group="g"),
        Annotation("d1", "A", 13, 17, group="g"),
    ]
    kept = disambiguate_overlaps(anns, 1)
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
        policy = 5
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
        disambiguate_overlaps(anns, 0)


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


def test_semantic_group_map_lists_every_bad_line(tmp_path):
    path = tmp_path / "groups.txt"
    write_lines(path, [SEMGROUPS[0], "ANAT", "DISO|Disorders|T047", SEMGROUPS[3]])
    with pytest.raises(ParseError) as err:
        load_semantic_group_map(path)
    message = str(err.value)
    assert message.startswith("2 malformed semantic group record(s)")
    assert f"{path}:2: expected 4 pipe-delimited fields, got 1" in message
    assert f"{path}:3: expected 4 pipe-delimited fields, got 3" in message
    assert err.value.position == 2


def test_offsets_and_lengths_must_be_integers(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(
        path,
        [
            '{"doc_id":"d1","source":"A","begin":5.7,"end":9.9}',
            '{"doc_id":"d1","source":"A","begin":true,"end":4}',
            '{"doc_id":"d1","source":"A","begin":0,"end":"12"}',
            '{"doc_id":"d1","source":"A","begin":0,"end":12}',
            '{"doc_id":"d1","source":"A","begin":5.0,"end":9}',
        ],
    )
    with pytest.raises(ParseError) as err:
        load_annotations(path, DOCS)
    message = str(err.value)
    assert message.startswith("4 malformed annotation record(s)")
    assert message.splitlines()[1:] == [
        f"{path}:1: field 'begin' is a float, expected an integer",
        f"{path}:2: field 'begin' is a boolean, expected an integer",
        f"{path}:3: field 'end' is a string, expected an integer",
        f"{path}:5: field 'begin' is a float, expected an integer",
    ]

    manifest = tmp_path / "manifest.jsonl"
    write_lines(
        manifest,
        [
            '{"doc_id":"d1","length":5.5}',
            '{"doc_id":"d2","length":true}',
            '{"doc_id":"d3","length":"12"}',
            '{"doc_id":"d4","length":12}',
        ],
    )
    with pytest.raises(ParseError) as err:
        load_corpus_manifest(manifest)
    message = str(err.value)
    assert message.startswith("3 malformed manifest record(s)")
    assert f"{manifest}:1: field 'length' is a float, expected an integer" in message
    assert f"{manifest}:2: field 'length' is a boolean, expected an integer" in message
    assert f"{manifest}:3: field 'length' is a string, expected an integer" in message


def test_each_field_has_one_json_type(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(
        path,
        [
            '{"doc_id":"d1","source":"A","begin":0,"end":5,"score":1}',
            '{"doc_id":"d1","source":"A","begin":0,"end":5,"score":"0.5"}',
            '{"doc_id":"d1","source":"A","begin":0,"end":5,"score":' + "9" * 400 + "}",
            '{"doc_id":"d1","source":"A","begin":0,"end":5,"cui":["C0000001"]}',
            # two faults: the first bad field in column order names the problem
            '{"doc_id":7,"begin":0,"end":5}',
            '{"source":7,"begin":0,"end":5}',
            '{"doc_id":"d1","source":"A","begin":null,"end":5}',
            '{"doc_id":"d1","source":"A","begin":0,"end":5,"group":null,"native_type":null}',
        ],
    )
    with pytest.raises(ParseError) as err:
        load_annotations(path, DOCS)
    assert str(err.value).splitlines()[1:] == [
        f"{path}:2: field 'score' is a string, expected a number or null",
        f"{path}:3: field 'score' is an integer beyond 64 bits, expected a number or null",
        f"{path}:4: field 'cui' is an array, expected a string or null",
        f"{path}:5: field 'doc_id' is an integer, expected a string",
        f"{path}:6: missing field 'doc_id'",
        f"{path}:7: field 'begin' is null, expected an integer",
    ]
    write_lines(path, [path.read_text().splitlines()[i] for i in (0, 7)])
    assert load_annotations(path, DOCS) == [
        Annotation("d1", "A", 0, 5, score=1.0), Annotation("d1", "A", 0, 5),
    ]


def test_bad_records_are_listed_across_files(tmp_path):
    gold, system = tmp_path / "gold.jsonl", tmp_path / "a.jsonl"
    write_lines(gold, ['{"doc_id":"d1","source":"gold","begin":0,"end":5}', "{oops"])
    write_lines(system, ['{"doc_id":"d1","source":"A","begin":"x","end":5}'])
    with pytest.raises(ParseError) as err:
        load_span_files([("gold", gold), ("A", system)], DOCS)
    assert str(err.value).splitlines()[1:] == [
        f"{gold}:2: bad JSON (Expecting property name enclosed in double quotes)",
        f"{system}:1: field 'begin' is a string, expected an integer",
    ]
    assert err.value.position == 2


def test_manifest_and_override_fields_are_not_converted(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    write_lines(manifest, ['{"doc_id":"d1","length":5,"corpus_id":null}',
                           '{"doc_id":"d2","length":5}',
                           '{"doc_id":3,"length":5}', '{"doc_id":"d4","length":5,"corpus_id":4}'])
    with pytest.raises(ParseError) as err:
        load_corpus_manifest(manifest)
    assert str(err.value).splitlines()[1:] == [
        f"{manifest}:3: field 'doc_id' is an integer, expected a string",
        f"{manifest}:4: field 'corpus_id' is an integer, expected a string or null",
    ]
    write_lines(manifest, manifest.read_text().splitlines()[:2])
    assert load_corpus_manifest(manifest) == [DocumentRef("d1", 5), DocumentRef("d2", 5)]

    groups, overrides = tmp_path / "groups.txt", tmp_path / "overrides.jsonl"
    write_lines(groups, SEMGROUPS)
    write_lines(overrides, ['{"source":"A","native_type":"X","group":"Anatomy"}',
                            '{"source":"A","native_type":7,"group":"Anatomy"}',
                            '{"source":null,"native_type":"X","group":"Anatomy"}'])
    with pytest.raises(ParseError) as err:
        load_semantic_group_map(groups, overrides)
    assert str(err.value).splitlines()[1:] == [
        f"{overrides}:2: field 'native_type' is an integer, expected a string",
        f"{overrides}:3: field 'source' is null, expected a string",
    ]


# A value of a type its field does not take, as JSON text, and that type as
# a malformed-record message names it.
WRONG_VALUES = {
    '"5"': "a string",
    "5": "an integer",
    "5.5": "a float",
    "true": "a boolean",
    "null": "null",
    "[5]": "an array",
    '{"n": 5}': "an object",
    str(2**64): "an integer beyond 64 bits",
}


@pytest.mark.parametrize(
    "kind,field,expected,taken",
    [
        ("manifest", "length", "an integer", ["5"]),
        ("annotation", "score", "a number or null", ["5", "5.5", "null"]),
        ("annotation", "cui", "a string or null", ['"5"', "null"]),
        ("override", "group", "a string", ['"5"']),
    ],
)
def test_malformed_record_names_its_field_and_types(tmp_path, kind, field, expected, taken):
    """Each bad value is named by its JSON type; an integer beyond 64 bits is
    named so only where the field takes integers."""
    records = {
        "manifest": '{{"doc_id":"d{i}","length":{v}}}',
        "annotation": '{{"doc_id":"d1","source":"A","begin":{i},"end":{j},"' + field + '":{v}}}',
        "override": '{{"source":"A","native_type":"T{i}","group":{v}}}',
    }[kind]
    wrong = [(text, found) for text, found in WRONG_VALUES.items() if text not in taken]
    path = tmp_path / f"{kind}.jsonl"
    write_lines(path, [records.format(i=i, j=i + 1, v=text) for i, (text, _) in enumerate(wrong)])
    if kind == "manifest":
        load = lambda: load_corpus_manifest(path)
    elif kind == "annotation":
        load = lambda: load_annotations(path, DOCS)
    else:
        write_lines(tmp_path / "groups.txt", SEMGROUPS)
        load = lambda: load_semantic_group_map(tmp_path / "groups.txt", path)
    with pytest.raises(ParseError) as err:
        load()
    integers = "integer" in expected or "number" in expected
    assert str(err.value).splitlines()[1:] == [
        f"{path}:{i + 1}: field {field!r} is "
        f"{found if integers else found.replace(' beyond 64 bits', '')}, expected {expected}"
        for i, (_, found) in enumerate(wrong)
    ]


def test_input_that_is_not_utf8_lists_each_such_line(tmp_path):
    manifest, groups = tmp_path / "manifest.jsonl", tmp_path / "groups.txt"
    manifest.write_bytes(b'{"doc_id":"d1","length":5}\r\n{"doc_id":"d\xff","length":5}\r'
                         b'{"doc_id":"d3","length":5}\n{"doc_id":"\xc3","length":5}\n')
    with pytest.raises(ParseError) as err:
        load_corpus_manifest(manifest)
    assert str(err.value).splitlines() == [
        "2 malformed manifest record(s):",
        f"{manifest}:2: not UTF-8 text",
        f"{manifest}:4: not UTF-8 text",
    ]
    assert err.value.position == 2
    groups.write_bytes(SEMGROUPS[0].encode() + b"\n" + b"DISO|Disorders|T047|Sick\xff\n")
    with pytest.raises(ParseError, match=f"^1 malformed semantic group record\\(s\\):\n{groups}:2: not UTF-8 text$"):
        load_semantic_group_map(groups)


def test_groups_file_lines_after_bytes_that_are_not_utf8_are_checked(tmp_path):
    groups = tmp_path / "groups.txt"
    groups.write_bytes(b"\n".join([SEMGROUPS[0].encode(), b"DISO|Disorders|T047|Sick\xff",
                                   SEMGROUPS[2].encode(), b"CHEM|Chemicals|T121"]) + b"\n")
    with pytest.raises(ParseError) as err:
        load_semantic_group_map(groups)
    assert str(err.value).splitlines() == [
        "2 malformed semantic group record(s):",
        f"{groups}:2: not UTF-8 text",
        f"{groups}:4: expected 4 pipe-delimited fields, got 3",
    ]
