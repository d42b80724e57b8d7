import csv
import io
import json

import pytest

from span_ensembles import cli, search
from span_ensembles.cli import main

SEARCH_CSV_COLUMNS = [
    "corpus",
    "group",
    "combination",
    "p",
    "r",
    "f1",
    "p_lo",
    "p_hi",
    "r_lo",
    "r_hi",
    "f1_lo",
    "f1_hi",
    "tp",
    "fp",
    "fn",
    "n_gold",
    "n_pred",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(
        [
            "synth",
            "--out-dir",
            str(out),
            "--docs",
            "12",
            "--doc-length",
            "400",
            "--n-sources",
            "3",
            "--cui-vocab",
            "15",
            "--seed",
            "17",
        ]
    )
    assert code == 0
    return out


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_synth_writes_roundtrippable_files(corpus):
    names = {p.name for p in corpus.iterdir()}
    assert {"manifest.jsonl", "gold.jsonl", "A.jsonl", "config.json"} <= names
    config = json.loads((corpus / "config.json").read_text())
    assert set(config["systems"]) == {"A", "B", "C"}


def test_ner_eval_gold_vs_itself_is_perfect(corpus, capsys, tmp_path):
    # a "system" whose annotations are the gold file scores 1.0 everywhere
    config = {
        "manifest": "manifest.jsonl",
        "gold": "gold.jsonl",
        "systems": {"G": "gold.jsonl"},
    }
    # the gold file's records carry source "gold"; expected_source must match,
    # so point the system at a copy with the source renamed
    copied = tmp_path / "copy.jsonl"
    lines = []
    for line in (corpus / "gold.jsonl").read_text().splitlines():
        record = json.loads(line)
        record["source"] = "G"
        lines.append(json.dumps(record, sort_keys=True))
    copied.write_text("\n".join(lines) + "\n")
    code, out = run_cli(
        [
            "ner-eval",
            "--manifest",
            str(corpus / "manifest.jsonl"),
            "--gold",
            str(corpus / "gold.jsonl"),
            "--system",
            f"G={copied}",
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["p"] == "1.0" and rows[0]["r"] == "1.0" and rows[0]["f1"] == "1.0"


def test_search_csv_schema(corpus, capsys):
    code, out = run_cli(
        ["search", "--config", str(corpus / "config.json"), "--top-k", "3"], capsys
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[: len(SEARCH_CSV_COLUMNS)] == SEARCH_CSV_COLUMNS
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(row["combination"] for row in rows)


def test_missing_manifest_is_nonzero_without_report(capsys, tmp_path):
    code, out = run_cli(
        ["ner-eval", "--manifest", str(tmp_path / "nope.jsonl"), "--gold", "x", "--system", "A=y"],
        capsys,
    )
    assert code == 2
    assert out == ""


def test_missing_semgroups_is_nonzero_without_report(corpus, capsys):
    code, out = run_cli(
        ["ner-eval", "--config", str(corpus / "config.json"), "--semgroups", "ghost.txt"],
        capsys,
    )
    assert code == 2
    assert out == ""


def test_bad_expression_exits_parse_code(corpus, capsys):
    code, out = run_cli(
        ["ensemble-eval", "--config", str(corpus / "config.json"), "--expr", "(A&A)"], capsys
    )
    assert code == 3
    assert out == ""


def test_cui_and_exits_unsupported_code(corpus, capsys):
    code, out = run_cli(
        ["cui-eval", "--config", str(corpus / "config.json"), "--expr", "(A&B)"], capsys
    )
    assert code == 4


def test_vote_task(corpus, capsys):
    code, out = run_cli(
        ["vote", "--config", str(corpus / "config.json"), "--group", "each", "--format", "markdown"],
        capsys,
    )
    assert code == 0
    assert "Majority vote" in out
    assert "| ALL |" in out.replace("  ", " ")


def test_complementarity_task(corpus, capsys):
    code, out = run_cli(
        ["complementarity", "--config", str(corpus / "config.json")], capsys
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    pairs = {(r["system_a"], r["system_b"]) for r in rows}
    assert ("A", "B") in pairs and ("B", "A") in pairs
    assert all(0.0 <= float(r["comp_rate"]) <= 100.0 for r in rows)


def test_reports_are_byte_identical_across_runs(corpus, tmp_path, capsys):
    for fmt in ("csv", "json"):
        out1, out2 = tmp_path / f"r1.{fmt}", tmp_path / f"r2.{fmt}"
        for out_path in (out1, out2):
            code = main(
                [
                    "search",
                    "--config",
                    str(corpus / "config.json"),
                    "--seed",
                    "5",
                    "--format",
                    fmt,
                    "--out",
                    str(out_path),
                ]
            )
            capsys.readouterr()
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_json_report_roundtrips_counts(corpus, capsys):
    code, out = run_cli(
        ["search", "--config", str(corpus / "config.json"), "--format", "json", "--top-k", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    block = payload["blocks"][0]
    top = block["by_f1"][0]
    m = top["metrics"]
    assert isinstance(m["tp"], int) and isinstance(m["n_gold"], int)
    assert m["n_gold"] == m["tp"] + m["fn"]
    assert m["n_pred"] == m["tp"] + m["fp"]


def test_expr_eval_and_selected_subset(corpus, capsys):
    code, out = run_cli(
        [
            "ensemble-eval",
            "--config",
            str(corpus / "config.json"),
            "--systems",
            "A,B",
            "--expr",
            "(A|B)",
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["combination"] == "(A|B)"


def test_unknown_system_selection_fails(corpus, capsys):
    code, _ = run_cli(
        ["ner-eval", "--config", str(corpus / "config.json"), "--systems", "A,ZZ"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("task", ["vote", "ner-eval", "complementarity", "search"])
def test_repeated_system_selection_fails(corpus, capsys, task):
    code = main([task, "--config", str(corpus / "config.json"), "--systems", "A,B,A"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "more than once: ['A']" in captured.err


def test_empty_group_emits_degenerate_row(tmp_path, capsys):
    (tmp_path / "manifest.jsonl").write_text('{"doc_id":"d1","length":50,"corpus_id":"t"}\n')
    (tmp_path / "gold.jsonl").write_text(
        '{"doc_id":"d1","source":"gold","begin":0,"end":5,"group":"Anatomy"}\n'
    )
    (tmp_path / "a.jsonl").write_text(
        '{"doc_id":"d1","source":"A","begin":0,"end":5,"group":"Anatomy"}\n'
    )
    (tmp_path / "groups.txt").write_text(
        "ANAT|Anatomy|T017|Anatomical Structure\nPROC|Procedures|T060|Diagnostic Procedure\n"
    )
    code, out = run_cli(
        [
            "ner-eval",
            "--manifest", str(tmp_path / "manifest.jsonl"),
            "--gold", str(tmp_path / "gold.jsonl"),
            "--system", f"A={tmp_path / 'a.jsonl'}",
            "--semgroups", str(tmp_path / "groups.txt"),
            "--group", "Procedures",
        ],
        capsys,
    )
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(out)))
    assert row["n_gold"] == "0"
    assert row["degenerate"] == "true"


def test_search_beyond_the_size_limit_exits_validation_code(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path), "--docs", "1", "--doc-length", "60",
                 "--n-sources", "8", "--seed", "3"]) == 0
    capsys.readouterr()
    code = main(["search", "--config", str(tmp_path / "config.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "2,132,088 ensembles over 8 sources" in captured.err and "--max-size" in captured.err


@pytest.mark.parametrize("task", ["ner-eval", "vote", "complementarity"])
def test_count_table_beyond_the_limit_exits_validation_code(corpus, capsys, monkeypatch, task):
    monkeypatch.setattr(search, "MAX_TABLE_CELLS", 2**3)  # gold and two systems
    code = main([task, "--config", str(corpus / "config.json"), "--group", "each"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "3 systems and gold make a count table of 16 cells, more than 8" in captured.err
    assert main([task, "--config", str(corpus / "config.json"), "--systems", "A,B"]) == 0


@pytest.mark.parametrize("fmt", ["csv", "markdown", "json"])
def test_complementarity_of_one_system_has_no_pairs(corpus, capsys, fmt):
    # one system has no pair to score: refused in every format, nothing printed
    code = main(["complementarity", "--config", str(corpus / "config.json"),
                 "--systems", "A", "--group", "each", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: complementarity needs at least 2 systems\n"


@pytest.mark.parametrize("task", ["complementarity", "vote"])
@pytest.mark.parametrize("group", ["each", "all"])
def test_fewer_than_two_systems_exit_validation_code(corpus, capsys, task, group):
    code = main([task, "--config", str(corpus / "config.json"), "--systems", "A",
                 "--group", group])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    what = "complementarity needs at least 2 systems" if task == "complementarity" else (
        "majority vote needs at least 2 sources")
    assert captured.err == f"error: {what}\n"


def test_unwritable_out_is_validation_error(corpus, capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x.csv"
    code = main(["vote", "--config", str(corpus / "config.json"), "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"cannot write report to {target}" in captured.err
    assert not target.exists()


def test_unwritable_synth_out_dir_is_validation_error(capsys, tmp_path):
    (tmp_path / "file").write_text("")
    target = tmp_path / "file" / "corpus"  # a directory under a regular file
    code = main(["synth", "--out-dir", str(target), "--docs", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write to {target}: Not a directory\n"


@pytest.mark.parametrize("task", sorted(cli.REPORT_TASKS))
def test_each_report_task_builds_its_store_once_through_the_module_hook(
    corpus, capsys, monkeypatch, task
):
    # perfbench/run.py times set-up by replacing cli._build_store: a report
    # that built its store another way would read as no set-up at all.
    calls = []
    build_store = cli._build_store
    monkeypatch.setattr(cli, "_build_store", lambda cfg: calls.append(cfg) or build_store(cfg))
    expr = ["--expr", "(A|B)"] if task in ("ensemble-eval", "cui-eval") else []
    code = main([task, "--config", str(corpus / "config.json"), *expr])
    assert code == 0 and capsys.readouterr().out
    assert len(calls) == 1


def test_complementarity_quotes_and_escapes_corpus_id(corpus, capsys):
    config = str(corpus / "config.json")
    code, out = run_cli(
        ["complementarity", "--config", config, "--corpus-id", "i2b2, 2010"], capsys
    )
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert len(header) == 11 and rows
    assert all(len(row) == 11 and row[0] == "i2b2, 2010" for row in rows)
    code, out = run_cli(
        ["complementarity", "--config", config, "--corpus-id", "a|b", "--format", "markdown"],
        capsys,
    )
    assert code == 0
    assert "| a\\|b | ALL |" in out


def test_malformed_annotations_exit_parse_code(corpus, capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    good = (corpus / "A.jsonl").read_text().splitlines()
    bad.write_text("\n".join([good[0], "{oops", good[1], "[]"]) + "\n")
    code = main(
        [
            "vote",
            "--manifest",
            str(corpus / "manifest.jsonl"),
            "--gold",
            str(corpus / "gold.jsonl"),
            "--system",
            f"A={bad}",
            "--system",
            f"B={corpus / 'B.jsonl'}",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"{bad}:2:" in captured.err and f"{bad}:4:" in captured.err


def test_float_offsets_exit_parse_code(corpus, capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    good = (corpus / "A.jsonl").read_text().splitlines()
    record = json.loads(good[0])
    record["begin"] += 0.5
    bad.write_text("\n".join([good[1], json.dumps(record)]) + "\n")
    code = main(
        ["ner-eval", "--manifest", str(corpus / "manifest.jsonl"),
         "--gold", str(corpus / "gold.jsonl"), "--system", f"A={bad}"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"{bad}:2: field 'begin' is a float, expected an integer" in captured.err


def test_bad_semgroups_lines_exit_parse_code(corpus, capsys, tmp_path):
    groups = tmp_path / "groups.txt"
    groups.write_text("ANAT|Anatomy|T017|Anatomical Structure\nANAT\nDISO|Disorders|T047\n")
    code = main(["ner-eval", "--config", str(corpus / "config.json"), "--semgroups", str(groups)])
    captured = capsys.readouterr()
    assert code == 3
    assert f"{groups}:2:" in captured.err and f"{groups}:3:" in captured.err


def test_dropped_note_counts_each_source_and_native_type(tmp_path, capsys):
    (tmp_path / "manifest.jsonl").write_text('{"doc_id":"d1","length":50,"corpus_id":"t"}\n')
    (tmp_path / "gold.jsonl").write_text(
        '{"doc_id":"d1","source":"gold","begin":0,"end":5,"group":"Anatomy"}\n'
    )
    spans = {
        "A": [("T017", 0), ("T777", 6), ("T888", 12), ("T777", 18), (None, 24)],
        "B": [("T888", 0), ("T017", 6), ("T888", 12), ("T888", 18)],
    }
    for source, records in spans.items():
        lines = []
        for native, begin in records:
            record = {"doc_id": "d1", "source": source, "begin": begin, "end": begin + 4}
            if native is not None:
                record["native_type"] = native
            lines.append(json.dumps(record))
        (tmp_path / f"{source}.jsonl").write_text("\n".join(lines) + "\n")
    (tmp_path / "groups.txt").write_text("ANAT|Anatomy|T017|Anatomical Structure\n")
    code = main(
        [
            "ner-eval",
            "--manifest", str(tmp_path / "manifest.jsonl"),
            "--gold", str(tmp_path / "gold.jsonl"),
            "--system", f"B={tmp_path / 'B.jsonl'}",
            "--system", f"A={tmp_path / 'A.jsonl'}",
            "--semgroups", str(tmp_path / "groups.txt"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (
        "note: dropped 7 annotation(s) with unmapped semantic types "
        "(A/(none): 1, A/T777: 2, A/T888: 1, B/T888: 3)\n"
    )


def tiny_corpus(path, corpus_ids=("t",), group_field=""):
    """One 50-character document per corpus id, gold and system A each
    covering characters 0-4 of every document, with ``group_field`` (a JSON
    fragment such as ``,"group":"Anatomy"``) on every span."""
    docs = [(f"d{i}", corpus_id) for i, corpus_id in enumerate(corpus_ids)]
    (path / "manifest.jsonl").write_text(
        "".join(f'{{"doc_id":"{d}","length":50,"corpus_id":"{c}"}}\n' for d, c in docs)
    )
    for name, source in (("gold", "gold"), ("a", "A")):
        (path / f"{name}.jsonl").write_text("".join(
            f'{{"doc_id":"{d}","source":"{source}","begin":0,"end":5{group_field}}}\n'
            for d, _ in docs
        ))
    return ["--manifest", str(path / "manifest.jsonl"), "--gold", str(path / "gold.jsonl")]


@pytest.mark.parametrize("where", ["flag", "config"])
def test_system_named_like_gold_fails(tmp_path, capsys, where):
    files = tiny_corpus(tmp_path)
    if where == "flag":
        args = [*files, "--system", f"A={tmp_path / 'a.jsonl'}",
                "--system", f"gold={tmp_path / 'gold.jsonl'}"]
    else:
        config = {"manifest": "manifest.jsonl", "gold": "gold.jsonl",
                  "systems": {"A": "a.jsonl", "gold": "gold.jsonl"}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = ["--config", str(tmp_path / "config.json")]
    code = main(["ner-eval", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "system 'gold' has the gold source's name" in captured.err


# An overrides file maps types to the groups of a groups file, so without one
# it is refused before any input file is read: neither its bad line nor the
# bad gold line is reached.
@pytest.mark.parametrize("where", ["flag", "config"])
def test_overrides_without_groups_file_are_refused(tmp_path, capsys, where):
    files = tiny_corpus(tmp_path)
    (tmp_path / "ov.jsonl").write_text("{oops\n")
    (tmp_path / "gold.jsonl").write_text("{oops\n")
    if where == "flag":
        args = [*files, "--system", f"A={tmp_path / 'a.jsonl'}",
                "--overrides", str(tmp_path / "ov.jsonl")]
    else:
        config = {"manifest": "manifest.jsonl", "gold": "gold.jsonl",
                  "systems": {"A": "a.jsonl"}, "overrides": "ov.jsonl"}
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = ["--config", str(tmp_path / "config.json")]
    code = main(["ner-eval", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert ("--overrides (config key 'overrides') maps types to groups of a groups file; "
            "give one with --semgroups (config key 'semgroups')") in captured.err


@pytest.mark.parametrize("task", ["vote", "ner-eval", "complementarity", "search"])
@pytest.mark.parametrize("selection", [",", " , ", ""])
def test_empty_system_selection_fails(corpus, capsys, task, selection):
    code = main([task, "--config", str(corpus / "config.json"), "--systems", selection])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--systems {selection!r} selects no system" in captured.err


def test_unknown_group_without_group_labels_fails(tmp_path, capsys):
    args = [*tiny_corpus(tmp_path), "--system", f"A={tmp_path / 'a.jsonl'}"]
    code = main(["ner-eval", *args, "--group", "Typo"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown group 'Typo'; known: none" in captured.err
    # with labels on the spans, the known groups are listed
    args = tiny_corpus(tmp_path, group_field=',"group":"Anatomy"')
    args += ["--system", f"A={tmp_path / 'a.jsonl'}"]
    code = main(["ner-eval", *args, "--group", "Typo"])
    assert code == 2
    assert "unknown group 'Typo'; known: Anatomy" in capsys.readouterr().err
    for group in ("all", "each", "Anatomy"):
        assert main(["ner-eval", *args, "--group", group]) == 0


def test_pooled_manifest_needs_a_corpus_label(tmp_path, capsys):
    args = tiny_corpus(tmp_path, ("i2b2", "mimic", "i2b2"))
    args += ["--system", f"A={tmp_path / 'a.jsonl'}"]
    code = main(["ner-eval", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "the manifest pools corpora 'i2b2', 'mimic'" in captured.err
    code, out = run_cli(["ner-eval", *args, "--corpus-id", "pooled"], capsys)
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(out)))
    assert row["corpus"] == "pooled" and row["n_gold"] == "15"
    config = {"manifest": "manifest.jsonl", "gold": "gold.jsonl", "systems": {"A": "a.jsonl"},
              "corpus_id": "from-config"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, out = run_cli(["ner-eval", "--config", str(tmp_path / "config.json")], capsys)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out)))[0]["corpus"] == "from-config"


def test_repeated_system_flag_fails(tmp_path, capsys):
    files = tiny_corpus(tmp_path)
    (tmp_path / "a2.jsonl").write_text((tmp_path / "a.jsonl").read_text())
    code = main(["ner-eval", *files, "--system", f"A={tmp_path / 'a.jsonl'}",
                 "--system", f"A={tmp_path / 'a2.jsonl'}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--system names system 'A' more than once" in captured.err
    # one flag still overrides the config's entry of the same name
    config = {"manifest": "manifest.jsonl", "gold": "gold.jsonl", "systems": {"A": "ghost.jsonl"}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, out = run_cli(["ner-eval", "--config", str(tmp_path / "config.json"),
                         "--system", f"A={tmp_path / 'a2.jsonl'}"], capsys)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out)))[0]["f1"] == "1.0"


@pytest.mark.parametrize("where", ["flag", "config"])
def test_system_name_outside_expression_syntax_fails(tmp_path, capsys, where):
    files = tiny_corpus(tmp_path)
    (tmp_path / "b.jsonl").write_text((tmp_path / "a.jsonl").read_text().replace('"A"', '"my-sys"'))
    if where == "flag":
        args = [*files, "--system", f"A={tmp_path / 'a.jsonl'}",
                "--system", f"my-sys={tmp_path / 'b.jsonl'}"]
    else:
        config = {"manifest": "manifest.jsonl", "gold": "gold.jsonl",
                  "systems": {"A": "a.jsonl", "my-sys": "b.jsonl"}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = ["--config", str(tmp_path / "config.json")]
    code = main(["search", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "system 'my-sys' is not an expression identifier" in captured.err


# Errors surface in the order: configuration and input files, corpus label,
# expression, group, task.
@pytest.mark.parametrize(
    "pooled,argv,code,message",
    [
        (False, ["ensemble-eval", "--expr", "(A|", "--group", "Nope"], 3, "parse error"),
        (False, ["cui-eval", "--expr", "(A&B)", "--group", "Nope"], 2, "unknown group 'Nope'"),
        (False, ["cui-eval", "--expr", "(A&B)"], 4, "unsupported operation"),
        (True, ["ensemble-eval", "--expr", "(A|"], 2, "the manifest pools corpora"),
        (False, ["search", "--top-k", "0", "--group", "Nope"], 2, "unknown group 'Nope'"),
    ],
)
def test_errors_are_reported_in_run_order(corpus, tmp_path, capsys, pooled, argv, code, message):
    if pooled:
        files = [*tiny_corpus(tmp_path, ("i2b2", "mimic")), "--system", f"A={tmp_path / 'a.jsonl'}"]
    else:
        files = ["--config", str(corpus / "config.json")]
    assert main([*argv, *files]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "key,value,flags",
    [
        ("systems", {"A": 5}, []),
        ("systems", ["a.jsonl"], []),
        ("group", 3, []),
        ("corpus_id", 7, ["--format", "markdown"]),
        ("gold", None, []),
    ],
)
def test_config_value_of_wrong_type_exits_parse_code(tmp_path, capsys, key, value, flags):
    tiny_corpus(tmp_path)
    config = {"manifest": "manifest.jsonl", "gold": "gold.jsonl", "systems": {"A": "a.jsonl"}}
    config[key] = value
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = main(["ner-eval", "--config", str(tmp_path / "config.json"), *flags])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"{tmp_path / 'config.json'}: config key {key!r} must be" in captured.err


def replace_line(path, lineno, text):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")


# No input value is converted: each field has one JSON type.
@pytest.mark.parametrize(
    "file,value",
    [
        ("a.jsonl", '"score":"0.5"'),
        ("a.jsonl", '"score":true'),
        ("a.jsonl", '"group":7'),
        ("gold.jsonl", '"score":18446744073709551616'),
    ],
)
def test_annotation_value_of_wrong_type_exits_parse_code(tmp_path, capsys, file, value):
    args = [*tiny_corpus(tmp_path), "--system", f"A={tmp_path / 'a.jsonl'}"]
    source = "gold" if file == "gold.jsonl" else "A"
    replace_line(tmp_path / file, 1, f'{{"doc_id":"d0","source":"{source}","begin":0,"end":5,{value}}}')
    code = main(["ner-eval", *args])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    problem = {
        '"score":"0.5"': "field 'score' is a string, expected a number or null",
        '"score":true': "field 'score' is a boolean, expected a number or null",
        '"group":7': "field 'group' is an integer, expected a string or null",
        '"score":18446744073709551616':
            "field 'score' is an integer beyond 64 bits, expected a number or null",
    }[value]
    assert f"{tmp_path / file}:1: {problem}" in captured.err


def test_null_manifest_corpus_id_labels_rows_corpus(tmp_path, capsys):
    args = [*tiny_corpus(tmp_path), "--system", f"A={tmp_path / 'a.jsonl'}"]
    (tmp_path / "manifest.jsonl").write_text('{"doc_id":"d0","length":50,"corpus_id":null}\n')
    code, out = run_cli(["ner-eval", *args], capsys)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out)))[0]["corpus"] == "corpus"


def test_null_override_native_type_exits_parse_code(tmp_path, capsys):
    args = [*tiny_corpus(tmp_path), "--system", f"A={tmp_path / 'a.jsonl'}"]
    (tmp_path / "groups.txt").write_text("ANAT|Anatomy|T017|Anatomical Structure\n")
    overrides = tmp_path / "overrides.jsonl"
    overrides.write_text('{"source":"A","native_type":null,"group":"Anatomy"}\n')
    code = main(["ner-eval", *args, "--semgroups", str(tmp_path / "groups.txt"),
                 "--overrides", str(overrides)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"{overrides}:1: field 'native_type' is null, expected a string" in captured.err


# Every bad record of every annotation file is reported at once, files in
# input order (gold first), lines in order within a file.
@pytest.mark.parametrize(
    "gold_line,a_line,code,listed",
    [
        ('{"doc_id":"d1","source":"gold","begin":"0","end":5}', "{oops", 3,
         ["gold.jsonl:2: field 'begin' is a string, expected an integer", "a.jsonl:2: bad JSON"]),
        ('{"doc_id":"d1","source":"gold","begin":0,"end":60}',
         '{"doc_id":"d1","source":"A","begin":0,"end":70}', 2,
         ["gold.jsonl:2: span [0, 60) exceeds", "a.jsonl:2: span [0, 70) exceeds"]),
        # an earlier file with only invalid records does not hide a later malformed one
        ('{"doc_id":"d1","source":"gold","begin":0,"end":60}', "{oops", 3, ["a.jsonl:2: bad JSON"]),
    ],
)
def test_bad_records_of_every_annotation_file_are_listed(tmp_path, capsys, gold_line, a_line,
                                                          code, listed):
    args = [*tiny_corpus(tmp_path, ("t", "t")), "--system", f"A={tmp_path / 'a.jsonl'}"]
    replace_line(tmp_path / "gold.jsonl", 2, gold_line)
    replace_line(tmp_path / "a.jsonl", 2, a_line)
    assert main(["ner-eval", *args]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    positions = [captured.err.index(f"{tmp_path / entry}") for entry in listed]
    assert positions == sorted(positions)
    assert f"{len(listed)} " in captured.err.splitlines()[0]


def test_conflicting_group_mappings_fail(tmp_path, capsys):
    args = [*tiny_corpus(tmp_path), "--system", f"A={tmp_path / 'a.jsonl'}"]
    groups = tmp_path / "groups.txt"
    groups.write_text("ANAT|Anatomy|T017|Anatomical Structure\n"
                      "DISO|Disorders|T047|Disease or Syndrome\n"
                      "ANAT|Anatomy|T017|Anatomical Structure\n")
    overrides = tmp_path / "overrides.jsonl"
    overrides.write_text('{"source":"A","native_type":"x","group":"Anatomy"}\n'
                         '{"source":"A","native_type":"x","group":"Anatomy"}\n')
    run = ["ner-eval", *args, "--semgroups", str(groups), "--overrides", str(overrides)]
    # a repeat that names the same group is allowed
    assert main(run) == 0
    capsys.readouterr()
    overrides.write_text(overrides.read_text() + '{"source":"A","native_type":"x","group":"Disorders"}\n')
    assert main(run) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{overrides}:3: override ('A', 'x') maps to 'Disorders', but to 'Anatomy' at line 1"
            in captured.err)
    groups.write_text(groups.read_text() + "DISO|Disorders|T017|Anatomical Structure\n")
    assert main(run) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{groups}:4: type 'T017' maps to 'Disorders', but to 'Anatomy' at line 1" in captured.err


def test_group_outside_the_groups_file_is_listed(tmp_path, capsys):
    args = [*tiny_corpus(tmp_path, ("t", "t", "t")), "--system", f"A={tmp_path / 'a.jsonl'}"]
    (tmp_path / "groups.txt").write_text("ANAT|Anatomy|T017|Anatomical Structure\n")
    replace_line(tmp_path / "a.jsonl", 1, '{"doc_id":"d0","source":"A","begin":0,"end":5,"group":"Foo"}')
    replace_line(tmp_path / "a.jsonl", 3, '{"doc_id":"d2","source":"A","begin":0,"end":5,"group":"Bar"}')
    # a typed span is mapped, so its own group is not checked
    replace_line(tmp_path / "a.jsonl", 2,
                 '{"doc_id":"d1","source":"A","begin":0,"end":5,"group":"Baz","native_type":"T017"}')
    code = main(["ner-eval", *args, "--semgroups", str(tmp_path / "groups.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: 2 invalid annotation record(s):",
        f"{tmp_path / 'a.jsonl'}:1: group 'Foo' not in the group universe",
        f"{tmp_path / 'a.jsonl'}:3: group 'Bar' not in the group universe",
    ]


@pytest.mark.parametrize("flag", ["--manifest", "--gold", "--semgroups", "--overrides"])
def test_input_that_cannot_be_read_exits_validation_code(tmp_path, capsys, flag):
    args = [*tiny_corpus(tmp_path), "--system", f"A={tmp_path / 'a.jsonl'}"]
    (tmp_path / "groups.txt").write_text("ANAT|Anatomy|T017|Anatomical Structure\n")
    (tmp_path / "overrides.jsonl").write_text("")
    args += ["--semgroups", str(tmp_path / "groups.txt"),
             "--overrides", str(tmp_path / "overrides.jsonl"), flag, str(tmp_path)]
    code = main(["ner-eval", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_bytes_that_are_not_utf8_stop_no_read(tmp_path, capsys):
    # every bad line is listed, before the bad bytes, in their 512-line
    # chunk and after them
    assert main(["synth", "--out-dir", str(tmp_path), "--docs", "200", "--n-sources", "2",
                 "--seed", "1"]) == 0
    path = tmp_path / "A.jsonl"
    lines = path.read_bytes().splitlines()
    assert len(lines) > 1001
    lines[9], lines[1000] = b'{"doc_id": 5}', b'{"doc_id": 7}'
    lines[699], lines[700] = b'{"doc_id": "d\xff"}', b"[1]"
    path.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    assert main(["ner-eval", "--config", str(tmp_path / "config.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "parse error: 4 malformed annotation record(s):",
        f"{path}:10: field 'doc_id' is an integer, expected a string",
        f"{path}:700: not UTF-8 text",
        f"{path}:701: expected a JSON object",
        f"{path}:1001: field 'doc_id' is an integer, expected a string",
    ]


@pytest.mark.parametrize("file", ["a.jsonl", "manifest.jsonl", "groups.txt", "overrides.jsonl"])
def test_input_that_is_not_utf8_exits_parse_code(tmp_path, capsys, file):
    args = [*tiny_corpus(tmp_path, ("t", "t", "t")), "--system", f"A={tmp_path / 'a.jsonl'}"]
    (tmp_path / "groups.txt").write_text("ANAT|Anatomy|T017|Anatomical Structure\n" * 3)
    (tmp_path / "overrides.jsonl").write_text(
        '{"source":"A","native_type":"X","group":"Anatomy"}\n' * 3
    )
    path = tmp_path / file
    lines = path.read_bytes().splitlines()
    lines[1] = b"\xff" + lines[1]
    lines[2] += b"\xc3\x28"  # a lead byte not followed by a continuation byte
    path.write_bytes(b"\n".join(lines) + b"\n")
    code = main(["ner-eval", *args, "--semgroups", str(tmp_path / "groups.txt"),
                 "--overrides", str(tmp_path / "overrides.jsonl")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines()[1:] == [f"{path}:2: not UTF-8 text", f"{path}:3: not UTF-8 text"]


# A JSON line nested deeper than json's recursion limit.
DEEP = '{"doc_id": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize("output", [["--format", "csv"], ["--format", "markdown"],
                                    ["--format", "json"], ["--out", "rep.csv"]],
                         ids=["csv", "markdown", "json", "out"])
def test_lone_surrogate_in_an_annotation_exits_parse_code(tmp_path, capsys, output):
    # json decodes the escape "\ud800" to a string UTF-8 cannot encode; a
    # report would fail to write it
    assert main(["synth", "--out-dir", str(tmp_path), "--docs", "5", "--n-sources", "2",
                 "--seed", "1"]) == 0
    path = tmp_path / "A.jsonl"
    lines = path.read_text().splitlines()
    for i, key, value in ((0, "group", "Ana\ud800"), (2, "source", "A\udfff")):
        lines[i] = json.dumps({**json.loads(lines[i]), key: value})
    path.write_text("\n".join(lines) + "\n")
    output = [arg if arg != "rep.csv" else str(tmp_path / arg) for arg in output]
    capsys.readouterr()
    code = main(["ner-eval", "--config", str(tmp_path / "config.json"), "--group", "each",
                 *output])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and not (tmp_path / "rep.csv").exists()
    assert captured.err.splitlines() == [
        "parse error: 2 malformed annotation record(s):",
        f"{path}:1: field 'group' holds a lone surrogate, expected text",
        f"{path}:3: field 'source' holds a lone surrogate, expected text",
    ]


@pytest.mark.parametrize(
    "file,kind,line",
    [
        ("manifest.jsonl", "manifest", {"doc_id": "d1", "length": 50, "corpus_id": "x\ud800"}),
        ("a.jsonl", "annotation", {"doc_id": "d1", "source": "A", "begin": 0, "end": 5,
                                   "cui": "C\udc80"}),
        ("overrides.jsonl", "override", {"source": "A", "native_type": "T\ud800",
                                         "group": "Anatomy"}),
    ],
    ids=["manifest", "annotation", "override"],
)
def test_lone_surrogate_and_deep_nesting_in_json_input_are_listed(tmp_path, capsys, file, kind,
                                                                   line):
    args = [*tiny_corpus(tmp_path, ("t", "t", "t")), "--system", f"A={tmp_path / 'a.jsonl'}"]
    (tmp_path / "groups.txt").write_text("ANAT|Anatomy|T017|Anatomical Structure\n")
    (tmp_path / "overrides.jsonl").write_text(
        '{"source":"A","native_type":"X","group":"Anatomy"}\n' * 3
    )
    path = tmp_path / file
    replace_line(path, 2, json.dumps(line))
    replace_line(path, 3, DEEP)
    code = main(["ner-eval", *args, "--semgroups", str(tmp_path / "groups.txt"),
                 "--overrides", str(tmp_path / "overrides.jsonl")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    field = {"manifest": "corpus_id", "annotation": "cui", "override": "native_type"}[kind]
    assert captured.err.splitlines() == [
        f"parse error: 2 malformed {kind} record(s):",
        f"{path}:2: field {field!r} holds a lone surrogate, expected text",
        f"{path}:3: bad JSON (nested too deeply)",
    ]


@pytest.mark.parametrize("key", ["manifest", "gold", "semgroups", "overrides", "group",
                                 "corpus_id", "gold_source"])
def test_lone_surrogate_in_a_config_text_key_exits_parse_code(tmp_path, capsys, key):
    tiny_corpus(tmp_path)
    config = {"manifest": "manifest.jsonl", "gold": "gold.jsonl", "systems": {"A": "a.jsonl"}}
    config[key] = "x\ud800"
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = main(["ner-eval", "--config", str(tmp_path / "config.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"parse error: {tmp_path / 'config.json'}: config key {key!r} holds "
                            "a lone surrogate, expected text\n")


@pytest.mark.parametrize("text,problem", [(DEEP.encode(), "bad JSON (nested too deeply)"),
                                          (b'{"group": "\xff"}', "not UTF-8 text")],
                         ids=["deep", "not-utf8"])
def test_config_json_cannot_read_exits_parse_code(tmp_path, capsys, text, problem):
    tiny_corpus(tmp_path)
    (tmp_path / "config.json").write_bytes(text)
    code = main(["ner-eval", "--config", str(tmp_path / "config.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"parse error: {tmp_path / 'config.json'}: {problem}\n"


ALL_IS_NO_LABEL = "group 'ALL' denotes the unfiltered union and cannot be a group label"


def test_span_group_all_is_listed_with_the_other_invalid_records(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path), "--docs", "5", "--n-sources", "2",
                 "--seed", "1"]) == 0
    capsys.readouterr()
    for name, lineno, change in (("A", 3, {"group": "ALL"}), ("B", 2, {"doc_id": "ghost"})):
        path = tmp_path / f"{name}.jsonl"
        record = json.loads(path.read_text().splitlines()[lineno - 1])
        replace_line(path, lineno, json.dumps({**record, **change}))
    code = main(["ner-eval", "--config", str(tmp_path / "config.json"), "--group", "each"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: 2 invalid annotation record(s):",
        f"{tmp_path / 'A.jsonl'}:3: {ALL_IS_NO_LABEL}",
        f"{tmp_path / 'B.jsonl'}:2: unknown doc 'ghost'",
    ]


def test_span_group_all_is_refused_though_its_native_type_is_mapped(tmp_path, capsys):
    args = [*tiny_corpus(tmp_path), "--system", f"A={tmp_path / 'a.jsonl'}"]
    (tmp_path / "groups.txt").write_text("ANAT|Anatomy|T017|Anatomical Structure\n")
    replace_line(tmp_path / "a.jsonl", 1,
                 '{"doc_id":"d0","source":"A","begin":0,"end":5,"group":"ALL","native_type":"T017"}')
    code = main(["ner-eval", *args, "--semgroups", str(tmp_path / "groups.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: 1 invalid annotation record(s):",
        f"{tmp_path / 'a.jsonl'}:1: {ALL_IS_NO_LABEL}",
    ]


def test_groups_file_group_all_is_listed_with_the_other_invalid_lines(tmp_path, capsys):
    args = [*tiny_corpus(tmp_path), "--system", f"A={tmp_path / 'a.jsonl'}"]
    groups = tmp_path / "sg.txt"
    groups.write_text("ANAT|Anatomy|T017|Anatomical Structure\n"
                      "ALLG|ALL|T999|Everything\n"
                      "DISO|Disorders|T017|Anatomical Structure\n")
    code = main(["ner-eval", *args, "--semgroups", str(groups)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: 2 invalid semantic group record(s):",
        f"{groups}:2: {ALL_IS_NO_LABEL}",
        f"{groups}:3: type 'T017' maps to 'Disorders', but to 'Anatomy' at line 1",
    ]
