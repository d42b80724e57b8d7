import csv
import io
import json

import pytest

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


def test_unwritable_out_is_validation_error(corpus, capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x.csv"
    code = main(["vote", "--config", str(corpus / "config.json"), "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"cannot write report to {target}" in captured.err
    assert not target.exists()


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
