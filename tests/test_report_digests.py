"""Golden report digests: report bytes pinned across commits.

The byte-determinism tests compare two runs of the same code.  These pin the
SHA-256 of csv, markdown and json reports of ``vote``, ``complementarity``
and ``ner-eval`` (all with ``--group each``) on a small fixed ``synth``
corpus, so a refactor that changes any report byte fails here.  Four systems
make majority-vote ties occur; two seeds move the tie coin.

A second table pins ``ner-eval``, ``search``, ``vote`` and ``cui-eval`` at
both levels on a small mapped concept corpus that this module writes from a
seeded ``random.Random`` (not ``synth``): systems emit native types mapped
through a groups file and per-source overrides, some types stay unmapped,
and system spans carry scores and concept ids and overlap, so group mapping,
disambiguation and concept resolution all shape the reports.

A third table pins ``search`` and ``vote`` (``--group each``) with six
systems, so vote ties occur and the search space is the k=6 one, on a
``synth`` corpus of 80,000 characters: more than one default scoring block
(``search.BLOCK_CHARS``).  Every table is also re-checked with the block
budget patched to 1 character and to one that splits the corpus partway
through its document list, so a bug at a block boundary changes a digest.

Apart from the digests, every JSON report of the three tables must equal
``json.dumps(json.loads(text), indent=2, sort_keys=True)``: the format
holds even where a digest is re-recorded.

A deliberate report change updates the tables below and says why in
``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from span_ensembles import report, search
from span_ensembles.cli import main
from conftest import metrics_json_default

DIGESTS = {
    ("vote", "csv", 3): "070346014fe96aff2b2a447c4c12b32f3c1ac588e031c5e0308dff5d66b2e4db",
    ("vote", "markdown", 3): "49ac10d76fc934de65ad7b40e136a3e3bf643c933f8cfa933a9dd6b4cbd41de2",
    ("vote", "json", 3): "1354ae67c9974c0dc82e231fed7e87022024cc76346d8fa9bc2b57f4f6aeb334",
    ("vote", "csv", 5): "b7dcab839b66b2689503c33dabb8ec3f8c07077a7a1d8f30287ab2e07a609392",
    ("vote", "markdown", 5): "16bc541f9da842a2acd43d079cb6884d0d75eb52ae6be3d892957d1e34edf60d",
    ("vote", "json", 5): "a69d819fa060646dcbc68577d936dd80c86180b92d720250c73997086de92ba9",
    ("complementarity", "csv", 3): "b6d90bff2f168ae345aacdee7b2d82ccdd7a849a618d3ebee9cd34fb6e182af0",
    ("complementarity", "markdown", 3): "1009226b6d1c9986cecf548665fd76a186057415456d032ec4fdb4423ceb000e",
    ("complementarity", "json", 3): "472a7868352032cb42124897ae539db7e6896975a57fa8ab62090aecdfac64f2",
    ("complementarity", "csv", 5): "b6d90bff2f168ae345aacdee7b2d82ccdd7a849a618d3ebee9cd34fb6e182af0",
    ("complementarity", "markdown", 5): "1009226b6d1c9986cecf548665fd76a186057415456d032ec4fdb4423ceb000e",
    ("complementarity", "json", 5): "472a7868352032cb42124897ae539db7e6896975a57fa8ab62090aecdfac64f2",
    ("ner-eval", "csv", 3): "b73af52f051319bb4bd9c816b30b87900deef6a6aade6da4400ae2999bc80f0f",
    ("ner-eval", "markdown", 3): "bb216e15d5708f44461979ca3ee405c6a70455c37c23fe3ad095aa99500123ed",
    ("ner-eval", "json", 3): "21d31ddd5422e096ca611fbdcbc9eb06f5b436840bd01be4a6748856b91058f9",
    ("ner-eval", "csv", 5): "b73af52f051319bb4bd9c816b30b87900deef6a6aade6da4400ae2999bc80f0f",
    ("ner-eval", "markdown", 5): "bb216e15d5708f44461979ca3ee405c6a70455c37c23fe3ad095aa99500123ed",
    ("ner-eval", "json", 5): "21d31ddd5422e096ca611fbdcbc9eb06f5b436840bd01be4a6748856b91058f9",
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("digest-corpus")
    code = main(
        [
            "synth", "--out-dir", str(out), "--docs", "8", "--doc-length", "300",
            "--source", "A:0.2:1.0:1", "--source", "B:0.3:2.0:0",
            "--source", "C:0.1:0.5:2", "--source", "D:0.4:3.0:1",
            "--density", "20", "--groups", "G1,G2,G3", "--seed", "21",
        ]
    )
    assert code == 0
    return out


@pytest.mark.parametrize("task,fmt,seed", sorted(DIGESTS))
def test_report_digest(corpus, tmp_path, task, fmt, seed):
    out = tmp_path / "report"
    code = main(
        [
            task, "--config", str(corpus / "config.json"), "--group", "each",
            "--seed", str(seed), "--format", fmt, "--out", str(out),
        ]
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[(task, fmt, seed)]


# The synth corpus is 8 documents of 300 characters: 1,000 splits it after
# its third and sixth documents.
@pytest.mark.parametrize("budget", [1, 1000])
@pytest.mark.parametrize("task,fmt,seed", sorted(DIGESTS))
def test_report_digest_in_small_blocks(corpus, tmp_path, monkeypatch, budget, task, fmt, seed):
    monkeypatch.setattr(search, "BLOCK_CHARS", budget)
    test_report_digest(corpus, tmp_path, task, fmt, seed)


# The JSON digests are those of the stdlib encoder: with every JSON report
# written by json.dumps itself instead of the report renderer, each keeps it.
@pytest.mark.parametrize("task,fmt,seed", sorted(k for k in DIGESTS if k[1] == "json"))
def test_json_digest_by_json_dumps(corpus, tmp_path, monkeypatch, task, fmt, seed):
    def dumps(layout, rows, key="rows"):
        payload = {"layout": layout, key: list(rows)}
        return json.dumps(payload, indent=2, sort_keys=True, default=metrics_json_default)

    monkeypatch.setattr(report, "_json_text", dumps)
    test_report_digest(corpus, tmp_path, task, fmt, seed)


MAPPED_DIGESTS = {
    ('ner-eval', 'csv', 3): "5b117a9b69f073e5dc83fad4e868abe990fff507f46993c5fc144bef84a2fcc4",
    ('ner-eval', 'csv', 5): "9ab3828b12f9189f6609d402e1b5a1b0a00f7b673e08efa31bfc9d73ca9f9d82",
    ('ner-eval', 'markdown', 3): "7128242318470aabdea1b3dbd2e258d5c7134594d7ba1f7743faff42c3b81905",
    ('ner-eval', 'markdown', 5): "480b831129fbb09a37fb9dc31a69cbc3005662e9875327489dbea50444c02cd5",
    ('ner-eval', 'json', 3): "b10e38ac1246cde6c0652ee851410105a9016710852b2734b4cf106f29a37991",
    ('ner-eval', 'json', 5): "630437cb5282cb511c1bf219ba4aa6e21bf3ccfce60349943142e8e9fdcf3c1b",
    ('search', 'csv', 3): "5e968f26274447e23989866c97bddd3209250b08b4c93a452305adb1b0fb8258",
    ('search', 'csv', 5): "8b39c18b497d1072295ebd0fd76f1721974a6161c0c5294a931f15ed160bec2a",
    ('search', 'markdown', 3): "8eef940c0d16e66dfa4741b2ff91618441ec1c67abc3ac68d8def7e8c177de37",
    ('search', 'markdown', 5): "c088aa67e4989ff5c84b90c86208cddd75ba0c8210704ec7ed9488670f5612b7",
    ('search', 'json', 3): "751385557b90e48f74dad0f3fd41e64491cb4a0460bd84273960c272d03e9842",
    ('search', 'json', 5): "6048353ac75dd5fae087adefcc31526b950b0b91b94e4d2a897c2763f861f5e6",
    ('vote', 'csv', 3): "e6898f46abe6cc9631393e995a77a9d1278d1afc0eac4711cb1e1d99abb9511f",
    ('vote', 'csv', 5): "fc17b2d432ae1fcb64e421896cd9a66d2a13543a95138a5b5328e0983c7a57eb",
    ('vote', 'markdown', 3): "24ea6f9f7ba6bdf08a6f0d55a26e86eb26c7b71cb14dc857b580eb0c162a6b39",
    ('vote', 'markdown', 5): "e2e931f153b4c785368209d4d3c173e48a818af2d063311dbfa927e7cbe609d5",
    ('vote', 'json', 3): "bbe2f5b848622d6179d58404e79e293d6cdabcad67ce42e706d30f050d83011d",
    ('vote', 'json', 5): "2c9c96f1b2b47cbcba3b017531d157be73f2b5e60e5694a81e00a9ffe1e3cdaa",
    ('cui-doc', 'csv', 3): "4cb9e95bb4527a60f00bb63a455a03ac18149e96ed137a93e9ce848c83989326",
    ('cui-doc', 'csv', 5): "414cb8ec0928dfff497c55df669af75f1cf22a7f17809db9ad57d7b733d844b3",
    ('cui-doc', 'markdown', 3): "0d1c82353e7414e9ed237d5670d9cf680a902fdbe6e4e9e80e6cb5e4b7739059",
    ('cui-doc', 'markdown', 5): "e9b4cf0937461b11ff8461743472da6a92c6c504c330b1e2e5c7acf126cfe2e4",
    ('cui-doc', 'json', 3): "1b6c7f9852c2f04443e5a1addfed43174a9df67efc165f2c6c1b7f6b622332c6",
    ('cui-doc', 'json', 5): "3596ee550dd2d1e50aed63ea900a321eca5363a2807ba30d3d3dfac9d4e83e3c",
    ('cui-mention', 'csv', 3): "4f28297b029da8a7b99193e9d42f8ce3ba3a506d9d0d5cf4ac2947940f0c95d7",
    ('cui-mention', 'csv', 5): "7624e3eef3e78d7c605d9e31528852e3a25a3269a3e4881603a4697cf6caec28",
    ('cui-mention', 'markdown', 3): "5dd815d0139275ef6b5888cc22c31b4d31284cef8f53ed7fbcf1398958e0fc3f",
    ('cui-mention', 'markdown', 5): "e6e8644b474715fe2f91df6bd277b19ac7da2c54394c6e6058c7f756bf2acef9",
    ('cui-mention', 'json', 3): "6207121dc37e2c7fd39991c1a1b0c795705620fb50e2a8b40c2d0c37a3a951d7",
    ('cui-mention', 'json', 5): "9cb0bd74869e6c65fe3b8ae1ea694fd010116bcc7a243ed78d4acd0625003350",
    # ensemble-eval: the one single-systems report whose markdown escapes '|'
    ('ensemble-eval', 'csv', 3): "b5c90077369d74fdadfd265245f4dbcddee68bf65920d5048d2fa64eb967b2b0",
    ('ensemble-eval', 'csv', 5): "b064a4889d2374e1deada2e889f178db1c806a73f24f881c9213bbb2bb9dc782",
    ('ensemble-eval', 'markdown', 3): "4b1768f73a373c67ab24dddf5f84fa693483f0008daa253198d18a7f24dbd400",
    ('ensemble-eval', 'markdown', 5): "267f4daafd6b9e74f125d075a770d5e704b145ff82d07a3ecf80c2654e228d3e",
    ('ensemble-eval', 'json', 3): "5dbeed4d9993fbaf35ca2bfdf77ca3d97a01f6d2c48a3b3559979306c13a7e66",
    ('ensemble-eval', 'json', 5): "210e927058f28aee78dc5f037d9e7b491637ab29f3d3e7efedcfb4a300d0b93c",
    ('complementarity', 'csv', 3): "579a258c17175cfd2325188854048ba05a4d5559d1e6e70cc54e05cf1ffb0a08",
    ('complementarity', 'csv', 5): "2f4dada349ba57836cd69020db79adf238b804f8ecf7a509ee1cd2f48bb1025a",
    ('complementarity', 'markdown', 3): "d563bb948dbc3e38512693a4d5cd446b57bcef6b149f7c808d3e89ef52960ba4",
    ('complementarity', 'markdown', 5): "06c1871d0d883adb45ee79a2a0590995a1f45bcc7733b988569b18de696bafb0",
    ('complementarity', 'json', 3): "d8d4dc4c1e1de00a1936160573ea52f0ccb521f60fee8ecddf549a3671eeba28",
    ('complementarity', 'json', 5): "102ae4615b3011fd90ee483e501182a89e3942355a699c6c203871c0c209a386",
}

MAPPED_CALLS = {
    "ner-eval": ["ner-eval"],
    "search": ["search", "--top-k", "4"],
    "vote": ["vote"],
    "cui-doc": ["cui-eval", "--level", "doc", "--expr", "((A|B)|C)"],
    "cui-mention": ["cui-eval", "--level", "mention", "--expr", "((A|B)|C)"],
    "ensemble-eval": ["ensemble-eval", "--expr", "((A|B)&C)"],
    "complementarity": ["complementarity"],
}

GROUP_LINES = [
    "ANAT|Anatomy|T017|Anatomical Structure",
    "ANAT|Anatomy|T023|Body Part, Organ, or Organ Component",
    "DISO|Disorders|T047|Disease or Syndrome",
    "DISO|Disorders|T191|Neoplastic Process",
    "PROC|Procedures|T060|Diagnostic Procedure",
    "PROC|Procedures|T061|Therapeutic or Preventive Procedure",
]
GROUP_TYPES = {"Anatomy": ["T017", "T023"], "Disorders": ["T047", "T191"],
               "Procedures": ["T060", "T061"]}
OVERRIDES = [
    {"source": "B", "native_type": "b-organ", "group": "Anatomy"},
    {"source": "B", "native_type": "b-finding", "group": "Disorders"},
    {"source": "C", "native_type": "T047", "group": "Procedures"},  # beats the TUI lookup
]
NATIVE_LABELS = {
    "A": {g: types for g, types in GROUP_TYPES.items()},
    "B": {"Anatomy": ["b-organ", "T023"], "Disorders": ["b-finding"], "Procedures": ["T060"]},
    "C": {g: types for g, types in GROUP_TYPES.items()},
}


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@pytest.fixture(scope="module")
def mapped_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("mapped-corpus")
    rng = random.Random(1234)
    groups = sorted(GROUP_TYPES)
    cuis = [f"C{n:07d}" for n in rng.sample(range(1, 10**6), 9)]
    docs = [{"doc_id": f"m{i}", "length": rng.randrange(150, 300), "corpus_id": "mapped"}
            for i in range(6)]
    gold, systems = [], {name: [] for name in NATIVE_LABELS}
    for doc in docs:
        begin = 0
        while True:
            begin += rng.randrange(2, 25)
            end = begin + rng.randrange(2, 12)
            if end > doc["length"]:
                break
            group = rng.choice(groups)
            cui = rng.choice(cuis)
            gold.append({"doc_id": doc["doc_id"], "source": "gold", "begin": begin,
                         "end": end, "group": group, "cui": cui})
            if rng.random() < 0.15:  # an overlapping gold span with another concept
                gold.append({"doc_id": doc["doc_id"], "source": "gold", "begin": begin + 1,
                             "end": min(end + 3, doc["length"]), "group": group,
                             "cui": rng.choice(cuis)})
            for name, labels in NATIVE_LABELS.items():
                if rng.random() < 0.25:
                    continue
                shift = rng.randrange(-2, 3)
                b = min(max(begin + shift, 0), doc["length"] - 1)
                e = min(max(end + rng.randrange(-2, 3), b + 1), doc["length"])
                record = {"doc_id": doc["doc_id"], "source": name, "begin": b, "end": e}
                roll = rng.random()
                if roll < 0.08:
                    record["native_type"] = "T999" if name != "B" else "b-unknown"
                elif roll < 0.12:
                    record["group"] = group  # already grouped, no native type
                elif roll < 0.14:
                    pass  # neither: dropped in mapping
                else:
                    record["native_type"] = rng.choice(labels[group])
                if rng.random() < 0.85:
                    record["cui"] = cui if rng.random() < 0.8 else rng.choice(cuis)
                if rng.random() < 0.7:
                    record["score"] = rng.choice([0.25, 0.5, 0.75, round(rng.random(), 3)])
                systems[name].append(record)
                move = rng.randrange(-3, 4)
                if rng.random() < 0.3 and move and 0 <= b + move and e + move <= doc["length"]:
                    # an overlapping twin of equal length and score: a seeded tie-break
                    twin = dict(record, begin=b + move, end=e + move)
                    if rng.random() < 0.5:
                        twin["cui"] = rng.choice(cuis)
                    systems[name].append(twin)
    _write_jsonl(out / "manifest.jsonl", docs)
    _write_jsonl(out / "gold.jsonl", gold)
    for name, records in systems.items():
        rng.shuffle(records)
        _write_jsonl(out / f"{name}.jsonl", records)
    _write_jsonl(out / "overrides.jsonl", OVERRIDES)
    (out / "groups.txt").write_text("\n".join(GROUP_LINES) + "\n", encoding="utf-8")
    config = {"manifest": "manifest.jsonl", "gold": "gold.jsonl",
              "systems": {name: f"{name}.jsonl" for name in systems},
              "semgroups": "groups.txt", "overrides": "overrides.jsonl"}
    (out / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return out


@pytest.mark.parametrize("call,fmt,seed", sorted(MAPPED_DIGESTS))
def test_mapped_report_digest(mapped_corpus, tmp_path, call, fmt, seed):
    out = tmp_path / "report"
    code = main(
        [
            *MAPPED_CALLS[call], "--config", str(mapped_corpus / "config.json"),
            "--group", "each", "--seed", str(seed), "--format", fmt, "--out", str(out),
        ]
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MAPPED_DIGESTS[(call, fmt, seed)]


# The mapped corpus is 6 documents of 150-299 characters: 500 puts two or
# three in a block.
@pytest.mark.parametrize("budget", [1, 500])
@pytest.mark.parametrize("call,fmt,seed", sorted(MAPPED_DIGESTS))
def test_mapped_report_digest_in_small_blocks(
    mapped_corpus, tmp_path, monkeypatch, budget, call, fmt, seed
):
    monkeypatch.setattr(search, "BLOCK_CHARS", budget)
    test_mapped_report_digest(mapped_corpus, tmp_path, call, fmt, seed)


SIX_DIGESTS = {
    ("search", "csv", 3): "920de90ed690d91c7578b59c7bfb7c7cd3136b94949257b6f2d378416dbe1245",
    ("search", "csv", 5): "e4972c3ce5902c043246e6dfe4fc40dcf6c4f4b4d542e9d772e327bd52702dc5",
    ("search", "markdown", 3): "bf353423ea6c1836c546ddf2c4b92b58db19804c883be3e105d9558ac90450cc",
    ("search", "markdown", 5): "6b50c912ee6328d5161f57120360c1f4e68716c3ddab7f178f5892cc6c15ed0b",
    ("search", "json", 3): "a994ac837780343033a000b683d7788f0fea3f300bb19d36dd569ee505b50157",
    ("search", "json", 5): "021bb4002708b1e84320ec36bdff2da34d3492f17db20887733fec5b62ac7c62",
    ("vote", "csv", 3): "b8d6a05f9e915b542722ddb7e7230b29bf07adcf718e626cf11b9bd8ebd5ab22",
    ("vote", "csv", 5): "795ff47e945a99fe7aa5bcb88a4919f9ddac9e421159f095dfd13081db454dcb",
    ("vote", "markdown", 3): "a4fd86417c8952bf303f59b70b4f3ea4423846da5c2c8848826c01c750126f98",
    ("vote", "markdown", 5): "d9b388853c93d9516c66eada7bafe33435a7112a31e148c7db27e7b521da3200",
    ("vote", "json", 3): "6da20d741411e5fa1fc7295e40b7b9f643b5a350e6cd451c072b7de77354dde9",
    ("vote", "json", 5): "5b8b1a999783a38706a24e56bb97c39e12bea88f0d346ba0faf4a1070e95fb4e",
}

SIX_CALLS = {"search": ["search", "--top-k", "4"], "vote": ["vote"]}


@pytest.fixture(scope="module")
def six_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("six-corpus")
    code = main(
        [
            "synth", "--out-dir", str(out), "--docs", "40", "--doc-length", "2000",
            "--source", "A:0.2:1.0:1", "--source", "B:0.3:2.0:0",
            "--source", "C:0.1:0.5:2", "--source", "D:0.4:3.0:1",
            "--source", "E:0.25:1.5:1", "--source", "F:0.35:2.5:2",
            "--density", "20", "--groups", "G1,G2,G3", "--seed", "33",
        ]
    )
    assert code == 0
    return out


@pytest.mark.parametrize("task,fmt,seed", sorted(SIX_DIGESTS))
def test_six_system_report_digest(six_corpus, tmp_path, task, fmt, seed):
    out = tmp_path / "report"
    code = main(
        [
            *SIX_CALLS[task], "--config", str(six_corpus / "config.json"), "--group", "each",
            "--seed", str(seed), "--format", fmt, "--out", str(out),
        ]
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIX_DIGESTS[(task, fmt, seed)]


JSON_REPORTS = [
    *(("corpus", task, [task], seed) for task, fmt, seed in sorted(DIGESTS) if fmt == "json"),
    *(("mapped_corpus", call, MAPPED_CALLS[call], seed)
      for call, fmt, seed in sorted(MAPPED_DIGESTS) if fmt == "json"),
    *(("six_corpus", task, SIX_CALLS[task], seed)
      for task, fmt, seed in sorted(SIX_DIGESTS) if fmt == "json"),
]


@pytest.mark.parametrize(
    "fixture,name,argv,seed", JSON_REPORTS, ids=[f"{f}-{n}-{s}" for f, n, _, s in JSON_REPORTS]
)
def test_json_report_is_its_own_json_dumps(request, tmp_path, fixture, name, argv, seed):
    config = request.getfixturevalue(fixture) / "config.json"
    out = tmp_path / "report"
    code = main(
        [
            *argv, "--config", str(config), "--group", "each", "--seed", str(seed),
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text
