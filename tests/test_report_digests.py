"""Golden report digests: report bytes pinned across commits.

The byte-determinism tests compare two runs of the same code.  These pin the
SHA-256 of csv, markdown and json reports of ``vote``, ``complementarity``
and ``ner-eval`` (all with ``--group each``) on a small fixed ``synth``
corpus, so a refactor that changes any report byte fails here.  Four systems
make majority-vote ties occur; two seeds move the tie coin.

A deliberate report change updates the table below and says why in
``CHANGES.md``.
"""

from __future__ import annotations

import hashlib

import pytest

from span_ensembles.cli import main

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
