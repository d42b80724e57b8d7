"""The keyed digest behind every seeded draw: the built-in ``_blake2`` hash,
with no OpenSSL loaded for it."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import span_ensembles
from span_ensembles import seeds

KEY_PARTS = st.one_of(st.integers(), st.text(), st.booleans(), st.none(), st.floats())


@given(st.lists(KEY_PARTS, max_size=5))
def test_digest_is_hashlib_blake2b(key):
    text = seeds._SEP.join(str(part) for part in key)
    raw = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    assert seeds.digest(*key) == int.from_bytes(raw, "big")


def test_importing_the_cli_loads_no_openssl_hash():
    code = "import sys, span_ensembles.cli; print(sorted({'_hashlib', 'hashlib'} & set(sys.modules)))"
    src = Path(span_ensembles.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
