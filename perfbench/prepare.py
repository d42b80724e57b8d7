"""Write one workload's corpus and its reference figures into a directory.

``run.py`` runs this in a child process, so that generating the corpus
neither takes time from the measured rounds nor raises the measured
process's peak memory.

    python3 perfbench/prepare.py --workload reports-cui --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import reference
from corpus import generate
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    workload = WORKLOADS[args.workload]
    meta = generate(workload.corpus, args.seed, out)
    corpus = reference.Corpus.from_dir(out, meta["clean"])
    figures = reference.compute(corpus, workload.cui_union)
    (out / "reference.json").write_text(json.dumps(figures))
    (out / "meta.json").write_text(json.dumps(meta))


if __name__ == "__main__":
    main()
