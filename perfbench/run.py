"""Benchmark of the span-ensembles command line, end to end and per layer.

Runs one workload's CLI calls in this process, in closed loop with one
caller (``--workers 1``), round after round for ``--seconds`` seconds, and
checks every report against reference figures computed apart from the
program.  The corpus is generated from ``--seed`` in a child process before
the clock starts.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over
rounds); with ``--trace 1`` untraced and traced rounds alternate and the
metrics are the per-layer ones.  Usage, from the root of the repository:

    python3 perfbench/run.py --workload search-groups --seed 1 --seconds 50 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import selftest  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PREPARE_TIMEOUT_S = 150


def load_program():
    """Import the CLI from this checkout's ``src``; None when it is not there."""
    src = ROOT / "src"
    if not (src / "span_ensembles" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(src))
    from span_ensembles import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        return None
    return cli


@dataclass
class Round:
    """Timing, set-up time, records read and report bytes of one round."""

    wall: float = 0.0
    setup: float = 0.0
    records: int = 0
    bytes: int = 0


def run_round(cli, workload, config: Path, out: Path, seed: int, ref: dict, meta: dict,
              build_times: list, tally: dict) -> Round:
    rnd = Round()
    earlier: dict = {}
    for call in workload.calls:
        argv = [*call.argv, "--config", str(config), "--seed", str(seed), "--format", "json",
                "--out", str(out)]
        out.unlink(missing_ok=True)
        stderr = io.StringIO()
        # Start each call with no garbage left by the previous call and its
        # checks, as a fresh process would.
        gc.collect()
        n_builds = len(build_times)
        problems: list[str] = []
        start = perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = None
            problems.append(traceback.format_exc(limit=3))
        rnd.wall += perf_counter() - start
        rnd.setup += sum(build_times[n_builds:])
        rnd.records += meta["records"]
        tally["attempted"] += 1
        if rc != 0:
            problems.append(f"exit code {rc}: {stderr.getvalue().strip()[:300]}")
        else:
            try:
                text = out.read_text(encoding="utf-8")
                rnd.bytes += len(text.encode("utf-8"))
                report = json.loads(text)
                earlier[call.name] = report
                problems += call.check(report, ref, earlier)
                if meta["mapped"]:
                    problems += checks.dropped_note(stderr.getvalue(), ref)
            except Exception:  # a report the checks cannot read is a failed operation
                problems.append(traceback.format_exc(limit=3))
        if problems:
            tally["failed"] += 1
            print(f"{call.name}: {len(problems)} problem(s): {problems[:3]}", file=sys.stderr)
    return rnd


def measure(cli, name: str, work: Path, seed: int, seconds: float, trace: bool,
            ref: dict, meta: dict):
    workload = WORKLOADS[name]
    build_times: list[float] = []
    build_store = cli._build_store

    def timed_build_store(cfg):
        start = perf_counter()
        try:
            return build_store(cfg)
        finally:
            build_times.append(perf_counter() - start)

    cli._build_store = timed_build_store
    tally = {"attempted": 0, "failed": 0}
    plain: list[Round] = []
    traced: list[tuple[Round, dict]] = []
    tracer = Tracer()
    spans: list = []
    started = perf_counter()
    try:
        while True:
            rounds = [r for r, _ in traced] + plain
            elapsed = perf_counter() - started
            enough = len(plain) >= 1 and (not trace or len(traced) >= 1)
            if enough and elapsed + statistics.median(r.wall for r in rounds) > seconds:
                break
            use_trace = trace and len(traced) < len(plain)
            if use_trace:
                tracer.install()
            try:
                rnd = run_round(cli, workload, work / "config.json", work / "report.json", seed,
                                ref, meta, build_times, tally)
            finally:
                tracer.uninstall()
            print(f"round {len(plain) + len(traced)}{' traced' if use_trace else ''}: "
                  f"wall {rnd.wall:.3f} s, setup {rnd.setup:.3f} s", file=sys.stderr)
            if use_trace:
                traced.append((rnd, tracer.round_metrics()))
                spans = tracer.take_spans()
            else:
                plain.append(rnd)
    finally:
        cli._build_store = build_store

    if trace:
        metrics = per_layer(plain, traced)
        write_trace(metrics, spans, traced, ROOT / ".perfbench_out" / f"trace-{name}-seed{seed}.json")
    else:
        metrics = end_to_end(plain)
    return tally, metrics


def end_to_end(rounds: list[Round]) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
        "setup_s": {"value": statistics.median(r.setup for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "records_per_s": {"value": statistics.median(r.records / r.wall for r in rounds),
                          "unit": "records/s"},
    }


def per_layer(plain: list[Round], traced: list[tuple[Round, dict]]) -> dict:
    out = {}
    for name in traced[0][1]:
        value = statistics.median(m[name] for _, m in traced)
        unit = "s" if name.endswith("_s") else "count"
        out[name] = {"value": value, "unit": unit}
    out["report.bytes"] = {"value": statistics.median(r.bytes for r, _ in traced), "unit": "B"}
    overhead = (statistics.median(r.wall for r, _ in traced)
                - statistics.median(r.wall for r in plain))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def write_trace(metrics: dict, spans: list, traced: list, path: Path) -> None:
    """Per-round layer figures and the last traced round's spans."""
    path.parent.mkdir(exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    payload = {
        "metrics": metrics,
        "rounds": [m for _, m in traced],
        "spans": [[name, round(s - t0, 7), round(e - t0, 7), p] for name, s, e, p in spans],
    }
    path.write_text(json.dumps(payload))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if selftest.main() != 0:
        print("perfbench: the reference self-test failed", file=sys.stderr)
        return 3
    cli = load_program()
    if cli is None:
        print(f"perfbench: no span_ensembles source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work)],
            check=True, timeout=PREPARE_TIMEOUT_S,
        )
        meta = json.loads((work / "meta.json").read_text())
        ref = json.loads((work / "reference.json").read_text())
        tally, metrics = measure(cli, args.workload, work, args.seed, args.seconds,
                                 bool(args.trace), ref, meta)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"inputs sha256 {meta['digest']} records {meta['records']} workload {args.workload} "
          f"seed {args.seed}")
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
