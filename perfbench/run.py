"""Benchmark of the isotemporal package: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Inputs come from gen.py in a separate process.  The run then starts fresh
measured processes (child.py), one pass over one of the seed's op streams
each, until ``--seconds`` have passed, checks every answer (check.py) and
prints one JSON line: the end-to-end metrics with ``--trace 0``; with
``--trace 1``, the per-layer metrics of traced passes, each of which
follows an untraced pass over the same stream so that the tracing
overhead can be reported.  A summary goes to stderr.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from check import check_pass
from spans import COUNT_METRICS, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "symmetric", "cycles", "requests")
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_PASSES = 3  # medians of at least three; traced runs alternate untraced, traced, untraced


def run_pass(inputs: Path, stream: int, out: Path, index: int, traced: bool, timeout: float) -> dict:
    result = out / f"pass{index}.json"
    spans = out / f"spans{index}.json"
    argv = [sys.executable, str(HERE / "child.py"), str(inputs), f"ops/{stream}.json", str(result)]
    env = dict(os.environ, PYTHONHASHSEED="0")  # set order of hashed bytes, and its cost, repeat
    start = time.monotonic()
    subprocess.run(argv + [str(start)] + ([str(spans)] if traced else []), env=env, check=True, timeout=timeout)
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    data["stream"], data["traced"] = stream, traced
    if traced:
        data["trace"] = json.loads(spans.read_text(encoding="utf-8"))
    return data


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict], streams: list[list[dict]]) -> dict[str, tuple[float, str]]:
    # Each answer's latency is replaced by the median latency of every
    # answer to the same argument list in the run, whatever its stream or
    # position; each answer still counts once in the percentiles.
    answered = [(tuple(op["argv"]), r[0] * 1000) for p in passes for op, r in zip(streams[p["stream"]], p["ops"])]
    times = defaultdict(list)
    for argv, ms in answered:
        times[argv].append(ms)
    typical = {argv: statistics.median(v) for argv, v in times.items()}
    op_ms = [typical[argv] for argv, _ in answered]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (percentile(op_ms, 90), "ms"),
        "op_p99_ms": (percentile(op_ms, 99), "ms"),
    }


def per_layer(passes: list[dict]) -> dict[str, tuple[float, str]]:
    traced = [p for p in passes if p["traced"]]
    times = [self_times(p["trace"]["spans"]) for p in traced]
    out = {name: (statistics.median(t[name] for t in times), "s") for name in times[0]}
    counts = traced[0]["trace"]["counts"]
    for name in COUNT_METRICS:
        out[name] = (counts[name], "ratio" if name.endswith(("_yield", "_ratio")) else "count")
    out["trace.spans"] = (len(traced[0]["trace"]["spans"]), "count")
    # each traced pass follows an untraced pass over the same stream
    overhead = statistics.median(p["wall_s"] - passes[i - 1]["wall_s"] for i, p in enumerate(passes) if p["traced"])
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    if not (ROOT / "src" / "isotemporal" / "cli.py").is_file():
        print(f"perfbench: no isotemporal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    gen = [sys.executable, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed)]
    subprocess.run(gen + ["--out", str(inputs)], check=True, timeout=RUN_LIMIT_S)
    count = len(list((inputs / "ops").glob("*.json")))
    streams = [json.loads((inputs / f"ops/{k}.json").read_text(encoding="utf-8"))["ops"] for k in range(count)]

    # At least MIN_PASSES passes; after that, a pass starts only if one as
    # long as the last still ends within --seconds.
    passes: list[dict] = []
    measuring = time.monotonic()
    last = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() - measuring + last <= args.seconds:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        stream = (index // 2 if args.trace else index) % len(streams)
        started = time.monotonic()
        passes.append(run_pass(inputs, stream, work, index, traced, RUN_LIMIT_S - (started - began)))
        last = time.monotonic() - started

    # Beyond its own checks, each answer must match byte for byte that of
    # the first pass over the same stream, traced or not.
    failed = 0
    reasons: Counter = Counter()
    first: dict[int, dict] = {}
    for p in passes:
        ops = streams[p["stream"]]
        reference = first.setdefault(p["stream"], p)
        failures = check_pass(ops, p["ops"], inputs)
        for i, r in enumerate(p["ops"]):
            if i not in failures and r[2] != reference["ops"][i][2]:
                failures[i] = "output differs from the first pass over the stream"
        failed += len(failures)
        for i, reason in failures.items():
            reasons[f"{ops[i]['kind']}: {reason}"] += 1
    attempted = sum(len(p["ops"]) for p in passes)

    untraced = [p for p in passes if not p["traced"]]
    metrics = per_layer(passes) if args.trace else end_to_end(untraced, streams)

    print(
        f"perfbench {args.workload} seed {args.seed}: {len(passes)} passes over {len(first)} streams,"
        f" {sum(len(p['ops']) for p in untraced)} untraced answers to"
        f" {len({tuple(op['argv']) for p in untraced for op in streams[p['stream']]})} distinct ops,"
        f" error_rate {failed / attempted:.4f}",
        file=sys.stderr,
    )
    for key, n in sorted(reasons.items()):
        print(f"  failed x{n}: {key}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}", file=sys.stderr)
    shutil.rmtree(inputs if args.trace else work, ignore_errors=True)  # spans stay
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
