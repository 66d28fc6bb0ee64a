"""The measured process: one cold pass over a workload's ops.

    python3 perfbench/child.py INPUTS OPS RESULT START [SPANS]

OPS is an op stream, relative to INPUTS.  START is the caller's
``time.monotonic()`` taken just before it started this process;
``setup_s`` runs from there to the moment the op list is loaded, so it
covers interpreter start and ``import isotemporal``.  Every op goes
through ``isotemporal.cli.run`` in this process, one after the other,
with its output captured.  With SPANS given, public functions are traced
and the spans are written there after the last op.
"""

import sys
import time


def peak_rss_mb() -> float:
    # Not ru_maxrss: Linux carries the parent's peak RSS over the fork and
    # exec that start this process, so it would report the larger of the
    # two.  VmHWM is the peak of this process's own address space.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    inputs, ops_path, result_path, start = sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4])
    spans_path = sys.argv[5] if len(sys.argv) > 5 else None

    import contextlib
    import io
    import json
    import os
    import traceback
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import isotemporal.cli as cli

    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(inputs)
    with open(ops_path, encoding="utf-8") as fh:
        ops = [op["argv"] for op in json.load(fh)["ops"]]
    setup_s = time.monotonic() - start

    results = []
    first = time.perf_counter()
    for index, argv in enumerate(ops):
        if tracer:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception:  # an escaped exception is a failed op, not a crashed pass
            code = None
            err.write(traceback.format_exc())
        results.append([time.perf_counter() - began, code, out.getvalue(), err.getvalue()])
    wall_s = time.perf_counter() - first
    peak = peak_rss_mb()

    if tracer:
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak, "ops": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
