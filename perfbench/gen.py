"""Write one workload's inputs for a seed: network files plus op streams.

    python3 perfbench/gen.py --workload requests --seed 7 --out DIR

It runs as its own process, so nothing it computes warms a cache of the
measured process.  The same workload and seed always write byte-identical
files.  A stream is an op list in ``ops/<k>.json``; every op is an
argument list for ``isotemporal.cli.run``, and file arguments are relative
to DIR.  ``corpus`` and ``requests`` get STREAMS distinct streams, so the
passes of a run answer different ops and a run's figures do not hang on
the few slowest ops one stream happens to draw.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from isotemporal import (  # noqa: E402
    adjacency,
    edge_automorphism_group,
    enumerate_family_specs,
    generate,
    parse_family_spec,
    spec_string,
)

WORKLOADS = ("corpus", "symmetric", "cycles", "requests")

SYMMETRIC_SPECS = ("star:8", "beachball:8", "daisy:9")
CYCLE_SPECS = ("cycle:7", "cycle:8", "cycle:9")
BATCH_LIMIT = 9  # symmetric and cycles reach 9 edges; the default CLI limit is 8
STREAMS = 12  # more than the passes of a 30 s run; run.py reuses them past that

# Request graphs, 7 to 9 edges: the three cycles, every diaster with both
# sides non-empty, and one stem per pair of side types.
REQUEST_GRAPHS = (
    list(CYCLE_SPECS)
    + [f"diaster:{a},{b}" for a in range(1, 5) for b in range(a, 9 - a) if 6 <= a + b <= 8]
    + [
        "stem:star:2/star:4",
        "stem:star:3/beachball:3",
        "stem:star:3/daisy:4",
        "stem:beachball:2/star:5",
        "stem:beachball:4/beachball:4",
        "stem:beachball:3/daisy:5",
        "stem:daisy:1/star:6",
        "stem:daisy:2/beachball:6",
        "stem:daisy:4/daisy:3",
    ]
)
PAIRS_PER_GRAPH = 16  # half built to be temporally isomorphic, half random
PATHS_PER_GRAPH = 16
COUNT_MAX_EDGES = 6


def count_specs() -> list[str]:
    """Every family spec the parser accepts with at most COUNT_MAX_EDGES edges.

    Diasters are listed in both orientations.  One-sided diasters
    (``diaster:0,b``) are left out: ``count --method all`` reports DISAGREE
    on them, and every op of a workload must succeed (see README.md).
    """
    specs = [spec_string(s) for s in enumerate_family_specs(COUNT_MAX_EDGES, include_cycles=True)]
    specs += [f"diaster:{a},{b}" for b in range(1, COUNT_MAX_EDGES) for a in range(b + 1, COUNT_MAX_EDGES - b)]
    return sorted(specs)


def count_op(spec: str, limit: int | None = None) -> dict:
    argv = ["count", "--family", spec, "--method", "all", "--format", "json"]
    if limit is not None:
        argv += ["--limit", str(limit)]
    return {"kind": "count", "spec": spec, "argv": argv}


def network_text(graph, labeling) -> str:
    # the documented file format, written here rather than by
    # serialize_network so that the inputs do not change with the package
    lines = [f"vertices: {graph.vertex_count}", f"edges: {graph.edge_count}"]
    lines += [f"{eid} {u} {v} {labeling[eid]}" for eid, (u, v) in graph.edges]
    return "\n".join(lines) + "\n"


def legal_swaps(graph, labeling) -> list[int]:
    """Labels i whose edges (label i, label i+1) are not adjacent."""
    adj = adjacency(graph)
    edge_of = {lab: e for e, lab in enumerate(labeling)}
    return [i for i in range(1, len(labeling)) if not adj.adjacent(edge_of[i], edge_of[i + 1])]


def isomorphic_partner(rng: random.Random, graph, labeling: list[int]) -> list[int]:
    """Random legal swaps, then a random edge automorphism: temporally isomorphic."""
    out = list(labeling)
    for _ in range(rng.randint(1, 2 * len(out))):
        moves = legal_swaps(graph, out)
        if not moves:
            break
        lab = rng.choice(moves)
        i, j = out.index(lab), out.index(lab + 1)
        out[i], out[j] = out[j], out[i]
    perm = rng.choice(edge_automorphism_group(graph).elements)
    return [out[perm[e]] for e in range(len(out))]


def requests_ops(rng: random.Random, files: dict[str, str], stream: int) -> list[dict]:
    ops: list[dict] = []

    def write(graph, labeling) -> str:
        name = f"nets/{stream}/n{len(files):05d}.net"
        files[name] = network_text(graph, labeling)
        return name

    pair_id = 0
    for spec in REQUEST_GRAPHS:
        graph = generate(parse_family_spec(spec))
        t = graph.edge_count
        two_sided = not spec.startswith("cycle:")
        for k in range(PAIRS_PER_GRAPH):
            a = rng.sample(range(1, t + 1), t)
            constructed = k % 2 == 0
            b = isomorphic_partner(rng, graph, a) if constructed else rng.sample(range(1, t + 1), t)
            fa, fb = write(graph, a), write(graph, b)
            ops.append({"kind": "iso", "pair": pair_id, "constructed": constructed, "argv": ["iso", fa, fb]})
            if two_sided:
                ops.append({"kind": "swapscript", "pair": pair_id, "argv": ["swapscript", fa, fb]})
            pair_id += 1
        for _ in range(PATHS_PER_GRAPH):
            ops.append({"kind": "paths", "argv": ["paths", write(graph, rng.sample(range(1, t + 1), t))]})
    ops += [count_op(spec) for spec in count_specs()]
    rng.shuffle(ops)
    return ops


def stream_ops(workload: str, seed: int, stream: int, files: dict[str, str]) -> list[dict]:
    rng = random.Random(f"{workload}/{seed}/{stream}")
    if workload == "corpus":
        ops = [count_op(spec_string(s)) for s in enumerate_family_specs(7)]
        rng.shuffle(ops)
        return ops
    if workload in ("symmetric", "cycles"):
        # Fixed order, whatever the seed: with the package's unbounded caches
        # peak RSS depends on the order (158 to 190 MB on symmetric).
        return [count_op(spec, BATCH_LIMIT) for spec in (SYMMETRIC_SPECS if workload == "symmetric" else CYCLE_SPECS)]
    if workload == "requests":
        return requests_ops(rng, files, stream)
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int) -> dict[str, str]:
    """File name -> contents for one workload and seed."""
    files: dict[str, str] = {}
    for stream in range(STREAMS if workload in ("corpus", "requests") else 1):
        ops = stream_ops(workload, seed, stream, files)
        doc = {"workload": workload, "seed": seed, "stream": stream, "ops": ops}
        files[f"ops/{stream}.json"] = json.dumps(doc, sort_keys=True) + "\n"
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for name, text in build(args.workload, args.seed).items():
        path = args.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
