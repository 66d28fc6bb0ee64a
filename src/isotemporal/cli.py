"""Command-line front end.

Exit codes: 0 success, 1 domain or usage errors (bad spec, limit
exceeded), 2 when a verification run finds disagreeing counts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import NamedTuple, Optional, Sequence

from . import families, formulas
from .classes import (
    DEFAULT_EDGE_LIMIT,
    HARD_EDGE_CAP,
    brute_force_classes,
    check_limit,
    compare_partitions,
    swap_closure_classes,
)
from .core import VERTEX_LIMIT, IsotemporalError, build_network, parse_network, serialize_network
from .families import Diaster, FamilySpec, generate, parse_family_spec, spec_string
from .iso import label_isomorphism_witness, temporal_isomorphism_witness
from .paths import temporal_paths

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DISAGREE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_network(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_network(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise IsotemporalError(f"cannot read {path}: {exc}") from None


def _family_graph(spec: FamilySpec, limit: int):
    check_limit(families.edge_count(spec), limit)  # before a graph of that size is built
    return generate(spec)


class VerificationRow(NamedTuple):
    """One family's cross-checked counts."""

    family: str
    formula: Optional[int]
    lattice: Optional[int]
    brute: int
    swap: int
    verdict: str
    elapsed: dict[str, float]


def cross_check(
    spec: FamilySpec, methods: Optional[Sequence[str]], limit: int
) -> tuple[dict[str, Optional[int]], dict[str, float], str]:
    """Run the named counting routes on spec; None runs every route that applies.

    Returns the counts (None where a route does not cover spec), the
    seconds per route, and AGREE when every computed count is equal,
    else DISAGREE.  Route functions are looked up at call time, so that
    rebinding them (tracing, tests) takes effect.
    """
    two_sided = isinstance(spec, Diaster) and spec.a > 0 and spec.b > 0  # D(0, b) is a star
    routes = {
        "formula": lambda: formulas.family_count(spec).value,
        "lattice": lambda: formulas.lattice_count(spec.a, spec.b).value if two_sided else None,
        "brute": lambda: brute_force_classes(_family_graph(spec, limit), limit).class_count,
        "swap": lambda: swap_closure_classes(_family_graph(spec, limit), limit).class_count,
    }
    if methods is None:
        methods = [m for m in routes if m != "lattice" or two_sided]
    counts: dict[str, Optional[int]] = {}
    elapsed: dict[str, float] = {}
    for method in methods:
        start = time.perf_counter()
        counts[method] = routes[method]()
        elapsed[method] = time.perf_counter() - start
    computed = [v for v in counts.values() if v is not None]
    verdict = "AGREE" if all(v == computed[0] for v in computed) else "DISAGREE"
    return counts, elapsed, verdict


def verify(max_edges: int) -> list[VerificationRow]:
    """Cross-check every applicable counting method over the family corpus."""
    if max_edges > HARD_EDGE_CAP:
        raise IsotemporalError(f"max-edges {max_edges} exceeds the hard cap {HARD_EDGE_CAP}")
    rows = []
    for spec in families.enumerate_family_specs(max_edges):
        counts, elapsed, verdict = cross_check(spec, None, max_edges)
        formula, lattice, brute, swap = map(counts.get, ("formula", "lattice", "brute", "swap"))
        if verdict == "AGREE" and formula is None:
            verdict = "AGREE-partial"
        rows.append(VerificationRow(spec_string(spec), formula, lattice, brute, swap, verdict, elapsed))
    return rows


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_count(args) -> int:
    spec = parse_family_spec(args.family)
    counts, _, verdict = cross_check(spec, None if args.method == "all" else [args.method], args.limit)
    if args.method != "all":
        verdict = None
    if args.format == "json":
        payload = {"family": spec_string(spec), "counts": counts}
        if verdict is not None:
            payload["verdict"] = verdict
        _print_json(payload)
    elif args.method == "all":
        for method, value in counts.items():
            print(f"{method}: {'not-covered' if value is None else value}")
        print(f"verdict: {verdict}")
    else:
        value = counts[args.method]
        print("not-covered" if value is None else value)
    return EXIT_DISAGREE if verdict == "DISAGREE" else EXIT_OK


def _partition_payload(partition, representatives: bool):
    payload = {
        "method": partition.method,
        "count": partition.class_count,
        "sizes": list(partition.block_sizes),
    }
    if representatives:
        payload["representatives"] = [list(rep) for rep in partition.representatives]
    return payload


def _cmd_classes(args) -> int:
    if args.family is not None:
        graph = _family_graph(parse_family_spec(args.family), args.limit)
        name = args.family
    else:
        graph = _load_network(args.graph).graph
        name = args.graph
    equal = None
    if args.method == "both":
        report = compare_partitions(graph, args.limit)
        sections, equal = [report.temporal, report.swap], report.equal
    else:
        sections = [(brute_force_classes if args.method == "brute" else swap_closure_classes)(graph, args.limit)]
    if args.format == "json":
        payload = {"graph": name, "partitions": [_partition_payload(p, args.representatives) for p in sections]}
        if equal is not None:
            payload["equal"] = equal
        _print_json(payload)
    else:
        print(f"graph: {name}")
        for partition in sections:
            print(f"method: {partition.method}")
            print(f"classes: {partition.class_count}")
            print(f"sizes: {' '.join(str(s) for s in partition.block_sizes)}")
            if args.representatives:
                for rep in partition.representatives:
                    print(f"representative: {' '.join(str(x) for x in rep)}")
        if equal is not None:
            print(f"equal: {'yes' if equal else 'no'}")
    if equal is False:
        return EXIT_DISAGREE
    return EXIT_OK


def _format_bijection(edge_map) -> str:
    return " ".join(f"{e}->{img}" for e, img in enumerate(edge_map))


def _cmd_iso(args) -> int:
    n = _load_network(args.file_a)
    m = _load_network(args.file_b)
    label_witness = label_isomorphism_witness(n, m)
    temporal_witness = temporal_isomorphism_witness(n, m)
    print(f"label-isomorphic: {'yes' if label_witness else 'no'}")
    print(f"temporally-isomorphic: {'yes' if temporal_witness else 'no'}")
    if temporal_witness is not None:
        print(f"edge-bijection: {_format_bijection(temporal_witness.edge_map)}")
    return EXIT_OK


def _cmd_paths(args) -> int:
    """One line per temporal path, '<labels> | <trace>', sorted by label sequence and
    printed in one write; nothing for an edgeless network."""
    network = _load_network(args.file)
    label = network.labeling.__getitem__
    found = sorted((tuple(map(label, p.edge_ids)), p.trace) for p in temporal_paths(network))
    if found:
        print("\n".join(f"{' '.join(map(str, labels))} | {' '.join(map(str, trace))}" for labels, trace in found))
    return EXIT_OK


def _cmd_swapscript(args) -> int:
    n = _load_network(args.file_a)
    m = _load_network(args.file_b)
    try:
        script = families.diaster_swap_permutation(n, m)
    except families.NoSwapScriptError:
        print("NOT-ISOMORPHIC")
        return EXIT_OK
    print(f"steps: {len(script)}")
    for step in script:
        print(f"swap labels {step.labels[0]} {step.labels[1]} : edges {step.edges[0]} {step.edges[1]}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = parse_family_spec(args.family)
    n = families.vertex_count(spec)
    if n > VERTEX_LIMIT:  # before a graph of that size is built; no file command could read it
        raise IsotemporalError(f"graph has {n} vertices, file limit is {VERTEX_LIMIT}")
    graph = generate(spec)
    text = serialize_network(build_network(graph, [(e, e + 1) for e in range(graph.edge_count)]))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IsotemporalError(f"cannot write {args.output}: {exc}") from None
    else:
        print(text, end="")
    return EXIT_OK


def _row_payload(row: VerificationRow, timing: bool):
    payload = {
        "family": row.family,
        "formula": row.formula,
        "lattice": row.lattice,
        "brute": row.brute,
        "swap": row.swap,
        "verdict": row.verdict,
    }
    if timing:
        payload["elapsed"] = {k: round(v, 6) for k, v in row.elapsed.items()}
    return payload


def _cmd_verify(args) -> int:
    rows = verify(args.max_edges)
    timing = not args.no_timing
    if args.format == "json":
        _print_json([_row_payload(row, timing) for row in rows])
    else:
        headers = ["family", "formula", "lattice", "brute", "swap", "verdict"]
        if timing:
            headers.append("seconds")
        table = []
        for row in rows:
            cells = [
                row.family,
                "-" if row.formula is None else str(row.formula),
                "-" if row.lattice is None else str(row.lattice),
                str(row.brute),
                str(row.swap),
                row.verdict,
            ]
            if timing:
                cells.append(f"{sum(row.elapsed.values()):.3f}")
            table.append(cells)
        widths = [max(len(h), *(len(r[i]) for r in table)) if table else len(h) for i, h in enumerate(headers)]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for cells in table:
            print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    if any(row.verdict == "DISAGREE" for row in rows):
        return EXIT_DISAGREE
    return EXIT_OK


def _positive_int(text: str) -> int:
    # the type of --limit and --max-edges: a bound below 1 is a usage error
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isotemporal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count isotemporal classes of a family")
    count.add_argument("--family", required=True)
    count.add_argument("--method", choices=["formula", "lattice", "brute", "swap", "all"], default="all")
    count.add_argument("--format", choices=["text", "json"], default="text")
    count.add_argument("--limit", type=_positive_int, default=DEFAULT_EDGE_LIMIT)
    count.set_defaults(func=_cmd_count)

    cls = sub.add_parser("classes", help="partition labelings into isotemporal classes")
    target = cls.add_mutually_exclusive_group(required=True)
    target.add_argument("--family")
    target.add_argument("--graph")
    cls.add_argument("--method", choices=["brute", "swap", "both"], default="both")
    cls.add_argument("--representatives", action="store_true")
    cls.add_argument("--format", choices=["text", "json"], default="text")
    cls.add_argument("--limit", type=_positive_int, default=DEFAULT_EDGE_LIMIT)
    cls.set_defaults(func=_cmd_classes)

    iso = sub.add_parser("iso", help="test two network files for isomorphism")
    iso.add_argument("file_a")
    iso.add_argument("file_b")
    iso.set_defaults(func=_cmd_iso)

    paths = sub.add_parser("paths", help="list temporal paths of a network file")
    paths.add_argument("file")
    paths.set_defaults(func=_cmd_paths)

    swapscript = sub.add_parser("swapscript", help="construct a sequential-swap script between two labelings")
    swapscript.add_argument("file_a")
    swapscript.add_argument("file_b")
    swapscript.set_defaults(func=_cmd_swapscript)

    ver = sub.add_parser("verify", help="cross-check all counting methods over the family corpus")
    ver.add_argument("--max-edges", type=_positive_int, default=6)
    ver.add_argument("--format", choices=["text", "json"], default="text")
    ver.add_argument("--no-timing", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("generate", help="write a family graph as a network file")
    gen.add_argument("--family", required=True)
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_generate)

    return parser


_parser = functools.cache(build_parser)  # built on the first run, not at import


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except IsotemporalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:  # a family with few vertices and very many edges, or a dense graph's walk
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())
