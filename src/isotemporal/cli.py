"""Command-line front end.

COMMANDS gives each command its handler, positionals and options. One loop reads an
argument list into the arguments a handler reads, as argparse read it (--opt value,
--opt=value, a unique prefix of a long option, -oVALUE, '--') and with its usage-error
texts; -h or --help prints the usage built from the table.

Exit codes: 0 success, 1 domain or usage errors (bad spec, limit
exceeded), 2 when a verification run finds disagreeing counts.
"""

from __future__ import annotations

import json
import re
import sys
import time
from types import SimpleNamespace
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
    labeling, text = network.labeling, list(map(str, network.labeling))  # labels are distinct: no ties
    found = sorted(temporal_paths(network), key=lambda p: [labeling[e] for e in p.edge_ids])
    if found:
        print("\n".join(f"{' '.join([text[e] for e in p.edge_ids])} | {' '.join(map(str, p.trace))}" for p in found))
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


_REQUIRED, _ONE_OF = object(), object()  # the defaults of a required option and of one of a required pair
_FORMAT = (("text", "json"), "text")
_FORMAT_LIMIT = {"--format": _FORMAT, "--limit": (int, DEFAULT_EDGE_LIMIT)}
# command -> (handler, positionals, options); an option '--name' or '-x/--name' -> (kind, default), its kind
# a tuple of choices, str, int (a bound: at least 1) or bool (a flag)
COMMANDS = {
    "count": (_cmd_count, (), {"--family": (str, _REQUIRED),
              "--method": (("formula", "lattice", "brute", "swap", "all"), "all"), **_FORMAT_LIMIT}),
    "classes": (_cmd_classes, (), {"--family": (str, _ONE_OF), "--graph": (str, _ONE_OF),
                "--method": (("brute", "swap", "both"), "both"), "--representatives": (bool, False), **_FORMAT_LIMIT}),
    "iso": (_cmd_iso, ("file_a", "file_b"), {}),
    "paths": (_cmd_paths, ("file",), {}),
    "swapscript": (_cmd_swapscript, ("file_a", "file_b"), {}),
    "verify": (_cmd_verify, (), {"--max-edges": (int, 6), "--format": _FORMAT, "--no-timing": (bool, False)}),
    "generate": (_cmd_generate, (), {"--family": (str, _REQUIRED), "-o/--output": (str, None)}),
}
_HELP = "-h/--help"
_NAMES = {command: {n: key for key in (_HELP, *spec[2]) for n in key.split("/")} for command, spec in COMMANDS.items()}
_DEST = {key: key.split("/")[-1][2:].replace("-", "_") for spec in COMMANDS.values() for key in spec[2]}


def _usage() -> str:
    lines = []
    for command, (_, positionals, options) in COMMANDS.items():
        words = [command, *map(str.upper, positionals)]
        for key, (kind, default) in options.items():
            word = f"{key} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"{key} {_DEST[key].upper()}"
            word = key if kind is bool else word
            words.append(word if default is _REQUIRED else f"({word})" if default is _ONE_OF else f"[{word}]")
        lines.append(" ".join(words).replace(") (", " | "))
    return "usage: " + "\n       ".join(f"isotemporal {line}" for line in [*lines, f"[COMMAND] {_HELP}"])


def _option(token: str, names: dict[str, str]):
    """None for a value, else (option, explicit value or None), the option None if unknown: as argparse
    read a token, by its name, NAME=VALUE, -xVALUE or a unique prefix of a long name."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return names[token], None
    head, eq, value = token.partition("=")
    if eq and head in names:
        found = [(head, value)]
    elif token[1] != "-":
        found = [(token[:2], token[2:])] if token[:2] in names else []
    else:
        found = [(n, value if eq else None) for n in names if n.startswith(head)]
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(n for n, _ in found)}")
    if found:
        return names[found[0][0]], found[0][1]
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, None)


def _parse(argv: Sequence[str]):
    """(handler, arguments) for argv, or None for -h/--help.  A fault raises UsageError with argparse's
    text: a bad option when it is met, then what is missing, then what is left over."""
    spec, names, given, extras, wanted, rest, chosen = None, {"-h": _HELP, "--help": _HELP}, {}, [], [], False, None
    for token in (tokens := iter(argv)):
        option = None if rest or token == "--" else _option(token, names)
        if option is None and spec is None:
            if token not in COMMANDS:
                choices = ", ".join(map(repr, COMMANDS))
                raise UsageError(f"argument command: invalid choice: {token!r} (choose from {choices})")
            spec, names, wanted = COMMANDS[token], _NAMES[token], list(COMMANDS[token][1])
        elif option is None and token == "--" and not rest:
            rest = True  # every later token is a positional; a command that takes one drops the '--'
            extras += [] if spec[1] else [token]
        elif option is None and wanted:
            given[wanted.pop(0)] = token
        elif option is None or option[0] is None:
            extras.append(token)
        elif option == (_HELP, None):
            return None
        else:
            key, value = option
            kind, default = spec[2][key] if key in _DEST else (bool, None)
            if kind is bool:
                if value is not None:
                    raise UsageError(f"argument {key}: ignored explicit argument {value!r}")
                value = True
            elif value is None:
                value = next(tokens, "--")
                if value == "--" or _option(value, names) is not None:
                    raise UsageError(f"argument {key}: expected one argument")
            if isinstance(kind, tuple) and value not in kind:
                choices = ", ".join(map(repr, kind))
                raise UsageError(f"argument {key}: invalid choice: {value!r} (choose from {choices})")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(f"argument {key}: invalid int value: {value!r}") from None
                if value < 1:
                    raise UsageError(f"argument {key}: must be at least 1, got {value}")
            if default is _ONE_OF:
                if chosen not in (None, key):
                    raise UsageError(f"argument {key}: not allowed with argument {chosen}")
                chosen = key
            given[_DEST[key]] = value
    if spec is None:
        raise UsageError("the following arguments are required: command")
    if missing := wanted + [k for k, (_, d) in spec[2].items() if d is _REQUIRED and _DEST[k] not in given]:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if chosen is None and (pair := [k for k, (_, d) in spec[2].items() if d is _ONE_OF]):
        raise UsageError(f"one of the arguments {' '.join(pair)} is required")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return spec[0], SimpleNamespace(**{_DEST[k]: None if d is _ONE_OF else d for k, (_, d) in spec[2].items()} | given)


def run(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            print(_usage())
            return EXIT_OK
        return parsed[0](parsed[1])
    except UsageError as exc:
        print(f"usage error: {exc}\n{_usage()}", file=sys.stderr)
        return EXIT_ERROR
    except IsotemporalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:  # a family with few vertices and very many edges, or a dense graph's walk
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())
