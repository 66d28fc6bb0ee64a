"""Answer checks for one pass of ops.

The checks use only the op list and the network files, never the package,
so a wrong answer cannot be confirmed by the code that produced it:

* ``count``: exit 0, verdict AGREE, brute == swap, and cycles up to n = 7
  match the README's counts;
* ``iso``: a pair built to be isomorphic reports ``yes``, label isomorphism
  implies temporal isomorphism, and a reported edge bijection carries the
  first network's temporal paths exactly onto the second's;
* ``swapscript``: a script is returned iff ``iso`` said yes for the same
  pair, and every step is a legal swap that the replay can apply;
* ``paths``: labels increase strictly along every path, and the paths are
  exactly those an independent enumeration finds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

# README: "counts 1, 3, 3, 8, 9 for n = 3..7"
CYCLE_CLASS_COUNTS = {3: 1, 4: 3, 5: 3, 6: 8, 7: 9}


def read_network(path: Path) -> tuple[list[tuple[int, int]], list[int]]:
    """(endpoint pairs, labeling) of a network file written by gen.py."""
    lines = path.read_text(encoding="utf-8").splitlines()
    pairs, labels = [], []
    for line in lines[2:]:
        _, u, v, lab = (int(f) for f in line.split())
        pairs.append((u, v))
        labels.append(lab)
    return pairs, labels


def label_paths(pairs: list[tuple[int, int]], labels: list[int]) -> set[tuple[int, ...]]:
    """Label sequences of every temporal path (labels identify edges)."""
    found: set[tuple[int, ...]] = set()
    stack = []
    for e, (u, v) in enumerate(pairs):
        for end in {u, v}:
            stack.append(((labels[e],), u + v - end))
    while stack:
        seq, at = stack.pop()
        found.add(seq)
        for e, (u, v) in enumerate(pairs):
            if labels[e] > seq[-1] and at in (u, v):
                stack.append((seq + (labels[e],), u + v - at))
    return found


def edge_paths(pairs, labels) -> set[tuple[int, ...]]:
    edge_of = {lab: e for e, lab in enumerate(labels)}
    return {tuple(edge_of[lab] for lab in seq) for seq in label_paths(pairs, labels)}


def adjacent(pairs, e: int, f: int) -> bool:
    return e != f and bool(set(pairs[e]) & set(pairs[f]))


def _fields(out: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


def check_count(op: dict, out: str) -> Optional[str]:
    payload = json.loads(out)
    counts = payload["counts"]
    if payload.get("verdict") != "AGREE":
        return f"verdict {payload.get('verdict')} with counts {counts}"
    if counts["brute"] != counts["swap"]:
        return f"brute {counts['brute']} != swap {counts['swap']}"
    kind, _, n = op["spec"].partition(":")
    if kind == "cycle" and int(n) in CYCLE_CLASS_COUNTS and counts["brute"] != CYCLE_CLASS_COUNTS[int(n)]:
        return f"cycle:{n} has {counts['brute']} classes, expected {CYCLE_CLASS_COUNTS[int(n)]}"
    return None


def check_iso(op: dict, out: str, inputs: Path) -> Optional[str]:
    fields = _fields(out)
    label, temporal = fields.get("label-isomorphic"), fields.get("temporally-isomorphic")
    if label not in ("yes", "no") or temporal not in ("yes", "no"):
        return "missing iso verdict lines"
    if op["constructed"] and temporal != "yes":
        return "pair built to be temporally isomorphic reported no"
    if label == "yes" and temporal != "yes":
        return "label isomorphic but not temporally isomorphic"
    if (temporal == "yes") != ("edge-bijection" in fields):
        return "edge bijection present iff temporally isomorphic fails"
    if temporal == "yes":
        edge_map = {}
        for item in fields["edge-bijection"].split():
            src, _, dst = item.partition("->")
            edge_map[int(src)] = int(dst)
        a, b = (read_network(inputs / name) for name in op["argv"][1:3])
        if sorted(edge_map.values()) != list(range(len(a[0]))):
            return "edge bijection is not a bijection"
        image = {tuple(edge_map[e] for e in seq) for seq in edge_paths(*a)}
        if image != edge_paths(*b):
            return "edge bijection does not carry the temporal paths onto the target's"
    return None


def check_swapscript(op: dict, out: str, inputs: Path, iso_yes: bool) -> Optional[str]:
    lines = out.splitlines()
    if lines == ["NOT-ISOMORPHIC"]:
        return "no script for a temporally isomorphic pair" if iso_yes else None
    if not iso_yes:
        return "script for a pair iso reports as not temporally isomorphic"
    if not lines or not lines[0].startswith("steps: ") or int(lines[0][7:]) != len(lines) - 1:
        return "malformed script"
    pairs, labels = read_network(inputs / op["argv"][1])
    labels = list(labels)
    for line in lines[1:]:
        words = line.split()  # swap labels LO HI : edges E1 E2
        lo, hi, e1, e2 = int(words[2]), int(words[3]), int(words[6]), int(words[7])
        if hi != lo + 1 or labels[e1] != lo or labels[e2] != hi or adjacent(pairs, e1, e2):
            return f"illegal step {line!r}"
        labels[e1], labels[e2] = hi, lo
    return None


def check_paths(op: dict, out: str, inputs: Path) -> Optional[str]:
    reported = []
    for line in out.splitlines():
        seq = tuple(int(x) for x in line.split("|")[0].split())
        if any(x >= y for x, y in zip(seq, seq[1:])):
            return f"labels do not increase along {line!r}"
        reported.append(seq)
    if len(reported) != len(set(reported)) or set(reported) != label_paths(*read_network(inputs / op["argv"][1])):
        return "path set differs from an independent enumeration"
    return None


def check_pass(ops: list[dict], results: list[list], inputs: Path) -> dict[int, str]:
    """Op index -> reason, for every op whose answer fails a check."""
    failures: dict[int, str] = {}
    iso_yes: dict[int, bool] = {}
    for i, (op, (_, code, out, err)) in enumerate(zip(ops, results)):
        if code != 0:
            failures[i] = f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
            continue
        try:
            if op["kind"] == "count":
                reason = check_count(op, out)
            elif op["kind"] == "iso":
                reason = check_iso(op, out, inputs)
                iso_yes[op["pair"]] = _fields(out).get("temporally-isomorphic") == "yes"
            elif op["kind"] == "paths":
                reason = check_paths(op, out, inputs)
            else:
                continue  # swapscript: below, once every iso answer is known
        except (ValueError, KeyError, IndexError) as exc:
            reason = f"unparseable output ({exc!r})"
        if reason:
            failures[i] = reason
    for i, (op, (_, code, out, _)) in enumerate(zip(ops, results)):
        if op["kind"] != "swapscript" or code != 0:
            continue
        if op["pair"] not in iso_yes:
            failures[i] = "the iso op of this pair gave no answer"
            continue
        try:
            reason = check_swapscript(op, out, inputs, iso_yes[op["pair"]])
        except (ValueError, IndexError) as exc:
            reason = f"unparseable output ({exc!r})"
        if reason:
            failures[i] = reason
    return failures
