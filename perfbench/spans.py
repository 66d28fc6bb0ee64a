"""Span tracing from outside the package, and the per-layer metrics built on it.

``Tracer.install`` replaces each public function in ``TARGETS`` with a
wrapper, under every name that a loaded ``isotemporal`` module binds to
it, so calls made inside ``cli.run`` nest as spans.  A span is
``[name, start, end, parent, op]``; spans are kept in memory and written
out once the pass ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter

TARGETS = {
    "core": ("parse_network",),
    "paths": ("edge_sequences", "temporal_paths"),
    "iso": (
        "edge_automorphism_group",
        "canonical_label_vectors",
        "edge_isomorphisms",
        "label_isomorphism_witness",
        "temporal_isomorphism_witness",
    ),
    "classes": ("brute_force_classes", "swap_closure_classes", "swap_neighbors"),
    "families": ("generate", "parse_family_spec", "diaster_swap_permutation", "apply_swap_script"),
    "formulas": ("family_count", "lattice_count"),
    "cli": ("run",),
}

# Self time of each span name goes to one layer metric.  edge_isomorphisms
# called by edge_automorphism_group is the automorphism search itself.
SELF_TIME_METRIC = {
    "core.parse_network": "core.parse_s",
    "paths.edge_sequences": "paths.enumerate_s",
    "paths.temporal_paths": "paths.enumerate_s",
    "iso.edge_automorphism_group": "iso.automorphism_s",
    "iso.canonical_label_vectors": "iso.canonical_s",
    "iso.edge_isomorphisms": "iso.witness_s",
    "iso.label_isomorphism_witness": "iso.witness_s",
    "iso.temporal_isomorphism_witness": "iso.witness_s",
    "classes.brute_force_classes": "classes.brute_s",
    "classes.swap_closure_classes": "classes.swap_s",
    "classes.swap_neighbors": "classes.swap_s",
    "families.generate": "families.generate_s",
    "families.parse_family_spec": "families.generate_s",
    "families.diaster_swap_permutation": "families.swapscript_s",
    "families.apply_swap_script": "families.swapscript_s",
    "formulas.family_count": "formulas.count_s",
    "formulas.lattice_count": "formulas.count_s",
    "cli.run": "cli.self_s",
}

TIME_METRICS = sorted(set(SELF_TIME_METRIC.values()))
COUNT_METRICS = (
    "iso.group_order",
    "iso.canonical_vectors",
    "iso.canonical_yield",
    "paths.calls",
    "paths.count",
    "classes.orbit_images",
    "classes.swap_moves",
    "classes.recanon_perms",
    "classes.swap_useful_ratio",
)


class Tracer:
    """Records spans and result-size counts for one pass of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._counts: Counter = Counter()
        # graph -> facts, filled by the wrappers; group orders are looked
        # up only in finish(), after the pass, so no cache is warmed early
        self._brute_classes: dict = {}
        self._swap_classes: dict = {}
        self._swap_moves: Counter = Counter()

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "isotemporal" or n.startswith("isotemporal.")]
        for module_name, names in TARGETS.items():
            home = importlib.import_module(f"isotemporal.{module_name}")
            for fname in names:
                name = f"{module_name}.{fname}"
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(name)
                    continue
                self._originals[name] = original
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            misses = cache_info().misses if cache_info else 0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            missed = cache_info().misses > misses if cache_info else True
            if missed:
                self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result) -> None:
        c = self._counts
        if name == "iso.edge_automorphism_group":
            c["iso.group_order"] += result.order
        elif name == "iso.canonical_label_vectors":
            c["iso.canonical_vectors"] += len(result)
            c["iso.labelings"] += math.factorial(args[0].edge_count)
        elif name in ("paths.edge_sequences", "paths.temporal_paths"):
            c["paths.calls"] += 1
            c["paths.count"] += len(result)
        elif name == "classes.brute_force_classes":
            self._brute_classes.setdefault(result.graph, result.class_count)
        elif name == "classes.swap_closure_classes":
            self._swap_classes.setdefault(result.graph, result.class_count)
        elif name == "classes.swap_neighbors":
            self._swap_moves[args[0].graph] += len(result)

    def finish(self) -> dict[str, float]:
        """Counts of the pass.  Call after the last op; may fill caches."""
        c = self._counts
        moves = sum(self._swap_moves.values())
        c["classes.swap_moves"] = moves
        group = self._originals.get("iso.edge_automorphism_group")
        canonical = self._originals.get("iso.canonical_label_vectors")
        if group and canonical:
            # brute force indexes every image of each class's path set,
            # unless the graph has a single canonical labeling
            c["classes.orbit_images"] = sum(
                k * group(g).order for g, k in self._brute_classes.items() if len(canonical(g)) > 1
            )
            c["classes.recanon_perms"] = sum(m * group(g).order for g, m in self._swap_moves.items())
            merged = sum(len(canonical(g)) - k for g, k in self._swap_classes.items() if g in self._swap_moves)
            c["classes.swap_useful_ratio"] = merged / moves if moves else 0.0
        c["iso.canonical_yield"] = c["iso.canonical_vectors"] / c["iso.labelings"] if c["iso.labelings"] else 0.0
        return {name: float(c[name]) for name in COUNT_METRICS}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.finish(), "missing": self.missing}, fh)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: span duration minus the time its children cover."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for i, (name, start, end, parent, _) in enumerate(spans):
        metric = SELF_TIME_METRIC[name]
        if name == "iso.edge_isomorphisms" and parent >= 0 and spans[parent][0] == "iso.edge_automorphism_group":
            metric = "iso.automorphism_s"
        out[metric] += end - start - children[i]
    return out
