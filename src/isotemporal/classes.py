"""Partition all labelings of a fixed pseudograph into isotemporal classes.

Two independent routes, which coincide on every pseudograph:

* brute force: group canonical labelings by the orbit of their full
  temporal-path set under the edge automorphism group, never by the
  orientation below (the path sweep shares only equal prefix path sets);
* swap closure: close canonical labelings under transpositions of
  consecutive labels on non-adjacent edges, plus automorphisms.

Why they coincide: the path set is a function of the labeling's
orientation of the line graph (adjacent edges point from lower label to
higher), and its length-2 paths recover that orientation.  The labelings
with one orientation are its linear extensions, connected by swapping
consecutive incomparable elements, i.e. labels on non-adjacent edges.
compare_partitions still cross-checks the two routes at run time.

Both routes index orbit images under the transversal T alone, never all
of Aut.  T (the automorphisms increasing on every twin class) is a
subgroup, and Aut = T N.  Adjacency is uniform within and between twin
classes, so sorting labels inside each class turns a legal swap into a
legal swap or into no change.  Canonical vectors are class-sorted, and T
keeps them so.  Hence two canonical vectors have Aut-related orientations
(equivalently, path sets) iff they have T-related ones.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Optional

from .core import IsotemporalError, Pseudograph, TemporalNetwork, adjacency
from .iso import canonical_label_vectors, edge_automorphism_group
from .paths import _path_sets

DEFAULT_EDGE_LIMIT = 8
HARD_EDGE_CAP = 10

METHOD_TEMPORAL = "temporal-isomorphism"
METHOD_SWAP = "swap-closure"
METHOD_SIGNATURE = "signature"


class LimitExceededError(IsotemporalError):
    """The graph has more edges than the enumeration limit allows."""


def _check_limit(g: Pseudograph, limit: int) -> None:
    effective = min(limit, HARD_EDGE_CAP)
    if g.edge_count > effective:
        raise LimitExceededError(
            f"graph has {g.edge_count} edges, enumeration limit is {effective}"
        )


@dataclass(frozen=True)
class ClassPartition:
    """A partition of the canonical labelings of one graph.

    Blocks are tuples of label vectors sorted lexicographically; blocks
    themselves are ordered by smallest member, so equal partitions compare
    equal field-for-field.
    """

    graph: Pseudograph
    blocks: tuple[tuple[tuple[int, ...], ...], ...]
    method: str

    @property
    def class_count(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def labelings(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vec for block in self.blocks for vec in block)

    def block_of(self, labeling: tuple[int, ...]) -> int:
        for i, block in enumerate(self.blocks):
            if labeling in block:
                return i
        raise KeyError(f"{labeling} is not a canonical labeling of this graph")


def _finish_blocks(groups) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in groups))


@functools.lru_cache(maxsize=None)
def _brute_blocks(g: Pseudograph) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # Labelings are temporally isomorphic iff their path sets lie in one orbit;
    # each class's images under T are indexed once, so later members are a dict hit.
    reps = canonical_label_vectors(g)
    if len(reps) == 1:
        return ((reps[0],),)
    # 256-byte translate tables, one per transversal element
    tables = [bytes([*p, *range(g.edge_count, 256)]) for p in edge_automorphism_group(g).transversal]
    class_of_path_set: dict[frozenset[bytes], int] = {}
    buckets: list[list[tuple[int, ...]]] = []
    for vec, seqs in _path_sets(g, reps):
        class_id = class_of_path_set.get(seqs)
        if class_id is None:
            class_id = len(buckets)
            buckets.append([])
            for table in tables:
                image = frozenset(seq.translate(table) for seq in seqs)
                class_of_path_set.setdefault(image, class_id)
        buckets[class_id].append(vec)
    return _finish_blocks(buckets)


def brute_force_classes(g: Pseudograph, limit: int = DEFAULT_EDGE_LIMIT) -> ClassPartition:
    """Equivalence classes of temporal isomorphism over all canonical labelings.

    Labelings land in one block exactly when some edge automorphism maps
    the temporal-path set of one onto the other's, i.e. when they are
    temporally isomorphic.
    """
    _check_limit(g, limit)
    return ClassPartition(g, _brute_blocks(g), METHOD_TEMPORAL)


def swap_neighbors(network: TemporalNetwork) -> list[TemporalNetwork]:
    """One network per consecutive label pair carried by non-adjacent edges.

    Each result swaps labels (i, i+1) and leaves everything else fixed;
    ordered by i.
    """
    adj = adjacency(network.graph)
    out = []
    for lab in range(1, network.edge_count):
        e1 = network.edge_with_label(lab)
        e2 = network.edge_with_label(lab + 1)
        if not adj.adjacent(e1, e2):
            swapped = list(network.labeling)
            swapped[e1], swapped[e2] = swapped[e2], swapped[e1]
            out.append(network.relabeled(swapped))
    return out


@functools.lru_cache(maxsize=None)
def _swap_blocks(g: Pseudograph) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # Key: the line-graph orientation, one bit per adjacent pair.  Each
    # class's images under T are keyed once; later members hit.
    reps = canonical_label_vectors(g)
    if len(reps) == 1:
        return ((reps[0],),)
    transversal = edge_automorphism_group(g).transversal
    pairs = sorted(adjacency(g).pairs)
    lows, highs = [i for i, _ in pairs], [j for _, j in pairs]

    def key(vec: tuple[int, ...]) -> bytes:
        return bytes(map(operator.lt, map(vec.__getitem__, lows), map(vec.__getitem__, highs)))

    class_of_key: dict[bytes, int] = {}
    buckets: list[list[tuple[int, ...]]] = []
    for vec in reps:
        class_id = class_of_key.get(key(vec))
        if class_id is None:
            class_id = len(buckets)
            buckets.append([])
            for p in transversal:
                class_of_key.setdefault(key(tuple(map(vec.__getitem__, p))), class_id)
        buckets[class_id].append(vec)
    return _finish_blocks(buckets)


def swap_closure_classes(g: Pseudograph, limit: int = DEFAULT_EDGE_LIMIT) -> ClassPartition:
    """Orbits of canonical labelings under legal swaps plus automorphisms.

    Legal swaps (swap_neighbors) join exactly the labelings with one
    line-graph orientation, so labelings are grouped by orientation up to
    automorphism.  The result equals brute_force_classes on every graph.
    """
    _check_limit(g, limit)
    return ClassPartition(g, _swap_blocks(g), METHOD_SWAP)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of running both partition methods on one graph."""

    graph: Pseudograph
    temporal: ClassPartition
    swap: ClassPartition
    equal: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]


def compare_partitions(g: Pseudograph, limit: int = DEFAULT_EDGE_LIMIT) -> ComparisonReport:
    """Compare swap closure against temporal isomorphism on one graph.

    Verifies that swap closure refines temporal isomorphism (a violation
    is an internal error, never a finding); when the partitions differ, a
    witness pair of labelings that are temporally isomorphic yet in
    different swap orbits is included.
    """
    temporal = brute_force_classes(g, limit)
    swap = swap_closure_classes(g, limit)
    temporal_index = {vec: i for i, block in enumerate(temporal.blocks) for vec in block}
    swap_index = {vec: i for i, block in enumerate(swap.blocks) for vec in block}
    for block in swap.blocks:
        targets = {temporal_index[vec] for vec in block}
        if len(targets) != 1:
            raise IsotemporalError(
                "internal error: swap closure does not refine temporal isomorphism"
            )
    equal = temporal.blocks == swap.blocks
    witness = None
    if not equal:
        for block in temporal.blocks:
            orbits = {}
            for vec in block:
                orbits.setdefault(swap_index[vec], vec)
            if len(orbits) > 1:
                first, second = sorted(orbits.values())[:2]
                witness = (first, second)
                break
    return ComparisonReport(g, temporal, swap, equal, witness)
