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

One loop (_blocks) groups for both routes; they differ only in the key
and its T-images: the interned path set with translate-table images, or
the orientation bytes with the images of the permuted vector.  It takes
labelings in increasing order, so each block is sorted and blocks open in
order of their smallest member: the partition needs no sorting.  Each
route caches its partition per (graph, limit), because equal graphs come
from different specs: stem:star:a/star:b is diaster:a,b, and a side of
beachball:1 is a side of star:1.  Such repeats are 39 of the 165 specs of
at most 7 edges, so a count --method all batch over them hits the cache.
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


def _blocks(keyed, images) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # keyed: (labeling, key) pairs, labelings increasing.  A key met for the first time joins
    # the class of its first T-image already met, else opens a class; every key is stored as
    # met, so the next labeling with that very key object is an identity hit.  Blocks open in
    # order of their smallest member and grow in order, so they come out sorted.
    class_of: dict = {}
    blocks: list[list[tuple[int, ...]]] = []
    for vec, key in keyed:
        class_id = class_of.get(key)
        if class_id is None:
            class_id = next((c for c in map(class_of.get, images(vec, key)) if c is not None), len(blocks))
            if class_id == len(blocks):
                blocks.append([])
            class_of[key] = class_id
        blocks[class_id].append(vec)
    return tuple(map(tuple, blocks))


@functools.lru_cache(maxsize=None)
def brute_force_classes(g: Pseudograph, limit: int = DEFAULT_EDGE_LIMIT) -> ClassPartition:
    """Equivalence classes of temporal isomorphism over all canonical labelings.

    Labelings land in one block exactly when some edge automorphism maps
    the temporal-path set of one onto the other's, i.e. when they are
    temporally isomorphic.
    """
    _check_limit(g, limit)
    reps = canonical_label_vectors(g)
    if len(reps) == 1:
        return ClassPartition(g, (reps,), METHOD_TEMPORAL)
    # 256-byte translate tables, one per transversal element
    tables = [bytes([*p, *range(g.edge_count, 256)]) for p in edge_automorphism_group(g).transversal]

    def images(_, seqs: frozenset[bytes]):
        return (frozenset(seq.translate(table) for seq in seqs) for table in tables)

    return ClassPartition(g, _blocks(_path_sets(g, reps), images), METHOD_TEMPORAL)


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
def swap_closure_classes(g: Pseudograph, limit: int = DEFAULT_EDGE_LIMIT) -> ClassPartition:
    """Orbits of canonical labelings under legal swaps plus automorphisms.

    Legal swaps (swap_neighbors) join exactly the labelings with one
    line-graph orientation, so labelings are grouped by orientation up to
    automorphism.  The result equals brute_force_classes on every graph.
    """
    _check_limit(g, limit)
    reps = canonical_label_vectors(g)
    if len(reps) == 1:
        return ClassPartition(g, (reps,), METHOD_SWAP)
    transversal = edge_automorphism_group(g).transversal
    pairs = sorted(adjacency(g).pairs)
    lows, highs = [i for i, _ in pairs], [j for _, j in pairs]

    def key(vec: tuple[int, ...]) -> bytes:
        # the line-graph orientation, one byte per adjacent pair
        return bytes(map(operator.lt, map(vec.__getitem__, lows), map(vec.__getitem__, highs)))

    def images(vec: tuple[int, ...], _):
        return (key(tuple(map(vec.__getitem__, p))) for p in transversal)

    return ClassPartition(g, _blocks(((vec, key(vec)) for vec in reps), images), METHOD_SWAP)


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
    if temporal.blocks == swap.blocks:
        return ComparisonReport(g, temporal, swap, True, None)
    temporal_index = {vec: i for i, block in enumerate(temporal.blocks) for vec in block}
    if any(len({temporal_index[vec] for vec in block}) != 1 for block in swap.blocks):
        raise IsotemporalError("internal error: swap closure does not refine temporal isomorphism")
    # a strict refinement splits some block: its smallest member and the
    # smallest member outside that member's swap orbit
    swap_index = {vec: i for i, block in enumerate(swap.blocks) for vec in block}
    witness = next(
        (block[0], vec) for block in temporal.blocks for vec in block if swap_index[vec] != swap_index[block[0]]
    )
    return ComparisonReport(g, temporal, swap, False, witness)
