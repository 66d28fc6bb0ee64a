"""Partition all labelings of a fixed pseudograph into isotemporal classes.

Two independent routes class labelings up to the edge automorphism group:
brute force by their full temporal-path set, never by the orientation
below; swap closure by transpositions of consecutive labels on
non-adjacent edges.  They coincide: the path set is a function of the
labeling's orientation of the line graph (adjacent edges point from lower
label to higher), its length-2 paths recover that orientation, and the
linear extensions of one orientation are connected by swapping
consecutive incomparable elements.  compare_partitions cross-checks them.

No route visits or lists a labeling: a partition holds its classes, not
their members.  Both routes walk the DAG of prefix states (_walk), one int
per state with the used edges in its low t bits and, above them, a label
prefix's exact path set (paths._path_step) or the arrows of its
orientation.  A state carries ``ways``, the number of class-sorted label
orders (increasing inside each twin class) reaching it.  The first edge is
cut to twin-class heads least in their T-orbit, weighted by the orbit size.
T, the automorphisms increasing on every twin class, is a subgroup with
Aut = T N and acts freely on class-sorted orders, and class-sorted labelings
have Aut-related orientations (or path sets) iff they have T-related ones.
So the classes are the T-orbits of final states, keyed by their ints (a
T-image permutes a state's bits), each holding sum(ways) / |T| canonical
labelings.  The representative, a class's least canonical labeling, is the
least of the least linear extensions of the T-images of its orientation
(read from 2-paths by the brute route); an injective name for the orbit of
that orientation, it orders the classes and joins the routes' classes.
Each route caches one partition per isomorphism class and carries it to an
isomorphic graph along an edge map, which keeps adjacency and automorphisms
and so the classes: the 165 specs of at most 7 edges build 126 graphs in 77
isomorphism classes, and 57 of them need a walk.
"""

from __future__ import annotations

import functools
import math
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .core import IsotemporalError, Pseudograph, TemporalNetwork, _Record, adjacency
from .iso import SEARCH_LIMIT, EdgePermutationGroup, SearchLimitError, _candidates, _edge_maps
from .iso import edge_automorphism_group, is_temporal_isomorphic
from .paths import _bits, _path_step

DEFAULT_EDGE_LIMIT = 8
HARD_EDGE_CAP = 10

METHOD_TEMPORAL = "temporal-isomorphism"
METHOD_SWAP = "swap-closure"


class LimitExceededError(IsotemporalError):
    """The graph has more edges than the enumeration limit allows."""


def check_limit(edge_count: int, limit: int) -> None:
    effective = min(limit, HARD_EDGE_CAP)
    if edge_count > effective:
        raise LimitExceededError(f"graph has {edge_count} edges, enumeration limit is {effective}")


def _tables(g: Pseudograph) -> list[bytes]:
    # edge-id bytes -> their images: a 256-byte translate table per element of T
    return [bytes([*p, *range(g.edge_count, 256)]) for p in edge_automorphism_group(g).transversal]


class ClassPartition(_Record):
    """The isotemporal classes of one graph: per class, in walk order, the arrows (a, b) of one of
    its final states, a labeled first, sorted and joined, and its number of canonical labelings;
    carried to an isomorphic graph, order and arrows follow the walked graph's.  The other views
    are built on first use."""

    __slots__ = ("graph", "method", "classes", "__dict__")

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @cached_property
    def _ranked(self) -> list[tuple[tuple[int, ...], int]]:  # (representative, size)
        t, tables = self.graph.edge_count, _tables(self.graph)
        return sorted((min(_least_extension(t, key.translate(p)) for p in tables), size) for key, size in self.classes)

    @property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        return tuple(rep for rep, _ in self._ranked)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self._ranked)


def _walk(g: Pseudograph, group: EdgePermutationGroup, step) -> dict[int, int]:
    """Final state -> ways over the class-sorted label orders of g: an edge is labeled once its
    next-smaller twin is.  A layer maps each distinct state, an int from 0 with the used edges in
    its low t bits, to its ways; step(state, edge) -> state runs once per state and edge."""
    t = g.edge_count
    full = (1 << t) - 1
    before = {b: a for c in group.twin_classes for a, b in zip(c, c[1:])}  # the next-smaller twin
    need = [1 << before[e] if e in before else 0 for e in range(t)]
    orbits = [{p[e] for p in group.transversal} for e in range(t)]
    first = [len(orbit) if min(orbit) == e else 0 for e, orbit in enumerate(orbits)]  # the first-edge cut
    nexts = functools.cache(lambda used: [e for e in range(t) if ~used & 1 << e and used & need[e] == need[e]])
    layer = {0: 1}
    for _ in range(t):
        nxt: dict[int, int] = {}
        for state, ways in layer.items():
            used = state & full
            for e in nexts(used) if used else (e for e in nexts(0) if first[e]):
                new = step(state, e)
                nxt[new] = nxt.get(new, 0) + (ways if used else first[e])
        layer = nxt
    return layer


def _least_extension(t: int, arrows: bytes) -> tuple[int, ...]:
    # the least labeling with a < b for every arrow (a, b): labels t..1 in turn go to the
    # largest unlabeled edge with no unlabeled successor, the highest bit of ``ready``; labeling
    # e can make only e's predecessors ready
    after, before, vec = [0] * t, [0] * t, [0] * t
    for a, b in zip(arrows[::2], arrows[1::2]):
        after[a] |= 1 << b
        before[b] |= 1 << a
    left, ready = (1 << t) - 1, sum(1 << x for x in range(t) if not after[x])
    for label in range(t, 0, -1):
        e = ready.bit_length() - 1
        vec[e], left, ready = label, left ^ 1 << e, ready ^ 1 << e
        for a in _bits(before[e]):
            if not after[a] & left:
                ready |= 1 << a
    return tuple(vec)


def _partition(g: Pseudograph, method: str, walker: Callable) -> ClassPartition:
    """Classes as the T-orbits of the final states of the walk walker(g) -> (step, names, intern),
    keyed by their ints, each kept as the arrows of one.  An element of T permutes the bits, each
    bit b the walk met going to intern(names[b] translated)."""
    group = edge_automorphism_group(g)
    if group.order == math.factorial(g.edge_count):  # one labeling up to automorphism: no walk
        return ClassPartition(g, method, ((b"", 1),))
    step, names, intern = walker(g)
    finals, full = _walk(g, group, step), (1 << g.edge_count) - 1
    met = list(_bits(functools.reduce(int.__or__, finals) ^ full))  # the bits past the used edges
    images = [{b: 1 << intern(names[b].translate(table)) for b in met} for table in _tables(g)[1:]]  # [0]: the identity
    class_of, found = {}, []  # found: [arrows, ways] per class
    for state, ways in finals.items():
        c = class_of.get(state)
        if c is None:
            c, bits = len(found), list(_bits(state ^ full))  # every final state has every used edge
            class_of[state] = c
            for image in images:
                class_of[sum(map(image.__getitem__, bits), full)] = c  # distinct bits above full
            found.append([b"".join(sorted(names[b] for b in bits if len(names[b]) == 2)), 0])
        found[c][1] += ways
    return ClassPartition(g, method, tuple((key, ways // len(group.transversal)) for key, ways in found))


def _carried(p: ClassPartition, g: Pseudograph) -> Optional[ClassPartition]:
    """p's classes on g, their arrows taken along the first isomorphism p.graph -> g, or None
    if there is none or the search passes SEARCH_LIMIT.  The map is first made increasing on
    each twin class of p.graph (a permutation inside a twin class is an automorphism), so
    arrows between twins still point from the smaller edge id to the larger."""
    h = p.graph
    try:
        emap = list(next(_edge_maps(h, g, _candidates(h.edge_kinds, g.edge_kinds), [SEARCH_LIMIT], None))[1])
    except (StopIteration, SearchLimitError):
        return None
    for c in edge_automorphism_group(h).twin_classes:
        for e, image in zip(c, sorted(emap[e] for e in c)):
            emap[e] = image
    table = bytes([*emap, *range(g.edge_count, 256)])
    return ClassPartition(g, p.method, tuple((key.translate(table), size) for key, size in p.classes))


def _per_isomorphism_class(route):
    """Cache route's partitions, one walked per isomorphism class: a graph isomorphic to one
    already walked (same vertex count and edge kinds, then an edge map) carries its partition,
    and a graph met again is answered from ``met``.  A partition does not depend on the limit,
    so the limit is checked first and left out of the key."""
    met: dict[Pseudograph, ClassPartition] = {}
    walked: dict[tuple, list[ClassPartition]] = {}  # per (vertex count, sorted edge kinds)

    @functools.wraps(route)
    def partition(g: Pseudograph, limit: int = DEFAULT_EDGE_LIMIT) -> ClassPartition:
        check_limit(g.edge_count, limit)
        p = met.get(g)
        if p is None:
            bucket = walked.setdefault((g.vertex_count, tuple(sorted(g.edge_kinds))), [])
            p = next(filter(None, (_carried(q, g) for q in bucket)), None)
            if p is None:
                p = route(g)
                bucket.append(p)
            met[g] = p
        return p

    def cache_clear() -> None:
        met.clear()
        walked.clear()

    partition.cache_clear = cache_clear
    partition.__signature__ = None  # inspect.signature stops here: (g, limit), not route's (g)
    return partition


@_per_isomorphism_class
def brute_force_classes(g: Pseudograph) -> ClassPartition:
    """Equivalence classes of temporal isomorphism over all canonical labelings.

    Labelings share a class exactly when some edge automorphism maps the
    temporal-path set of one onto the other's, i.e. when they are
    temporally isomorphic.
    """

    return _partition(g, METHOD_TEMPORAL, _path_step)


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


def _orientation_step(g: Pseudograph) -> tuple[Callable, list[bytes], Callable]:
    """The swap walk on g: (step, names, intern), as paths._path_step gives the brute walk.  Bit e
    of a state marks the edge e used and bit t + e*t + z the arrow z -> e."""
    t = g.edge_count
    into = [sum(1 << z for z in near) for near in adjacency(g).neighbors]
    names = [bytes((e,)) for e in range(t)] + [bytes((z, e)) for e in range(t) for z in range(t)]

    def step(state: int, e: int) -> int:
        # every labeled neighbour of e comes before it
        return state | 1 << e | (state & into[e]) << t + e * t

    return step, names, {name: b for b, name in enumerate(names)}.__getitem__


@_per_isomorphism_class
def swap_closure_classes(g: Pseudograph) -> ClassPartition:
    """Orbits of canonical labelings under legal swaps plus automorphisms.

    Legal swaps (swap_neighbors) join exactly the labelings with one
    line-graph orientation, so labelings are grouped by orientation up to
    automorphism.  The result equals brute_force_classes on every graph.
    """
    return _partition(g, METHOD_SWAP, _orientation_step)


class ComparisonReport(NamedTuple):
    """Outcome of running both partition methods on one graph."""

    graph: Pseudograph
    temporal: ClassPartition
    swap: ClassPartition
    equal: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]


def compare_partitions(g: Pseudograph, limit: int = DEFAULT_EDGE_LIMIT) -> ComparisonReport:
    """Compare swap closure against temporal isomorphism on one graph, joined on representatives.

    Swap closure must refine temporal isomorphism (a violation is an internal error, never a
    finding).  When it splits a class, the witness pairs that class's representative with
    another swap representative which the witness search, used by neither walk, finds
    temporally isomorphic to it: the least such pair.
    """
    temporal, swap = brute_force_classes(g, limit), swap_closure_classes(g, limit)
    for p in (temporal, swap):
        if len(set(p.representatives)) < p.class_count:
            raise IsotemporalError(f"internal error: two {p.method} classes share a representative")
    reps, swap_reps = temporal.representatives, set(swap.representatives)
    if not swap_reps.issuperset(reps):
        raise IsotemporalError("internal error: swap closure does not refine temporal isomorphism")
    if swap.representatives == reps:
        if swap.block_sizes != temporal.block_sizes:
            raise IsotemporalError("internal error: the routes give a class two different sizes")
        return ComparisonReport(g, temporal, swap, True, None)
    # a class's least canonical labeling also represents its own swap class; each other swap
    # class must be temporally isomorphic to some class's representative
    pairs = []
    for other in swap_reps.difference(reps):
        net = TemporalNetwork(g, other)
        rep = next((r for r in reps if is_temporal_isomorphic(TemporalNetwork(g, r), net)), None)
        if rep is None:
            raise IsotemporalError("internal error: a swap-closure class matches no temporal-isomorphism class")
        pairs.append((rep, other))
    return ComparisonReport(g, temporal, swap, False, min(pairs))
