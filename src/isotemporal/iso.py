"""Isomorphism machinery for pseudographs and temporal networks.

A vertex bijection alone does not determine an edge bijection on a
pseudograph (parallel edges and loops leave slack), so isomorphisms are
represented as consistent pairs: a vertex bijection together with an edge
bijection mapping every edge onto an edge with the image endpoints.
Temporal isomorphism is tested by quantifying over all such pairs and
demanding the image of the temporal-path set equal the target's path set,
which makes the relation manifestly symmetric.

The witness search (edge_isomorphisms) is exhaustive over vertex
bijections with degree/loop-profile pruning; target graphs are desk-scale
(around ten vertices).

The edge automorphism group is never stored extensionally.  Edges e and f
are twins when the transposition (e f) is an automorphism; twinship is an
equivalence, and the twin subgroup N is a normal product of symmetric
groups, one per twin class.  The group is held as the twin classes plus
the transversal T of automorphisms increasing on every twin class, one per
coset of N, so |Aut| = |T| * prod |C|!.  Both come from one edge-driven
backtracking search that binds endpoints as it goes (in the spirit of
Sims 1970 and McKay 1981).  A labeling's canonical form sorts its labels
inside each twin class and takes the minimum over T; canonical vectors
are enumerated among the class-sorted vectors only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .core import IsotemporalError, Pseudograph, TemporalNetwork
from .paths import edge_sequences

SEARCH_LIMIT = math.factorial(10)


class SearchLimitError(IsotemporalError):
    """A search exceeds SEARCH_LIMIT: n! vertex bijections for the witness
    search, visited nodes for the automorphism search."""


@dataclass(frozen=True)
class EdgeIsomorphism:
    """A consistent (vertex bijection, edge bijection) pair.

    ``vertex_map`` holds (vertex, image) pairs sorted by vertex;
    ``edge_map[e]`` is the image edge id.  For every edge {u, v} the image
    edge has endpoints {image(u), image(v)}.
    """

    vertex_map: tuple[tuple[int, int], ...]
    edge_map: tuple[int, ...]

    @cached_property
    def _vdict(self) -> dict[int, int]:
        return dict(self.vertex_map)

    def map_vertex(self, v: int) -> int:
        return self._vdict[v]

    def map_edge(self, e: int) -> int:
        return self.edge_map[e]

    def map_sequence(self, seq: tuple[int, ...]) -> tuple[int, ...]:
        em = self.edge_map
        return tuple(em[e] for e in seq)

    def inverse(self) -> "EdgeIsomorphism":
        vmap = tuple(sorted((img, v) for v, img in self.vertex_map))
        emap = [0] * len(self.edge_map)
        for e, img in enumerate(self.edge_map):
            emap[img] = e
        return EdgeIsomorphism(vmap, tuple(emap))


def _getter(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """seq -> tuple(seq[i] for i in indices), in one C call when it can be."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    return lambda seq: tuple(seq[i] for i in indices)


@dataclass(frozen=True)
class EdgePermutationGroup:
    """An edge automorphism group as twin classes plus a transversal.

    ``twin_classes`` partition the edge ids into sorted tuples, ordered by
    smallest member.  ``transversal`` holds, sorted (identity first), the
    group elements increasing on every twin class: one per coset of the
    twin subgroup N, which permutes each class freely.  Every element is
    uniquely tau o nu with tau in the transversal and nu in N.
    """

    twin_classes: tuple[tuple[int, ...], ...]
    transversal: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.transversal) * math.prod(math.factorial(len(c)) for c in self.twin_classes)

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """Every element as an edge map, sorted; built on first use."""
        slots = [e for c in self.twin_classes for e in c]
        nu_of = _getter(sorted(range(len(slots)), key=slots.__getitem__))
        out = []
        for images in itertools.product(*(itertools.permutations(c) for c in self.twin_classes)):
            nu = nu_of(tuple(itertools.chain.from_iterable(images)))
            out.extend(tuple(map(tau.__getitem__, nu)) for tau in self.transversal)
        out.sort()
        return tuple(out)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.elements)


def _profile(g: Pseudograph, v: int) -> tuple[int, int]:
    return (g.degree(v), g.loop_count(v))


def _vertex_bijections(g: Pseudograph, h: Pseudograph) -> Iterator[tuple[int, ...]]:
    """Backtracking enumeration of endpoint-multiplicity-preserving bijections."""
    n = g.vertex_count
    gprof = [_profile(g, v) for v in g.vertices]
    hprof = [_profile(h, w) for w in h.vertices]
    if sorted(gprof) != sorted(hprof):
        return
    mapping: list[int] = []
    used = [False] * n

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(mapping)
            return
        for w in h.vertices:
            if used[w] or hprof[w] != gprof[i]:
                continue
            ok = True
            for u in range(i):
                if g.multiplicity(i, u) != h.multiplicity(w, mapping[u]):
                    ok = False
                    break
            if ok:
                used[w] = True
                mapping.append(w)
                yield from extend(i + 1)
                mapping.pop()
                used[w] = False

    yield from extend(0)


def _edge_bijections(g: Pseudograph, h: Pseudograph, vmap: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All edge bijections consistent with a fixed vertex bijection."""
    classes = sorted(g.parallel_classes.items())
    image_ids: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for (u, v), g_ids in classes:
        iu, iv = vmap[u], vmap[v]
        pair = (iu, iv) if iu <= iv else (iv, iu)
        h_ids = h.parallel_classes.get(pair, ())
        if len(h_ids) != len(g_ids):
            return
        image_ids.append((g_ids, h_ids))
    for choice in itertools.product(*(itertools.permutations(h_ids) for _, h_ids in image_ids)):
        emap = [0] * g.edge_count
        for (g_ids, _), assigned in zip(image_ids, choice):
            for src, dst in zip(g_ids, assigned):
                emap[src] = dst
        yield tuple(emap)


@functools.lru_cache(maxsize=None)
def edge_isomorphisms(g: Pseudograph, h: Pseudograph) -> tuple[EdgeIsomorphism, ...]:
    """All consistent pairs between g and h; empty iff not isomorphic.

    Sorted by (vertex map, edge map) so output order is schedule-free.
    Cached: both witness searches read it.
    """
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return ()
    if math.factorial(g.vertex_count) > SEARCH_LIMIT:
        raise SearchLimitError(
            f"{g.vertex_count}! vertex bijections exceed the search limit {SEARCH_LIMIT}"
        )
    out = []
    for vmap in _vertex_bijections(g, h):
        vpairs = tuple(enumerate(vmap))
        for emap in _edge_bijections(g, h, vmap):
            out.append(EdgeIsomorphism(vpairs, emap))
    out.sort(key=lambda iso: (iso.vertex_map, iso.edge_map))
    return tuple(out)


def _edge_order(g: Pseudograph) -> list[int]:
    """Edges component by component, each after an edge it shares a vertex
    with, so only a component's first edge binds two fresh endpoints."""
    order: list[int] = []
    seen = [False] * g.edge_count
    for root in range(g.edge_count):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for x in queue:
            for v in g.endpoints(x):
                for y in g.incidence[v]:
                    if not seen[y]:
                        seen[y] = True
                        queue.append(y)
        order += queue
    return order


def _edge_automorphisms(
    g: Pseudograph, order: list[int], candidates: Sequence[Sequence[int]], budget: list[int]
) -> Iterator[tuple[int, ...]]:
    """Edge maps of the self-isomorphisms of g with map[x] in candidates[x].

    Edge-driven backtracking: edges in ``order`` pick an unused image and
    bind their endpoints to its endpoints, consistently with the partial
    vertex map.  A map may be yielded more than once (several vertex maps
    can induce it).  Each visited node takes one unit of ``budget[0]``.
    """
    n, t = g.vertex_count, g.edge_count
    ends = [pair for _, pair in g.edges]
    vmap, vinv = [-1] * n, [-1] * n
    emap, used = [-1] * t, [False] * t

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == t:
            yield tuple(emap)
            return
        x = order[i]
        u, v = ends[x]
        for y in candidates[x]:
            if used[y]:
                continue
            w, z = ends[y]
            for a, b in ((w, z), (z, w)) if w != z else ((w, z),):
                if vmap[u] not in (-1, a) or vmap[v] not in (-1, b) or vinv[a] not in (-1, u) or vinv[b] not in (-1, v):
                    continue
                budget[0] -= 1
                if budget[0] < 0:
                    raise SearchLimitError(
                        f"automorphism search of {t} edges exceeds the search limit {SEARCH_LIMIT} nodes"
                    )
                bound = []
                for s, d in ((u, a), (v, b)):
                    if vmap[s] == -1:
                        vmap[s], vinv[d] = d, s
                        bound.append(s)
                emap[x], used[y] = y, True
                yield from extend(i + 1)
                used[y] = False
                for s in bound:
                    vinv[vmap[s]], vmap[s] = -1, -1

    return extend(0)


@functools.lru_cache(maxsize=None)
def edge_automorphism_group(g: Pseudograph) -> EdgePermutationGroup:
    """The group of edge permutations induced by self-isomorphisms of g.

    Twin classes come from one pinned search per candidate pair (is the
    transposition an automorphism?), the transversal from one search that
    maps each edge to an edge of equal rank in an equally large twin
    class.  Every visited node counts against SEARCH_LIMIT.
    """
    t = g.edge_count
    order = _edge_order(g)
    budget = [SEARCH_LIMIT]
    profile = [_profile(g, v) for v in g.vertices]
    kind = [(u == v, g.multiplicity(u, v), sorted((profile[u], profile[v]))) for _, (u, v) in g.edges]

    def twins(e: int, f: int) -> bool:
        if kind[e] != kind[f]:
            return False
        pinned = [(x,) for x in range(t)]
        pinned[e], pinned[f] = (f,), (e,)
        return next(_edge_automorphisms(g, order, pinned, budget), None) is not None

    # twinship is an equivalence, so one test against a class's first edge decides
    classes: list[list[int]] = []
    for e in range(t):
        for c in classes:
            if twins(c[0], e):
                c.append(e)
                break
        else:
            classes.append([e])
    rank, size = [0] * t, [0] * t
    for c in classes:
        for i, e in enumerate(c):
            rank[e], size[e] = i, len(c)
    increasing = [[y for y in range(t) if (kind[y], rank[y], size[y]) == (kind[x], rank[x], size[x])] for x in range(t)]
    transversal = sorted(set(_edge_automorphisms(g, order, increasing, budget)))
    return EdgePermutationGroup(tuple(map(tuple, classes)), tuple(transversal))


def label_isomorphism_witness(n: TemporalNetwork, m: TemporalNetwork) -> Optional[EdgeIsomorphism]:
    """A pair mapping every edge onto an equal-labeled edge, if one exists."""
    for iso in edge_isomorphisms(n.graph, m.graph):
        em = iso.edge_map
        if all(m.labeling[em[e]] == n.labeling[e] for e in range(n.edge_count)):
            return iso
    return None


def is_label_isomorphic(n: TemporalNetwork, m: TemporalNetwork) -> bool:
    return label_isomorphism_witness(n, m) is not None


def temporal_isomorphism_witness(n: TemporalNetwork, m: TemporalNetwork) -> Optional[EdgeIsomorphism]:
    """A pair carrying the temporal-path set of n exactly onto that of m.

    Image-set equality is equivalent to requiring the forward map to
    preserve all paths of n and the inverse to preserve all paths of m.
    """
    pairs = edge_isomorphisms(n.graph, m.graph)
    if not pairs:
        return None
    paths_n = edge_sequences(n)
    paths_m = edge_sequences(m)
    if len(paths_n) != len(paths_m):
        return None
    for iso in pairs:
        em = iso.edge_map
        if all(tuple(em[e] for e in seq) in paths_m for seq in paths_n):
            return iso
    return None


def is_temporal_isomorphic(n: TemporalNetwork, m: TemporalNetwork) -> bool:
    return temporal_isomorphism_witness(n, m) is not None


def _class_sorted(vec: tuple[int, ...], classes: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """vec with its labels sorted inside each class: the minimum over N."""
    out = list(vec)
    for c in classes:
        for e, lab in zip(c, sorted(vec[e] for e in c)):
            out[e] = lab
    return tuple(out)


def canonical_labeling(n: TemporalNetwork) -> TemporalNetwork:
    """Lexicographically minimal labeling in the label-isomorphism orbit of n.

    The labels are sorted inside each twin class, then the minimum image
    over the transversal is taken: a transversal element maps a class-sorted
    vector to a class-sorted one, so no image needs sorting again.
    Idempotent; two networks on the same graph are label isomorphic iff
    their canonical labelings are identical.
    """
    group = edge_automorphism_group(n.graph)
    vec = _class_sorted(n.labeling, group.twin_classes)
    return TemporalNetwork(n.graph, min(tuple(map(vec.__getitem__, p)) for p in group.transversal))


def count_distinct_labelings(g: Pseudograph) -> int:
    """Number of label-isomorphism classes of labelings of g.

    The automorphism group acts freely on bijective labelings, so the
    count is exactly t! / |group|.
    """
    t = g.edge_count
    order = edge_automorphism_group(g).order
    total = math.factorial(t)
    if total % order:
        raise IsotemporalError(f"{t}! not divisible by group order {order}")
    return total // order


@functools.lru_cache(maxsize=None)
def canonical_label_vectors(g: Pseudograph) -> tuple[tuple[int, ...], ...]:
    """All canonical labelings of g, in lexicographic order.

    Each returned vector is the minimum of its orbit under the edge
    automorphism group; there are exactly count_distinct_labelings(g).
    Only the t!/|N| class-sorted vectors (labels increasing inside each
    twin class) are candidates: label sets for the multi-edge classes from
    itertools.combinations, the singleton edges from
    itertools.permutations.  A candidate is kept iff no transversal
    element maps it to a smaller vector.  One path serves every t.
    """
    t = g.edge_count
    if t < 2:
        return (tuple(range(1, t + 1)),)
    group = edge_automorphism_group(g)
    classes = group.twin_classes
    # edge 0's class first, so its labels are chosen first
    blocks = [classes[0]] + [c for c in classes[1:] if len(c) > 1]
    slots = [e for b in blocks for e in b] + [c[0] for c in classes[1:] if len(c) == 1]
    assemble = _getter(sorted(range(t), key=slots.__getitem__))
    others = [_getter(p) for p in group.transversal[1:]]
    # A minimal vector gives edge 0 the smallest label on its orbit, so
    # only edges outside the orbit carry smaller labels.  The orbit is the
    # classes onto which T maps edge 0's class, each named by its first
    # edge, the image of edge 0.
    orbit = len(classes[0]) * len({p[0] for p in group.transversal})
    top = t - orbit + 1
    reps: list[tuple[int, ...]] = []

    def fill(i: int, rest: tuple[int, ...], prefix: tuple[int, ...]) -> None:
        if i == len(blocks):
            for tail in itertools.permutations(rest):
                vec = assemble(prefix + tail)
                if not any(p(vec) < vec for p in others):
                    reps.append(vec)
            return
        for chosen in itertools.combinations(rest, len(blocks[i])):
            if i == 0 and chosen[0] > top:
                break
            fill(i + 1, tuple(r for r in rest if r not in chosen), prefix + chosen)

    fill(0, tuple(range(1, t + 1)), ())
    reps.sort()
    return tuple(reps)
