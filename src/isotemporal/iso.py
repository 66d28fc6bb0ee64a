"""Isomorphism machinery for pseudographs and temporal networks.

A vertex bijection alone does not determine an edge bijection on a
pseudograph (parallel edges and loops leave slack), so isomorphisms are
represented as consistent pairs: a vertex bijection together with an edge
bijection mapping every edge onto an edge with the image endpoints.
Temporal isomorphism asks for one such pair that keeps the label order of
every two adjacent edges: it carries the temporal paths of one network
onto those of the other, and its inverse carries them back.

Every isomorphism question is answered by one edge-driven backtracking
search (in the spirit of Sims 1970 and McKay 1981): edges pick images of
their own kind, refined per question (equal label for the label witness),
and bind endpoints as they go.  Every visited node counts against
SEARCH_LIMIT.

The edge automorphism group is never stored extensionally.  Edges e and f
are twins when the transposition (e f) is an automorphism; twinship is an
equivalence, and the twin subgroup N is a normal product of symmetric
groups, one per twin class.  The group is held as the twin classes plus
the transversal T of automorphisms increasing on every twin class, one per
coset of N, so |Aut| = |T| * prod |C|!.  A labeling's canonical form sorts
its labels inside each twin class and takes the minimum over T; canonical
vectors are the class-sorted vectors no element of T lowers.  T is itself a
subgroup (Aut = T ⋉ N), so membership class-sorts a map's images and looks
the result up in T; ``.elements`` is a derived view the package never builds.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .core import IsotemporalError, Pseudograph, TemporalNetwork, _Record, adjacency, per_graph

SEARCH_LIMIT = math.factorial(10)


class SearchLimitError(IsotemporalError):
    """The isomorphism search visits more than SEARCH_LIMIT nodes."""


class EdgeIsomorphism(NamedTuple):
    """A consistent (vertex bijection, edge bijection) pair.

    ``vertex_map[v]`` is the image vertex and ``edge_map[e]`` the image
    edge.  For every edge {u, v} the image edge has endpoints
    {vertex_map[u], vertex_map[v]}.
    """

    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]

    def map_sequence(self, seq: tuple[int, ...]) -> tuple[int, ...]:
        em = self.edge_map
        return tuple(em[e] for e in seq)


class EdgePermutationGroup(_Record):
    """An edge automorphism group as twin classes plus a transversal.

    ``twin_classes`` partition the edge ids into sorted tuples, ordered by
    smallest member.  ``transversal`` holds, sorted (identity first), the
    group elements increasing on every twin class: one per coset of the
    twin subgroup N, which permutes each class freely.  Every element is
    uniquely tau o nu with tau in the transversal and nu in N.
    """

    __slots__ = ("twin_classes", "transversal", "__dict__")

    @property
    def order(self) -> int:
        return len(self.transversal) * math.prod(math.factorial(len(c)) for c in self.twin_classes)

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """Every element as an edge map, sorted; built on first use."""
        out = []
        for images in itertools.product(*(itertools.permutations(c) for c in self.twin_classes)):
            nu = dict(zip(itertools.chain(*self.twin_classes), itertools.chain(*images)))
            out.extend(tuple(tau[nu[e]] for e in range(len(nu))) for tau in self.transversal)
        return tuple(sorted(out))

    @cached_property
    def _transversal_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.transversal)

    def __contains__(self, p: Sequence[int]) -> bool:
        """p = tau o nu iff sorting p's images inside each twin class gives tau."""
        return _class_sorted(tuple(p), self.twin_classes) in self._transversal_set


def _candidates(kinds_g: Sequence, kinds_h: Sequence) -> list[Sequence[int]]:
    """For each edge x of g, the edges y of h with kinds_h[y] == kinds_g[x], increasing."""
    by_kind: dict = {}
    for y, kind in enumerate(kinds_h):
        by_kind.setdefault(kind, []).append(y)
    return [by_kind.get(kind, ()) for kind in kinds_g]


def _edge_maps(
    g: Pseudograph, h: Pseudograph, candidates: Sequence[Sequence[int]], budget: list[int], fits: Optional[Callable]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(vertex map, edge map) pairs of the isomorphisms g -> h with
    edge map[x] in candidates[x].

    Isolated vertices go to those of h in increasing order.  Then edges in
    g.edge_order pick an unused image, a loop only a loop, and bind their
    endpoints consistently with the partial vertex map, kept only if
    fits(x, vertex map, edge map) holds (-1: not bound yet) unless fits is
    None.  The stack is explicit, so a long path cannot exhaust Python's.
    Each visited node takes one unit of ``budget[0]``.
    """
    n, t = g.vertex_count, g.edge_count
    if n != h.vertex_count or t != h.edge_count or not all(candidates):
        return
    hends = [pair for _, pair in h.edges]
    vmap, vinv = [-1] * n, [-1] * n
    emap, used = [-1] * t, [False] * t
    for v, w in zip(*([v for v in f.vertices if not f.incidence[v]] for f in (g, h))):
        vmap[v], vinv[w] = w, v

    def bind(x: int) -> Iterator[None]:  # binds edge x to each fitting image in turn, unbinding after
        u, v = g.endpoints(x)
        for y in candidates[x]:
            w, z = hends[y]
            if used[y] or (u == v) != (w == z):
                continue
            for a, b in ((w, z), (z, w)) if w != z else ((w, z),):
                if vmap[u] not in (-1, a) or vmap[v] not in (-1, b) or vinv[a] not in (-1, u) or vinv[b] not in (-1, v):
                    continue
                budget[0] -= 1
                if budget[0] < 0:
                    raise SearchLimitError(f"isomorphism search of {t} edges exceeds the limit of {SEARCH_LIMIT} nodes")
                fresh = []
                for s, d in ((u, a), (v, b)):
                    if vmap[s] == -1:
                        vmap[s], vinv[d] = d, s
                        fresh.append(s)
                emap[x], used[y] = y, True
                if fits is None or fits(x, vmap, emap):
                    yield
                emap[x], used[y] = -1, False
                for s in fresh:
                    vinv[vmap[s]], vmap[s] = -1, -1

    order = g.edge_order
    stack: list[Iterator] = [iter((None,))]  # a root level with one choice: no edges, one map
    while stack:
        for _ in stack[-1]:  # resumes the deepest level
            if len(stack) > t:
                yield tuple(vmap), tuple(emap)
            else:
                stack.append(bind(order[len(stack) - 1]))
                break
        else:
            stack.pop()


def _first(
    g: Pseudograph, h: Pseudograph, candidates: Sequence[Sequence[int]], keep: Callable, fits: Optional[Callable]
) -> Optional[EdgeIsomorphism]:
    """The first pair in (vertex map, edge map) order that _edge_maps finds
    and keep accepts; partial maps already placed after an accepted one are cut."""
    best = None

    def bounded(x: int, vmap: list[int], emap: list[int]) -> bool:
        ahead = best is None or next((v < w for v, w in zip(vmap, best[0]) if v != w), True)  # -1: unbound
        return ahead and (fits is None or fits(x, vmap, emap))

    for found in _edge_maps(g, h, candidates, [SEARCH_LIMIT], bounded):
        if (best is None or found < best) and keep(*found):
            best = found
    return None if best is None else EdgeIsomorphism(*best)


def edge_isomorphisms(g: Pseudograph, h: Pseudograph) -> tuple[EdgeIsomorphism, ...]:
    """All consistent pairs between g and h up to permutations of isolated
    vertices; empty iff not isomorphic.

    Isolated vertices of g go to those of h in increasing order, so a file
    declaring many unused vertices costs nothing.  Sorted by (vertex map,
    edge map) so output order is schedule-free.  Every visited node counts
    against SEARCH_LIMIT.
    """
    found = _edge_maps(g, h, _candidates(g.edge_kinds, h.edge_kinds), [SEARCH_LIMIT], None)
    return tuple(EdgeIsomorphism(*p) for p in sorted(found))


@per_graph
def edge_automorphism_group(g: Pseudograph) -> EdgePermutationGroup:
    """The group of edge permutations induced by self-isomorphisms of g.

    Twin classes come from one pinned search per candidate pair (is the
    transposition an automorphism?), the transversal from one search that
    maps each edge to an edge of equal rank in an equally large twin
    class; a candidate pair shares its kind and neighbours outside itself.
    Every visited node counts against SEARCH_LIMIT.
    """
    t = g.edge_count
    budget = [SEARCH_LIMIT]
    kind = g.edge_kinds
    at = [sum(1 << x for x in g.incidence[v]) for v in g.vertices]  # the edges at each vertex
    near = [at[u] | at[v] for _, (u, v) in g.edges]  # each edge's neighbours and itself

    def twins(e: int, f: int) -> bool:
        if kind[e] != kind[f] or (near[e] ^ near[f]) & ~(1 << e | 1 << f):  # (e f) keeps every other edge
            return False
        pinned = [(x,) for x in range(t)]
        pinned[e], pinned[f] = (f,), (e,)
        return next(_edge_maps(g, g, pinned, budget, None), None) is not None

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
    increasing = [(kind[x], rank[x], size[x]) for x in range(t)]
    transversal = sorted({emap for _, emap in _edge_maps(g, g, _candidates(increasing, increasing), budget, None)})
    return EdgePermutationGroup(tuple(map(tuple, classes)), tuple(transversal))


def label_isomorphism_witness(n: TemporalNetwork, m: TemporalNetwork) -> Optional[EdgeIsomorphism]:
    """The first pair, in (vertex map, edge map) order, mapping every edge
    onto an equal-labeled edge, if one exists."""
    g, h = n.graph, m.graph
    kinds = [list(zip(f.edge_kinds, lab)) for f, lab in ((g, n.labeling), (h, m.labeling))]
    return _first(g, h, _candidates(*kinds), lambda vmap, emap: True, None)


def is_label_isomorphic(n: TemporalNetwork, m: TemporalNetwork) -> bool:
    return label_isomorphism_witness(n, m) is not None


def temporal_isomorphism_witness(n: TemporalNetwork, m: TemporalNetwork) -> Optional[EdgeIsomorphism]:
    """The first pair, in (vertex map, edge map) order, carrying the
    temporal-path set of n exactly onto that of m, if one exists.

    The search keeps the label order of every pair of adjacent edges (an
    edge goes to one with as many adjacent edges labeled below it), which
    is enough: such a graph isomorphism carries the temporal walks of n
    onto those of m, and its inverse carries them back.
    """
    ln, lm = n.labeling, m.labeling
    near_n = adjacency(n.graph).neighbors

    def kinds(net: TemporalNetwork) -> list[tuple]:
        near, lab = adjacency(net.graph).neighbors, net.labeling
        return [(k, len([z for z in near[x] if lab[z] < lab[x]])) for x, k in enumerate(net.graph.edge_kinds)]

    kinds_n, kinds_m = kinds(n), kinds(m)

    def keeps_order(x: int, vmap: list[int], emap: list[int]) -> bool:
        return all(emap[z] < 0 or (ln[z] < ln[x]) == (lm[emap[z]] < lm[emap[x]]) for z in near_n[x])

    return _first(n.graph, m.graph, _candidates(kinds_n, kinds_m), lambda vmap, emap: True, keeps_order)


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


@per_graph
def canonical_label_vectors(g: Pseudograph) -> tuple[tuple[int, ...], ...]:
    """All canonical labelings of g, in lexicographic order.

    Each returned vector is the minimum of its orbit under the edge
    automorphism group; there are exactly count_distinct_labelings(g).
    The candidates are the t!/|N| class-sorted vectors, labeled as the
    partition walk labels edges: label 1, 2, ... goes to an edge once its
    next-smaller twin has one.  One is kept iff no element of T lowers it.
    """
    t, group = g.edge_count, edge_automorphism_group(g)
    before = {b: a for c in group.twin_classes for a, b in zip(c, c[1:])}  # the next-smaller twin
    vec, reps = [0] * t, []

    def fill(label: int) -> None:
        if label > t:
            cand = tuple(vec)
            if not any(tuple(map(cand.__getitem__, p)) < cand for p in group.transversal):
                reps.append(cand)
            return
        for e in range(t):
            if not vec[e] and (e not in before or vec[before[e]]):
                vec[e] = label
                fill(label + 1)
                vec[e] = 0

    fill(1)
    return tuple(sorted(reps))
