"""Isomorphism machinery for pseudographs and temporal networks.

A vertex bijection alone does not determine an edge bijection on a
pseudograph (parallel edges and loops leave slack), so isomorphisms are
represented as consistent pairs: a vertex bijection together with an edge
bijection mapping every edge onto an edge with the image endpoints.
Temporal isomorphism is tested by quantifying over all such pairs and
demanding the image of the temporal-path set equal the target's path set,
which makes the relation manifestly symmetric.

Searches are exhaustive with degree/loop-profile pruning; target graphs
are desk-scale (around ten vertices).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .core import IsotemporalError, Pseudograph, TemporalNetwork
from .paths import edge_sequences

SEARCH_LIMIT = math.factorial(10)


class SearchLimitError(IsotemporalError):
    """The vertex-bijection search space exceeds SEARCH_LIMIT."""


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


@dataclass(frozen=True)
class EdgePermutationGroup:
    """An edge-permutation group stored extensionally, sorted, with identity."""

    elements: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

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
    Cached: the automorphism group and both witness searches read it.
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


@functools.lru_cache(maxsize=None)
def edge_automorphism_group(g: Pseudograph) -> EdgePermutationGroup:
    """The group of edge permutations induced by self-isomorphisms of g."""
    perms = sorted({iso.edge_map for iso in edge_isomorphisms(g, g)})
    return EdgePermutationGroup(tuple(perms))


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


def canonical_labeling(n: TemporalNetwork) -> TemporalNetwork:
    """Lexicographically minimal labeling in the label-isomorphism orbit of n.

    Idempotent; two networks on the same graph are label isomorphic iff
    their canonical labelings are identical.
    """
    group = edge_automorphism_group(n.graph)
    vec = n.labeling
    t = n.edge_count
    best = min(tuple(vec[p[e]] for e in range(t)) for p in group)
    return TemporalNetwork(n.graph, best)


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
    For t <= 8 a visited set over all t! vectors is used; beyond that a
    memory-light minimality test takes over.
    """
    t = g.edge_count
    group = edge_automorphism_group(g).elements
    rng = range(t)
    reps: list[tuple[int, ...]] = []
    if t <= 8:
        seen: set[tuple[int, ...]] = set()
        for vec in itertools.permutations(range(1, t + 1)):
            if vec in seen:
                continue
            reps.append(vec)
            for p in group:
                seen.add(tuple(vec[p[e]] for e in rng))
    else:
        others = [p for p in group if p != tuple(rng)]
        for vec in itertools.permutations(range(1, t + 1)):
            if all(vec <= tuple(vec[p[e]] for e in rng) for p in others):
                reps.append(vec)
    return tuple(reps)
