"""The n! vertex-bijection search, the reference the edge-driven search is
tested against, and the random pseudographs and swap walks the tests draw.

The reference enumerates every vertex bijection that keeps degree, loop
count and the multiplicity of every vertex pair, then every edge
bijection each one admits.  It is exhaustive and slow (n! bijections at
worst), which is why it lives here and not in the package.
"""

import itertools
from typing import Iterator

from hypothesis import strategies as st

from isotemporal import EdgeIsomorphism, Pseudograph, adjacency


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


def reference_isomorphisms(g: Pseudograph, h: Pseudograph) -> list[EdgeIsomorphism]:
    """Every consistent pair between g and h, sorted by (vertex map, edge map)."""
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return []
    out = []
    for vmap in _vertex_bijections(g, h):
        for emap in _edge_bijections(g, h, vmap):
            out.append(EdgeIsomorphism(vmap, emap))
    out.sort(key=lambda iso: (iso.vertex_map, iso.edge_map))
    return out


@st.composite
def pseudographs(draw):
    """Random pseudographs (loops, parallel edges, isolated vertices), or
    disjoint copies of one small component, whose edges can be twins that
    share no vertex."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
        return Pseudograph.from_edges(n + draw(st.integers(0, 1)), pairs)
    k = draw(st.integers(1, 3))
    vertex = st.integers(0, k - 1)
    component = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
    copies = draw(st.integers(2, 6 // max(k, len(component))))  # at most 7 vertices, 6 edges
    pairs = [(u + c * k, v + c * k) for c in range(copies) for u, v in component]
    return Pseudograph.from_edges(copies * k + draw(st.integers(0, 1)), pairs)


def relabeled(g, rng):
    """g with its vertices and edges renumbered at random, and the edge map."""
    vperm = list(g.vertices)
    rng.shuffle(vperm)
    eperm = list(range(g.edge_count))
    rng.shuffle(eperm)
    pairs = [None] * g.edge_count
    for e, (u, v) in g.edges:
        pairs[eperm[e]] = (vperm[u], vperm[v])
    return Pseudograph.from_edges(g.vertex_count, pairs), eperm


def swapped(g, labels, rng):
    """labels after random swaps of consecutive labels on non-adjacent edges."""
    labels = list(labels)
    adj = adjacency(g)
    for _ in range(len(labels)):
        edge_of = {lab: e for e, lab in enumerate(labels)}
        moves = [i for i in range(1, len(labels)) if not adj.adjacent(edge_of[i], edge_of[i + 1])]
        if not moves:
            break
        i = rng.choice(moves)
        a, b = edge_of[i], edge_of[i + 1]
        labels[a], labels[b] = labels[b], labels[a]
    return labels
