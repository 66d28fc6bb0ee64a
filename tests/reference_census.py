"""Every pseudograph on t edges without isolated vertices, one per isomorphism class.

A graph of t edges grows from one of t - 1 edges by one edge in every way:
between two existing vertices (a loop included), from an existing vertex to
a new one, as a loop on a new vertex, or as a new two-vertex component.
Every graph arises so: deleting any edge and then the vertices it leaves
isolated gives a graph of t - 1 edges with no isolated vertex.  One graph is
kept per class: graphs are bucketed by (vertex count, sorted (degree, loops)
pairs, sorted edge multiplicities), and a graph is kept unless the
isomorphism search finds one isomorphism onto a graph already kept in its
bucket.  The counts 2, 7, 23, 79, 274, 1003 for t = 1..6 are those of
loopy multigraphs on t unlabeled edges with no isolated vertex.
"""

import functools

from isotemporal import Pseudograph
from isotemporal.iso import SEARCH_LIMIT, _candidates, _edge_maps
from reference_iso import degree, loop_count


def _isomorphic(g, h):
    return next(_edge_maps(g, h, _candidates(g.edge_kinds, h.edge_kinds), [SEARCH_LIMIT], None), None) is not None


def _bucket(g):
    vertices = sorted((degree(g, v), loop_count(g, v)) for v in g.vertices)
    return g.vertex_count, tuple(vertices), tuple(sorted(map(len, g.parallel_classes.values())))


def _grown(g):
    n, pairs = g.vertex_count, [pair for _, pair in g.edges]
    for u in range(n):
        for v in range(u, n + 1):  # v == n: a new vertex
            yield Pseudograph.from_edges(max(n, v + 1), pairs + [(u, v)])
    yield Pseudograph.from_edges(n + 1, pairs + [(n, n)])
    yield Pseudograph.from_edges(n + 2, pairs + [(n, n + 1)])


@functools.cache
def census(t):
    """The graphs of 1..t edges, one per isomorphism class: a list per edge count.  Built once per
    t and process and shared by every caller, so callers must not change the lists."""
    layers, layer = [], [Pseudograph.from_edges(0, [])]
    for _ in range(t):
        buckets = {}
        for g in layer:
            for h in _grown(g):
                kept = buckets.setdefault(_bucket(h), [])
                if not any(_isomorphic(h, k) for k in kept):
                    kept.append(h)
        layer = [g for kept in buckets.values() for g in kept]
        layers.append(layer)
    return layers
