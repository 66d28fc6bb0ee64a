"""Every pseudograph on t edges without isolated vertices, one per isomorphism class.

A graph of t edges grows from one of t - 1 edges by one edge in every way:
between two existing vertices (a loop included), from an existing vertex to
a new one, as a loop on a new vertex, or as a new two-vertex component.
Every graph arises so: deleting any edge and then the vertices it leaves
isolated gives a graph of t - 1 edges with no isolated vertex.  One graph is
kept per class: graphs are bucketed by (vertex count, sorted (degree, loops)
pairs, sorted edge multiplicities) and compared by edge_isomorphisms within
a bucket.  The counts 2, 7, 23, 79, 274, 1003 for t = 1..6 are those of
loopy multigraphs on t unlabeled edges with no isolated vertex.
"""

from isotemporal import Pseudograph
from isotemporal.iso import edge_isomorphisms


def _bucket(g):
    vertices = sorted((g.degree(v), g.loop_count(v)) for v in g.vertices)
    return g.vertex_count, tuple(vertices), tuple(sorted(map(len, g.parallel_classes.values())))


def _grown(g):
    n, pairs = g.vertex_count, [pair for _, pair in g.edges]
    for u in range(n):
        for v in range(u, n + 1):  # v == n: a new vertex
            yield Pseudograph.from_edges(max(n, v + 1), pairs + [(u, v)])
    yield Pseudograph.from_edges(n + 1, pairs + [(n, n)])
    yield Pseudograph.from_edges(n + 2, pairs + [(n, n + 1)])


def census(t):
    """The graphs of 1..t edges, one per isomorphism class: a list per edge count."""
    layers, layer = [], [Pseudograph.from_edges(0, [])]
    for _ in range(t):
        buckets = {}
        for g in layer:
            for h in _grown(g):
                kept = buckets.setdefault(_bucket(h), [])
                if not any(edge_isomorphisms(h, k) for k in kept):
                    kept.append(h)
        layer = [g for kept in buckets.values() for g in kept]
        layers.append(layer)
    return layers
