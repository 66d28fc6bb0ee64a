"""Pseudograph and serial temporal-network data model, validation, and file I/O.

A pseudograph may contain loops and parallel edges.  Edges are identified
positionally (ids 0..t-1) because parallel edges share endpoint pairs.  A
temporal network's labels must be a bijection onto {1..t}, the ranks of the
time stamps; TemporalNetwork checks this.  A graph owns what is derived from
it (cached_property, per_graph); file and family graphs share a graph table.
"""

from __future__ import annotations

import functools
import operator
from functools import cached_property
from typing import Iterable, Sequence

# Most vertices a network file may declare.  Far above what any search here
# handles, yet small enough that a mistyped count cannot exhaust memory.
VERTEX_LIMIT = 10_000

GRAPH_TABLE_SIZE = 256  # graphs the graph table keeps; a benchmark pass meets at most 126


class IsotemporalError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(IsotemporalError):
    """A value violates a structural invariant."""


class EdgeIdError(ValidationError):
    """Edge ids are not exactly 0..t-1 in order."""


class UnknownVertexError(ValidationError):
    """An edge endpoint names a vertex that does not exist."""


class UnknownEdgeError(ValidationError):
    """A label entry names an edge that does not exist."""


class DuplicateLabelError(ValidationError):
    """A label value (or labeled edge) appears more than once."""


class MissingLabelError(ValidationError):
    """Some edge received no label."""


class LabelRangeError(ValidationError):
    """A label lies outside {1..t}."""


class ParseError(ValidationError):
    """Malformed network file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_set = object.__setattr__  # how __init__ sets a record's fields


class _Record:
    """An immutable record whose fields are its __slots__ but "__dict__" (for cached_property) and
    "__weakref__".  It equals only a record of its own type with equal fields; repr Name(field=value)."""

    __slots__ = ()

    def __init__(self, *values):  # a record with checks sets its fields in its own __init__
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("__")) or cls._fields
        cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        return self._values(self) == other._values(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, *value):  # also __delattr__
        raise AttributeError(f"cannot assign to or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__


class Pseudograph(_Record):
    """An undirected pseudograph: loops and parallel edges allowed.

    ``vertices`` is the ordered tuple of vertex ids 0..n-1.  ``edges`` is the
    ordered tuple of (edge id, endpoint pair); endpoint pairs are stored
    sorted so that (u, v) and (v, u) denote the same edge.
    """

    __slots__ = ("vertices", "edges", "__dict__", "__weakref__")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, tuple[int, int]]]):
        vertices = tuple(vertices)
        if vertices != tuple(range(len(vertices))):
            raise UnknownVertexError(f"vertex ids must be 0..n-1 in order, got {vertices}")
        vset = set(vertices)
        norm = []
        for i, (eid, pair) in enumerate(edges):
            if eid != i:
                raise EdgeIdError(f"edge ids must be 0..t-1 in order, got id {eid} at position {i}")
            u, v = pair
            if u not in vset or v not in vset:
                raise UnknownVertexError(f"edge {eid} endpoint pair {pair} not in vertex list")
            norm.append((i, (u, v) if u <= v else (v, u)))
        _set(self, "vertices", vertices)
        _set(self, "edges", tuple(norm))

    @classmethod
    def from_edges(cls, vertex_count: int, pairs: Iterable[tuple[int, int]]) -> "Pseudograph":
        return cls(tuple(range(vertex_count)), tuple((i, tuple(p)) for i, p in enumerate(pairs)))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        return self.edges[edge_id][1]

    def is_loop(self, edge_id: int) -> bool:
        u, v = self.endpoints(edge_id)
        return u == v

    @cached_property
    def incidence(self) -> dict[int, tuple[int, ...]]:
        """Vertex -> ids of edges touching it (a loop listed once)."""
        inc: dict[int, list[int]] = {v: [] for v in self.vertices}
        for eid, (u, v) in self.edges:
            inc[u].append(eid)
            if v != u:
                inc[v].append(eid)
        return {v: tuple(es) for v, es in inc.items()}

    def degree(self, vertex: int) -> int:
        """Edge-incidence count; a loop contributes 2."""
        d = 0
        for eid, (u, v) in self.edges:
            if u == vertex:
                d += 1
            if v == vertex:
                d += 1
        return d

    def loop_count(self, vertex: int) -> int:
        return sum(1 for _, (u, v) in self.edges if u == vertex and v == vertex)

    @cached_property
    def parallel_classes(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Endpoint pair -> ids of the edges sharing it."""
        cls: dict[tuple[int, int], list[int]] = {}
        for eid, pair in self.edges:
            cls.setdefault(pair, []).append(eid)
        return {p: tuple(es) for p, es in cls.items()}

    def multiplicity(self, u: int, v: int) -> int:
        pair = (u, v) if u <= v else (v, u)
        return len(self.parallel_classes.get(pair, ()))

    @cached_property
    def edge_order(self) -> tuple[int, ...]:
        """The order the isomorphism search binds edges in: component by
        component, each edge after one it shares a vertex with, so only a
        component's first edge has two endpoints no earlier edge touches."""
        order: list[int] = []
        seen = [False] * self.edge_count
        for root in range(self.edge_count):
            if seen[root]:
                continue
            seen[root] = True
            queue = [root]
            for x in queue:
                for v in self.endpoints(x):
                    for y in self.incidence[v]:
                        if not seen[y]:
                            seen[y] = True
                            queue.append(y)
            order += queue
        return tuple(order)

    @cached_property
    def edge_kinds(self) -> tuple[tuple, ...]:
        """Per edge: loop or not, multiplicity, and the (degree, loop count)
        of its endpoints, smaller first.  Every isomorphism keeps it."""
        inc, par = self.incidence, self.parallel_classes
        loops = {v: len(par.get((v, v), ())) for v in self.vertices}
        profile = {v: (len(es) + loops[v], loops[v]) for v, es in inc.items()}  # a loop adds 2 to the degree
        return tuple((u == v, len(par[u, v]), *sorted((profile[u], profile[v]))) for _, (u, v) in self.edges)


class AdjacencyRelation(_Record):
    """Symmetric, irreflexive edge adjacency: edges sharing >= 1 endpoint.

    A loop at v is adjacent to every other edge incident to v, including
    other loops at v; no edge is recorded as adjacent to itself.
    """

    __slots__ = ("edge_count", "pairs", "__dict__")

    def adjacent(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return ((i, j) if i < j else (j, i)) in self.pairs

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per edge, the edges adjacent to it, increasing."""
        out: list[list[int]] = [[] for _ in range(self.edge_count)]
        for i, j in sorted(self.pairs):
            out[i].append(j)
            out[j].append(i)
        return tuple(map(tuple, out))


def per_graph(fn):
    """fn(graph) as a cached_property named after fn, applied from outside the class: computed once
    per graph and kept in the graph's __dict__, so it lives and dies with the graph."""
    prop = cached_property(fn)
    prop.attrname = fn.__name__
    return functools.wraps(fn)(lambda graph: prop.__get__(graph))


@per_graph
def adjacency(graph: Pseudograph) -> AdjacencyRelation:
    """Edge-adjacency relation of a pseudograph."""
    pairs = set()
    for edges in graph.incidence.values():
        for x in range(len(edges)):
            for y in range(x + 1, len(edges)):
                i, j = edges[x], edges[y]
                pairs.add((i, j) if i < j else (j, i))
    return AdjacencyRelation(graph.edge_count, frozenset(pairs))


class TemporalNetwork(_Record):
    """A pseudograph plus a bijective labeling of its edges onto {1..t}.

    ``labeling[e]`` is the temporal label of edge e.
    """

    __slots__ = ("graph", "labeling", "__dict__")

    def __init__(self, graph: Pseudograph, labeling: Sequence[int]):
        labeling = tuple(labeling)
        t = graph.edge_count
        if len(labeling) != t:
            raise MissingLabelError(f"expected {t} labels, got {len(labeling)}")
        seen = set()
        for e, lab in enumerate(labeling):
            if not 1 <= lab <= t:
                raise LabelRangeError(f"edge {e} label {lab} outside 1..{t}")
            if lab in seen:
                raise DuplicateLabelError(f"label {lab} used more than once")
            seen.add(lab)
        _set(self, "graph", graph)
        _set(self, "labeling", labeling)

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    @cached_property
    def _label_to_edge(self) -> tuple[int, ...]:
        inv = [0] * self.edge_count
        for e, lab in enumerate(self.labeling):
            inv[lab - 1] = e
        return tuple(inv)

    def edge_with_label(self, label: int) -> int:
        if not 1 <= label <= self.edge_count:
            raise LabelRangeError(f"no edge carries label {label}")
        return self._label_to_edge[label - 1]

    def relabeled(self, labeling: Sequence[int]) -> "TemporalNetwork":
        return TemporalNetwork(self.graph, tuple(labeling))


def build_network(graph: Pseudograph, labels: Iterable[tuple[int, int]]) -> TemporalNetwork:
    """Build a validated TemporalNetwork from (edge id, label) pairs.

    The pairs must name every edge once (UnknownEdgeError, DuplicateLabelError,
    MissingLabelError); TemporalNetwork checks the labels are a bijection onto
    {1..t}.
    """
    t = graph.edge_count
    assigned: dict[int, int] = {}
    for eid, lab in labels:
        if not 0 <= eid < t:
            raise UnknownEdgeError(f"label entry names edge {eid}, but edge ids are 0..{t - 1}")
        if eid in assigned:
            raise DuplicateLabelError(f"edge {eid} labeled more than once")
        assigned[eid] = lab
    if len(assigned) != t:
        missing = sorted(set(range(t)) - set(assigned))
        raise MissingLabelError(f"edges {missing} received no label")
    return TemporalNetwork(graph, tuple(assigned[e] for e in range(t)))


def serialize_network(network: TemporalNetwork) -> str:
    """Render a network in the line-oriented text format (one trailing newline)."""
    g = network.graph
    lines = [f"vertices: {g.vertex_count}", f"edges: {g.edge_count}"]
    for eid, (u, v) in g.edges:
        lines.append(f"{eid} {u} {v} {network.labeling[eid]}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=GRAPH_TABLE_SIZE)
def _file_graph(vertex_count: int, pairs: tuple[tuple[int, int], ...]) -> Pseudograph:
    # the graph table: one graph object per distinct file or family graph; no failed build is kept
    return Pseudograph.from_edges(vertex_count, pairs)


def parse_network(text: str) -> TemporalNetwork:
    """Parse the text format produced by serialize_network.

    Blank lines and '#'-prefixed comments are ignored.  Syntax problems,
    and a vertex count above VERTEX_LIMIT, raise ParseError with the line
    number; semantic problems raise the corresponding validation error.
    Equal vertex counts and endpoint pairs in equal order share one graph
    object from the graph table, which keeps the GRAPH_TABLE_SIZE graphs used last.
    """
    lines = text.splitlines()
    rows = [(no, fields) for no, fields in enumerate(map(str.split, lines), start=1) if fields and fields[0][0] != "#"]

    def header(index: int, key: str) -> int:
        if index >= len(rows):
            raise ParseError(len(lines) + 1, f"missing '{key}:' header")
        line_no, fields = rows[index]
        if len(fields) != 2 or fields[0] != f"{key}:":
            raise ParseError(line_no, f"expected '{key}: <count>'")
        try:
            value = int(fields[1])
        except ValueError:
            raise ParseError(line_no, f"'{key}' count is not an integer") from None
        if value < 0:
            raise ParseError(line_no, f"'{key}' count is negative")
        return value

    n = header(0, "vertices")
    if n > VERTEX_LIMIT:
        raise ParseError(rows[0][0], f"'vertices' count {n} exceeds the limit {VERTEX_LIMIT}")
    t = header(1, "edges")
    if len(rows) != 2 + t:
        if len(rows) < 2 + t:
            raise ParseError(len(lines) + 1, f"expected {t} edge lines, found {len(rows) - 2}")
        raise ParseError(rows[2 + t][0], "unexpected extra line")

    pairs, labels = [], []
    for i, (line_no, fields) in enumerate(rows[2:]):
        if len(fields) != 4:
            raise ParseError(line_no, "expected '<edge-id> <u> <v> <label>'")
        try:
            eid, u, v, lab = map(int, fields)
        except ValueError:
            raise ParseError(line_no, "edge fields must be integers") from None
        if eid != i:
            raise ParseError(line_no, f"edge ids must appear in order 0..{t - 1}, got {eid}")
        pairs.append((u, v))
        labels.append(lab)
    # edge ids are 0..t-1 in order, so every edge has one label: TemporalNetwork checks the rest
    return TemporalNetwork(_file_graph(n, tuple(pairs)), tuple(labels))
