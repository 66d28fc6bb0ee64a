"""Temporal path enumeration.

A temporal path is an ordered series of edges chained through shared
vertices with strictly increasing labels.  The edge-id sequence is the
path's identity; a witnessing vertex trace is recorded because in a
pseudograph the edge sequence alone does not pin down the traversal
(loops re-enter their vertex, parallel edges are told apart by id).
Once its start vertex is fixed the walk is forced, so the trace kept is
the lexicographically smallest witness: the walk from the smaller
endpoint of the first edge if that walk is valid, else from the larger.
A single edge therefore yields exactly one path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import IsotemporalError, Pseudograph, TemporalNetwork

PATH_LIMIT = 100_000


class PathLimitError(IsotemporalError):
    """Enumeration would exceed PATH_LIMIT temporal paths."""


@dataclass(frozen=True)
class TemporalPath:
    edge_ids: tuple[int, ...]
    trace: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edge_ids)


def _enumerate(network: TemporalNetwork) -> set[tuple[int, ...]]:
    """Every temporal-path edge sequence of the network."""
    g = network.graph
    labeling = network.labeling
    by_vertex: dict[int, list[tuple[int, int, int]]] = {v: [] for v in g.vertices}
    for eid, (u, v) in g.edges:
        by_vertex[u].append((labeling[eid], eid, v))
        if v != u:
            by_vertex[v].append((labeling[eid], eid, u))

    found: set[tuple[int, ...]] = set()
    stack = [((eid,), at, labeling[eid]) for eid, (u, v) in g.edges for at in {u, v}]
    while stack:
        seq, at, last = stack.pop()
        found.add(seq)
        if len(found) > PATH_LIMIT:
            raise PathLimitError(f"more than {PATH_LIMIT} temporal paths")
        for lab, eid, nxt in by_vertex[at]:
            if lab > last:
                stack.append((seq + (eid,), nxt, lab))
    return found


def _trace(g: Pseudograph, seq: tuple[int, ...]) -> tuple[int, ...]:
    # the walk is forced once its start is fixed; endpoints come smaller first
    for start in g.endpoints(seq[0]):
        trace = [start]
        for eid in seq:
            u, v = g.endpoints(eid)
            if trace[-1] not in (u, v):
                break
            trace.append(v if trace[-1] == u else u)
        else:
            return tuple(trace)
    raise IsotemporalError(f"internal error: no walk traces {seq}")


def temporal_paths(network: TemporalNetwork) -> frozenset[TemporalPath]:
    """Every temporal path of every length >= 1, with witnessing traces."""
    return frozenset(TemporalPath(seq, _trace(network.graph, seq)) for seq in _enumerate(network))


def edge_sequences(network: TemporalNetwork) -> frozenset[tuple[int, ...]]:
    """Edge-id sequences of all temporal paths."""
    return frozenset(_enumerate(network))


def max_temporal_path_length(network: TemporalNetwork) -> int:
    """Length of the longest temporal path (0 for an edgeless network)."""
    return max((len(seq) for seq in _enumerate(network)), default=0)
