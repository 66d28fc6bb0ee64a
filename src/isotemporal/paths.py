"""Temporal path enumeration.

A temporal path is an ordered series of edges chained through shared
vertices with strictly increasing labels.  The edge-id sequence is the
path's identity; a witnessing vertex trace is recorded because in a
pseudograph the edge sequence alone does not pin down the traversal
(loops re-enter their vertex, parallel edges are told apart by id).
When several traces witness one edge sequence, the lexicographically
smallest is kept, so a single edge yields exactly one path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import IsotemporalError, TemporalNetwork

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


def _enumerate(network: TemporalNetwork) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map every temporal-path edge sequence to its minimal witnessing trace."""
    g = network.graph
    labeling = network.labeling
    by_vertex: dict[int, list[tuple[int, int, int]]] = {v: [] for v in g.vertices}
    for eid, (u, v) in g.edges:
        by_vertex[u].append((labeling[eid], eid, v))
        if v != u:
            by_vertex[v].append((labeling[eid], eid, u))
    for entries in by_vertex.values():
        entries.sort()

    found: dict[tuple[int, ...], tuple[int, ...]] = {}
    stack: list[tuple[tuple[int, ...], tuple[int, ...], int, int]] = []
    for eid, (u, v) in g.edges:
        starts = ((u, v),) if u == v else ((u, v), (v, u))
        for entry, exit_ in starts:
            stack.append(((eid,), (entry, exit_), exit_, labeling[eid]))
    while stack:
        seq, trace, at, last = stack.pop()
        prev = found.get(seq)
        if prev is None:
            found[seq] = trace
            if len(found) > PATH_LIMIT:
                raise PathLimitError(f"more than {PATH_LIMIT} temporal paths")
        elif trace < prev:
            found[seq] = trace
        for lab, eid, nxt in by_vertex[at]:
            if lab > last:
                stack.append((seq + (eid,), trace + (nxt,), nxt, lab))
    return found


def temporal_paths(network: TemporalNetwork) -> frozenset[TemporalPath]:
    """Every temporal path of every length >= 1, with witnessing traces."""
    return frozenset(TemporalPath(seq, trace) for seq, trace in _enumerate(network).items())


def edge_sequences(network: TemporalNetwork) -> frozenset[tuple[int, ...]]:
    """Edge-id sequences of all temporal paths; the same enumeration as
    temporal_paths, with the traces dropped from the result."""
    return frozenset(_enumerate(network).keys())


def max_temporal_path_length(network: TemporalNetwork) -> int:
    """Length of the longest temporal path (0 for an edgeless network)."""
    return max((len(seq) for seq in _enumerate(network)), default=0)
