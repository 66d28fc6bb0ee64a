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

One sweep adds the edges in label order.  The edge added last has the
largest label so far, so every new path ends with it: a walk ending at
one of its endpoints, extended by it, or the edge alone.  So a step that
keeps, per vertex, the walks ending there costs only its new paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

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


def _add_edge(ends: dict[int, list], ext: tuple[int] | bytes, u: int, v: int) -> int:
    """Add edge {u, v} (``ext``: it as a 1-tuple or 1 byte), labeled above all in ``ends``
    (vertex -> sequences whose walk ends there), in place; return the number of new walks."""
    at_u, at_v = ends.setdefault(u, []), ends.setdefault(v, [])
    onward = [seq + ext for seq in at_u] + [ext]  # walks at u cross to v
    back = [seq + ext for seq in at_v] + [ext] if u != v else []
    at_v += onward
    at_u += back
    return len(onward) + len(back)


def _enumerate(network: TemporalNetwork) -> set[tuple[int, ...]]:
    """Every temporal-path edge sequence of the network."""
    g, ends, walks = network.graph, {}, 0  # ends: vertex -> edge sequences whose walk ends there
    for eid in sorted(range(g.edge_count), key=network.labeling.__getitem__):
        walks += _add_edge(ends, (eid,), *g.endpoints(eid))
        if walks > 2 * PATH_LIMIT:  # at most two walks a sequence: already too many
            break
    found = {seq for at in ends.values() for seq in at}
    if len(found) > PATH_LIMIT:
        raise PathLimitError(f"more than {PATH_LIMIT} temporal paths")
    return found


def _path_sets(g: Pseudograph, labelings: Iterable[tuple]) -> Iterator[tuple[tuple, frozenset[bytes]]]:
    """Each labeling of g (< 256 edges) with its full path set as edge-id bytes, sorted by
    walk (edges in label order), so that consecutive walks share the sweep up to where they part."""
    def walk(vec: tuple[int, ...]) -> bytes:
        return bytes(sorted(range(len(vec)), key=vec.__getitem__))

    ends: dict[int, list[bytes]] = {v: [] for _, pair in g.edges for v in pair}
    undo: list[tuple] = []  # per step: its edge, the two lists it grew and their lengths before
    for vec in sorted(labelings, key=walk):
        order = walk(vec)
        shared = 0
        while shared < len(undo) and order[shared] == undo[shared][0]:
            shared += 1
        for _, at_u, len_u, at_v, len_v in undo[shared:]:  # truncations: any order will do
            del at_u[len_u:], at_v[len_v:]
        del undo[shared:]
        for d in range(shared, len(order)):
            u, v = g.endpoints(order[d])
            undo.append((order[d], ends[u], len(ends[u]), ends[v], len(ends[v])))
            _add_edge(ends, order[d : d + 1], u, v)
        yield vec, frozenset(itertools.chain.from_iterable(ends.values()))


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
