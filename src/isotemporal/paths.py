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
keeps, per vertex, the walks ending there costs only its new paths.  The
partition walk steps the sweep once per distinct prefix path set
(``_path_step``): prefixes with one path set share every continuation, as
a step reads only the walks, the edges used so far are the one-edge
paths, and a sequence's walks (at most two, ending at different
vertices) follow from the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def _add_edge(ends: dict[int, list], ext: tuple[int] | bytes, u: int, v: int) -> list:
    """Add edge {u, v} (``ext``: it as a 1-tuple or 1 byte), labeled above all in ``ends``
    (vertex -> sequences whose walk ends there), in place; return the new walks."""
    at_u, at_v = ends.setdefault(u, []), ends.setdefault(v, [])
    onward = [seq + ext for seq in at_u] + [ext]  # walks at u cross to v
    back = [seq + ext for seq in at_v] + [ext] if u != v else []
    at_v += onward
    at_u += back
    return onward + back


def _enumerate(network: TemporalNetwork) -> set[tuple[int, ...]]:
    """Every temporal-path edge sequence of the network."""
    g, ends, walks = network.graph, {}, 0  # ends: vertex -> edge sequences whose walk ends there
    for eid in sorted(range(g.edge_count), key=network.labeling.__getitem__):
        walks += len(_add_edge(ends, (eid,), *g.endpoints(eid)))
        if walks > 2 * PATH_LIMIT:  # at most two walks a sequence: already too many
            break
    found = {seq for at in ends.values() for seq in at}
    if len(found) > PATH_LIMIT:
        raise PathLimitError(f"more than {PATH_LIMIT} temporal paths")
    return found


def _path_step(g: Pseudograph) -> Callable:
    """The brute walk's step on g (< 256 edges): (state, used edges, next edge) -> (key, state).

    A state is the path set of a label prefix, keyed by a mask with one bit per sequence, with
    its walks (edge-id bytes) ending at each vertex; each state checks PATH_LIMIT.
    """
    bit_of: dict[bytes, int] = {}

    def step(state: tuple[int, dict], used: int, e: int) -> tuple[int, tuple[int, dict]]:
        mask, ends = state
        u, v = g.endpoints(e)
        ends = dict(ends)
        ends[u], ends[v] = ends.get(u, [])[:], ends.get(v, [])[:]  # the lists _add_edge grows
        for seq in _add_edge(ends, bytes((e,)), u, v):
            mask |= 1 << bit_of.setdefault(seq, len(bit_of))
        if mask.bit_count() > PATH_LIMIT:
            raise PathLimitError(f"more than {PATH_LIMIT} temporal paths")
        return mask, (mask, ends)

    return step


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
