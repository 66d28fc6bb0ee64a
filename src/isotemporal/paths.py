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
keeps, per vertex, the walks ending there costs only its new paths.  Over
many labelings of one graph the sweep is a memo on prefix path sets: the
future of a sweep is a function of its path set (see ``_path_sets``).
"""

from __future__ import annotations

import functools
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


def _path_sets(g: Pseudograph, labelings: Iterable[tuple]) -> Iterator[tuple[tuple, frozenset[bytes]]]:
    """Each labeling of g (< 256 edges) with its full path set as edge-id bytes.

    A state is the path set of a label prefix, told apart by a mask with one bit per sequence,
    with its walks ending at each vertex; each step (state, next edge) -> state is taken once.
    Prefixes with one path set share every continuation: a step reads only the walks, the edges
    used so far are the one-edge paths, and a sequence's walks (at most two, ending at different
    vertices) follow from the graph.
    """
    t = g.edge_count
    bit_of: dict[bytes, int] = {}
    state_of, masks, ends_of, step = {0: 0}, [0], [{}], [[0] * t]  # step 0: not taken (none enters 0)
    path_set = functools.cache(lambda s: frozenset(itertools.chain.from_iterable(ends_of[s].values())))

    def take(s: int, e: int) -> int:
        u, v = g.endpoints(e)
        ends, mask = dict(ends_of[s]), masks[s]
        ends[u], ends[v] = ends.get(u, [])[:], ends.get(v, [])[:]  # the lists _add_edge grows
        for seq in _add_edge(ends, bytes((e,)), u, v):
            mask |= 1 << bit_of.setdefault(seq, len(bit_of))
        step[s][e] = nxt = state_of.setdefault(mask, len(masks))
        if nxt == len(masks):
            masks.append(mask), ends_of.append(ends), step.append([0] * t)
        return nxt

    for vec in labelings:
        s = 0
        for e in sorted(range(t), key=vec.__getitem__):
            s = step[s][e] or take(s, e)
        yield vec, path_set(s)


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
