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
vertices) follow from the graph.  There a path set is an int mask, one
bit per sequence the walk meets, and a step ORs in the extensions of the
walks at the new edge's ends, each built once per walk mask and edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

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
    g, ends, walks = network.graph, {}, 0  # ends: vertex -> edge sequences whose walk ends there
    for eid in sorted(range(g.edge_count), key=network.labeling.__getitem__):
        u, v = g.endpoints(eid)
        at_u, at_v = ends.setdefault(u, []), ends.setdefault(v, [])
        onward = [seq + (eid,) for seq in at_u] + [(eid,)]  # walks at u cross to v
        back = [seq + (eid,) for seq in at_v] + [(eid,)] if u != v else []
        at_v += onward
        at_u += back
        walks += len(onward) + len(back)
        if walks > 2 * PATH_LIMIT:  # at most two walks a sequence: already too many
            break
    found = {seq for at in ends.values() for seq in at}
    if len(found) > PATH_LIMIT:
        raise PathLimitError(f"more than {PATH_LIMIT} temporal paths")
    return found


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, highest first, by bit_length: a sparse mask costs its set bits only."""
    while mask:
        b = mask.bit_length() - 1
        yield b
        mask ^= 1 << b


def _path_step(g: Pseudograph) -> tuple[tuple, Callable, Callable]:
    """The brute walk on g (< 256 edges): (start state, step, path set of a state).

    step(state, used edges, next edge) -> (key, state).  A state (mask, ends) holds the prefix's
    sequences and, per vertex, those whose walk ends there, as masks over the bits this walk
    numbers.  Extensions by an edge are memoised per (ends[x], edge), every state checks
    PATH_LIMIT, and path_set decodes a state's mask to edge-id bytes.
    """
    seqs, bit_of = [], {}  # bit -> edge-id bytes of its sequence, and back
    extended: list[dict[int, int]] = [{} for _ in range(g.edge_count)]  # per edge: ends[x] -> new walks

    def extend(at: int, e: int) -> int:
        new = extended[e].get(at)
        if new is None:
            new, ext = 0, bytes((e,))
            for seq in [b""] + [seqs[b] for b in _bits(at)]:
                seq += ext
                b = bit_of.setdefault(seq, len(seqs))
                if b == len(seqs):
                    seqs.append(seq)
                new |= 1 << b
            extended[e][at] = new
        return new

    def step(state: tuple[int, tuple[int, ...]], used: int, e: int) -> tuple[int, tuple]:
        mask, ends = state
        u, v = g.endpoints(e)
        onward, back = extend(ends[u], e), extend(ends[v], e) if u != v else 0  # onward: u to v
        ends = list(ends)
        ends[v] |= onward
        ends[u] |= back
        mask |= onward | back
        if mask.bit_count() > PATH_LIMIT:
            raise PathLimitError(f"more than {PATH_LIMIT} temporal paths")
        return mask, (mask, tuple(ends))

    def path_set(state: tuple[int, tuple[int, ...]]) -> frozenset[bytes]:
        return frozenset(seqs[b] for b in _bits(state[0]))

    return (0, (0,) * g.vertex_count), step, path_set


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
