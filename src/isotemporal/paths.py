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
vertices) follow from the graph.  There a state is one int mask, one bit
per sequence met, the used edges at bits 0..t-1; the walks ending at x are
``mask & at[x]``, and a step ORs in their extensions by the new edge.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .core import IsotemporalError, Pseudograph, TemporalNetwork

PATH_LIMIT = 100_000


class PathLimitError(IsotemporalError):
    """Enumeration would exceed PATH_LIMIT temporal paths."""


class TemporalPath(NamedTuple):
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
            raise PathLimitError(f"more than {PATH_LIMIT} temporal paths")
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


def _path_step(g: Pseudograph) -> tuple[Callable, list[bytes], Callable]:
    """The brute walk on g (< 256 edges): (step, names, intern).

    step(state, edge) -> state.  A state is the prefix's path set, bit b the sequence names[b]
    (edge-id bytes) and bits 0..t-1 the one-edge ones.  at[x] marks the sequences with a walk
    ending at x, a property of g set as a sequence is interned.  Extensions are memoised per edge
    and the walks at both its ends, every state checks PATH_LIMIT, and intern(sequence) -> bit.
    """
    names = [bytes((e,)) for e in range(g.edge_count)]
    bit_of = {seq: b for b, seq in enumerate(names)}
    at = [sum(1 << e for e in g.incidence[x]) for x in g.vertices]
    ends = [pair for _, pair in g.edges]
    extended: list[dict[int, int]] = [{} for _ in ends]  # per edge: the walks at its ends -> their extensions

    def intern(seq: bytes) -> int:
        b = bit_of.setdefault(seq, len(names))
        if b == len(names):
            names.append(seq)
        return b

    def extend(walks: int, e: int, head: int) -> int:
        # the walks, ending at e's other end, crossing e to head
        new, ext = 0, bytes((e,))
        for b in _bits(walks):
            new |= 1 << intern(names[b] + ext)
        at[head] |= new
        return new

    def step(state: int, e: int) -> int:
        u, v = ends[e]
        walks = state & (at[u] | at[v])
        new = extended[e].get(walks)
        if new is None:  # u to v, and v to u unless e is a loop: both ends recorded at once
            new = extended[e][walks] = extend(walks & at[u], e, v) | (extend(walks & at[v], e, u) if u != v else 0)
        new |= state | 1 << e
        if new.bit_count() > PATH_LIMIT:
            raise PathLimitError(f"more than {PATH_LIMIT} temporal paths")
        return new

    return step, names, intern


def _trace(g: Pseudograph, seq: tuple[int, ...]) -> tuple[int, ...]:
    # the walk is forced once its start is fixed; endpoints come smaller first
    edges = g.edges
    for x in edges[seq[0]][1]:
        trace = [x]
        for eid in seq:
            u, v = edges[eid][1]
            if x == u:
                x = v
            elif x == v:
                x = u
            else:
                break
            trace.append(x)
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
