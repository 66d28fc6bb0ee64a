"""The paper's transfer theorem as a check: class counts carry between two
graphs whose edge adjacencies and edge automorphisms correspond.

No command reads it; the test suite checks the theorem with it over the
census of small pseudographs, and group membership, which only this check
asks, is tested against the vertex-bijection reference.
"""

from typing import NamedTuple, Optional

from isotemporal import Pseudograph, adjacency, edge_automorphism_group
from isotemporal.iso import _candidates, _class_sorted, _first


def membership(group):
    """A test of membership in an EdgePermutationGroup: p = tau o nu, with tau in the transversal
    and nu in the twin subgroup N, iff sorting p's images inside each twin class gives tau."""
    transversal = frozenset(group.transversal)
    return lambda p: _class_sorted(tuple(p), group.twin_classes) in transversal


class TransferReport(NamedTuple):
    """Whether class counts transfer between two graphs.

    holds is true when some edge bijection preserves adjacency both ways
    and conjugation by it carries one edge automorphism group onto the
    other; witness is that bijection.  failed_condition names the first
    condition that could not be met ('edge-adjacency' or
    'edge-automorphisms').
    """

    holds: bool
    witness: Optional[tuple[int, ...]]
    failed_condition: Optional[str]


def _line_graph(g: Pseudograph) -> Pseudograph:
    # one vertex per edge of g, joined when the two edges are adjacent; a loop
    # at each vertex, so that the search binds isolated edges in every way
    return Pseudograph.from_edges(g.edge_count, [(e, e) for e in range(g.edge_count)] + sorted(adjacency(g).pairs))


def check_transfer_conditions(g: Pseudograph, h: Pseudograph) -> TransferReport:
    """Search for an edge bijection preserving adjacency both ways (an
    isomorphism of line graphs), then check it conjugates the edge
    automorphism groups onto each other: with equal orders, generators (T
    and swaps of consecutive twins) conjugating into the other suffice."""
    if g.edge_count != h.edge_count:
        raise ValueError("graphs must have equal edge counts")
    t = g.edge_count
    aut_g, aut_h = edge_automorphism_group(g), edge_automorphism_group(h)
    in_h = membership(aut_h)
    generators = list(aut_g.transversal) + [
        tuple(f if x == e else e if x == f else x for x in range(t)) for c in aut_g.twin_classes for e, f in zip(c, c[1:])
    ]
    lg, lh = _line_graph(g), _line_graph(h)
    candidates = _candidates(lg.edge_kinds, lh.edge_kinds)

    def conjugates(phi: tuple[int, ...], _) -> bool:  # phi o p o phi^-1 in aut_h for every generator p
        inverse = sorted(range(t), key=phi.__getitem__)
        return all(in_h([phi[p[e]] for e in inverse]) for p in generators)

    if aut_g.order == aut_h.order and (found := _first(lg, lh, candidates, conjugates, None)):
        return TransferReport(True, found.vertex_map, None)
    if _first(lg, lh, candidates, lambda phi, _: True, None) is None:
        return TransferReport(False, None, "edge-adjacency")
    return TransferReport(False, None, "edge-automorphisms")
