"""Stack-DFS path enumeration, the reference the label-order sweep of
``isotemporal.paths`` is tested against.

This is the package's enumerator as it was before the sweep: from every
endpoint of every edge, extend by each incident edge of larger label.
It shares no code with the sweep, so the brute-force partition reference
built on it stays independent of the package's enumerator.
"""

from isotemporal.paths import PATH_LIMIT, PathLimitError


def _enumerate(network):
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


def reference_edge_sequences(network):
    """Edge-id sequences of all temporal paths, as ``edge_sequences`` returns them."""
    return frozenset(_enumerate(network))
