"""Orbit indexing over every element of the automorphism group, the
reference both partition routes are tested against, the signature
partition of two-sided graphs, and the canonical labelings of a
partition's classes, which the package never lists.

These are the brute-force and swap-closure bodies as they were before
the package indexed the transversal alone: each class's first member has
its image indexed under every element of ``EdgePermutationGroup.elements``,
so no argument about the transversal is needed.  They cost classes x
|Aut| images, which is why they live here and not in the package.  Path
sets come from the stack-DFS reference enumerator, one network at a time,
so the package's shared label-order sweep is checked, not reused.
"""

import operator
from types import SimpleNamespace

from isotemporal import TemporalNetwork, adjacency, canonical_label_vectors, diaster_signature, edge_automorphism_group
from isotemporal import classes, core
from reference_paths import reference_edge_sequences


def _finish_blocks(groups):
    return tuple(sorted(tuple(sorted(b)) for b in groups))


def reference_brute_blocks(g):
    """Canonical labelings grouped by the orbit of their temporal-path set."""
    reps = canonical_label_vectors(g)
    if len(reps) == 1:
        return ((reps[0],),)
    # 256-byte translate tables, one per edge automorphism
    tail = list(range(g.edge_count, 256))
    tables = [bytes(list(p) + tail) for p in edge_automorphism_group(g).elements]
    class_of_path_set: dict[frozenset[bytes], int] = {}
    buckets: list[list[tuple[int, ...]]] = []
    for vec in reps:
        seqs = frozenset(bytes(seq) for seq in reference_edge_sequences(TemporalNetwork(g, vec)))
        class_id = class_of_path_set.get(seqs)
        if class_id is None:
            class_id = len(buckets)
            buckets.append([])
            for table in tables:
                image = frozenset(seq.translate(table) for seq in seqs)
                class_of_path_set.setdefault(image, class_id)
        buckets[class_id].append(vec)
    return _finish_blocks(buckets)


def reference_swap_blocks(g):
    """Canonical labelings grouped by the orbit of their line-graph orientation."""
    reps = canonical_label_vectors(g)
    if len(reps) == 1:
        return ((reps[0],),)
    group = edge_automorphism_group(g).elements
    pairs = sorted(adjacency(g).pairs)
    lows, highs = [i for i, _ in pairs], [j for _, j in pairs]

    def key(vec: tuple[int, ...]) -> bytes:
        return bytes(map(operator.lt, map(vec.__getitem__, lows), map(vec.__getitem__, highs)))

    class_of_key: dict[bytes, int] = {}
    buckets: list[list[tuple[int, ...]]] = []
    for vec in reps:
        class_id = class_of_key.get(key(vec))
        if class_id is None:
            class_id = len(buckets)
            buckets.append([])
            for p in group:
                class_of_key.setdefault(key(tuple(map(vec.__getitem__, p))), class_id)
        buckets[class_id].append(vec)
    return _finish_blocks(buckets)


def signature_blocks(g):
    """Canonical labelings of a generated two-sided graph grouped by signature key."""
    buckets = {}
    for vec in canonical_label_vectors(g):
        buckets.setdefault(diaster_signature(TemporalNetwork(g, vec)).key, []).append(vec)
    return _finish_blocks(buckets.values())


def orientation(g, vec):
    """vec's orientation of the line graph: the arrows (a, b), a labeled first, as sorted and
    joined bytes."""
    return b"".join(sorted(bytes((a, b) if vec[a] < vec[b] else (b, a)) for a, b in adjacency(g).pairs))


def class_of_orientation(partition):
    """Every orientation of a canonical labeling -> its class's index in representative order:
    the images of each representative's orientation under the transversal."""
    g = partition.graph
    transversal, out = edge_automorphism_group(g).transversal, {}
    for i, rep in enumerate(partition.representatives):
        arrows = orientation(g, rep)
        for p in transversal:
            out[b"".join(sorted(bytes((p[a], p[b])) for a, b in zip(arrows[::2], arrows[1::2])))] = i
    return out


def blocks_of(partition):
    """The canonical labelings of each class of partition, in representative order."""
    g = partition.graph
    class_of = class_of_orientation(partition)
    blocks = [[] for _ in range(partition.class_count)]
    for vec in canonical_label_vectors(g):
        blocks[class_of[orientation(g, vec)]].append(vec)
    return tuple(map(tuple, blocks))


def altered_swap_route(monkeypatch, alter):
    """Replace the swap route by one whose canonical labelings fall into the classes
    alter(true partition) gives, a map from orientation to class id."""
    original = classes.swap_closure_classes

    def fake(g, limit=classes.DEFAULT_EDGE_LIMIT):
        true = original(g, limit)
        class_of = alter(true)
        grouped = {}
        for vec in canonical_label_vectors(g):
            grouped.setdefault(class_of[orientation(g, vec)], []).append(vec)
        blocks = sorted(grouped.values())
        return SimpleNamespace(
            graph=g,
            method=true.method,
            class_count=len(blocks),
            block_sizes=tuple(map(len, blocks)),
            representatives=tuple(block[0] for block in blocks),
        )

    monkeypatch.setattr(classes, "swap_closure_classes", fake)


def split_largest_class(partition):
    """class_of_orientation(partition) with the orientation of its largest class's
    representative moved to a class of its own."""
    largest = max(range(partition.class_count), key=partition.block_sizes.__getitem__)
    class_of = class_of_orientation(partition)
    class_of[orientation(partition.graph, partition.representatives[largest])] = partition.class_count
    return class_of


PARTITION_ROUTES = (classes.brute_force_classes, classes.swap_closure_classes)


def forget_graphs():
    """Empty the graph table and both routes' indexes of walked graphs, so that the next graph
    of each isomorphism class is a new object and is walked.  Graphs built before keep what
    they own, their partitions included."""
    core._file_graph.cache_clear()
    for route in PARTITION_ROUTES:
        route.walked.clear()
