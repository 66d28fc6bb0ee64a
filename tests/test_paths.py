import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from isotemporal import (
    Beachball,
    Cycle,
    Daisy,
    Diaster,
    Pseudograph,
    Star,
    TemporalNetwork,
    build_network,
    generate,
    max_temporal_path_length,
    temporal_paths,
)
from isotemporal import classes, edge_automorphism_group, paths
from isotemporal.paths import PathLimitError, edge_sequences
from reference_iso import pseudographs
from reference_paths import reference_edge_sequences


def _net(spec, labels):
    g = generate(spec)
    return build_network(g, list(enumerate(labels)))


def test_single_edge_has_exactly_one_path():
    n = _net(Star(1), [1])
    found = temporal_paths(n)
    assert len(found) == 1
    (path,) = found
    assert path.edge_ids == (0,)
    assert path.length == 1


def test_diaster_1_1_paths_hand_enumerated():
    # left=1, central=2, right=3; edge order is (central, left, right)
    n = _net(Diaster(1, 1), [2, 1, 3])
    got = {(p.edge_ids, p.trace) for p in temporal_paths(n)}
    expected = {
        ((0,), (0, 1)),
        ((1,), (0, 2)),
        ((2,), (1, 3)),
        ((1, 0), (2, 0, 1)),
        ((0, 2), (0, 1, 3)),
        ((1, 0, 2), (2, 0, 1, 3)),
    }
    assert got == expected


def test_daisy_2_paths_chain_through_shared_vertex():
    n = _net(Daisy(2), [1, 2])
    got = {(p.edge_ids, p.trace) for p in temporal_paths(n)}
    assert got == {
        ((0,), (0, 0)),
        ((1,), (0, 0)),
        ((0, 1), (0, 0, 0)),
    }


def test_parallel_edge_paths_are_distinct_by_edge_id():
    n = _net(Beachball(2), [1, 2])
    assert edge_sequences(n) == {(0,), (1,), (0, 1)}


def test_max_length_single_edge():
    assert max_temporal_path_length(_net(Star(1), [1])) == 1


def test_max_length_consecutive_cycle():
    n = _net(Cycle(5), [1, 2, 3, 4, 5])
    assert max_temporal_path_length(n) == 5


def test_diaster_paths_never_exceed_three_edges():
    # exhaustive over every labeling of small diasters
    for spec in (Diaster(1, 1), Diaster(1, 2), Diaster(2, 2)):
        g = generate(spec)
        for labels in itertools.permutations(range(1, g.edge_count + 1)):
            assert max_temporal_path_length(TemporalNetwork(g, labels)) <= 3


def test_paths_strictly_increase_and_traces_chain():
    for spec, labels in [
        (Diaster(2, 3), (3, 1, 6, 2, 5, 4)),
        (Beachball(3), (2, 3, 1)),
        (Daisy(3), (3, 1, 2)),
        (Cycle(5), (2, 5, 1, 4, 3)),
    ]:
        n = _net(spec, labels)
        for path in temporal_paths(n):
            seq_labels = [n.labeling[e] for e in path.edge_ids]
            assert seq_labels == sorted(seq_labels)
            assert len(set(seq_labels)) == len(seq_labels)
            assert len(path.trace) == len(path.edge_ids) + 1
            for i, e in enumerate(path.edge_ids):
                assert set(n.graph.endpoints(e)) == {path.trace[i], path.trace[i + 1]}


def test_subpath_closure():
    n = _net(Diaster(2, 2), (3, 1, 2, 4, 5))
    seqs = edge_sequences(n)
    for seq in seqs:
        for start in range(len(seq)):
            for stop in range(start + 1, len(seq) + 1):
                assert seq[start:stop] in seqs


def test_path_limit_guard():
    # 17 loops on one vertex: 2**17 - 1 paths, more than PATH_LIMIT
    n = _net(Daisy(17), range(1, 18))
    with pytest.raises(PathLimitError):
        temporal_paths(n)


@st.composite
def labeled_pseudographs(draw):
    """Networks on at most 4 vertices and 1..7 edges, loops and parallel edges included."""
    n = draw(st.integers(min_value=1, max_value=4))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7))
    labels = draw(st.permutations(range(1, len(pairs) + 1)))
    return TemporalNetwork(Pseudograph.from_edges(n, pairs), tuple(labels))


def oracle_paths(network):
    """Walk every vertex trace with strictly increasing labels; keep the
    smallest trace per edge sequence."""
    best = {}

    def walk(seq, trace, last):
        if seq:
            best[seq] = min(best.get(seq, trace), trace)
        for eid, (u, v) in network.graph.edges:
            lab = network.labeling[eid]
            for here, there in ((u, v), (v, u)):
                if lab > last and here == trace[-1]:
                    walk(seq + (eid,), trace + (there,), lab)

    for v in network.graph.vertices:
        walk((), (v,), 0)
    return set(best.items())


@settings(max_examples=200, deadline=None)
@given(n=labeled_pseudographs())
def test_temporal_paths_match_the_trace_walking_oracle(n):
    expected = oracle_paths(n)
    assert {(p.edge_ids, p.trace) for p in temporal_paths(n)} == expected
    assert edge_sequences(n) == {seq for seq, _ in expected}


@settings(max_examples=300, deadline=None)
@given(n=labeled_pseudographs())
def test_label_order_sweep_matches_the_stack_dfs(n):
    assert edge_sequences(n) == reference_edge_sequences(n)


@settings(max_examples=80, deadline=None)
@given(g=pseudographs(), rng=st.randoms(use_true_random=False))
@example(g=Pseudograph.from_edges(4, [(0, 1), (2, 3)]), rng=random.Random(0))  # both orders: one path set
@example(g=Pseudograph.from_edges(3, [(0, 1), (1, 2)]), rng=random.Random(0))  # one edge set, two path sets
def test_shared_sweep_matches_the_stack_dfs_on_every_labeling(g, rng):
    # the brute walk shares states between label prefixes with one path set; under T, its
    # final path sets must be those of every class-sorted labeling, whatever the edge order
    pairs = [pair for _, pair in g.edges]
    rng.shuffle(pairs)
    g = Pseudograph.from_edges(g.vertex_count, pairs)
    group = edge_automorphism_group(g)
    step, names, _ = paths._path_step(g)
    walked = classes._walk(g, group, step).items()
    tables = [bytes([*p, *range(g.edge_count, 256)]) for p in group.transversal]
    path_sets = [[names[b] for b in paths._bits(state)] for state, _ in walked]
    closure = {frozenset(seq.translate(table) for seq in path_set) for path_set in path_sets for table in tables}
    twins = [c for c in group.twin_classes if len(c) > 1]
    sorted_labelings = [
        vec
        for vec in itertools.permutations(range(1, g.edge_count + 1))
        if all(list(map(vec.__getitem__, c)) == sorted(map(vec.__getitem__, c)) for c in twins)
    ]
    assert sum(ways for _, ways in walked) == len(sorted_labelings)
    assert closure == {
        frozenset(map(bytes, reference_edge_sequences(TemporalNetwork(g, vec)))) for vec in sorted_labelings
    }


def test_path_limit_is_exact(monkeypatch):
    # the limit bounds distinct sequences, not walks: three parallel edges
    # give 7 sequences but 14 walks, one from each end
    monkeypatch.setattr(paths, "PATH_LIMIT", 7)
    assert len(edge_sequences(_net(Daisy(3), [1, 2, 3]))) == 7
    assert len(edge_sequences(_net(Beachball(3), [1, 2, 3]))) == 7
    with pytest.raises(PathLimitError, match="more than 7"):
        edge_sequences(_net(Daisy(4), [1, 2, 3, 4]))
    with pytest.raises(PathLimitError, match="more than 7"):
        edge_sequences(_net(Beachball(4), [1, 2, 3, 4]))


def test_path_limit_refuses_once_the_walks_pass_twice_the_limit(monkeypatch):
    # an increasing path of k edges has k(k+1)/2 temporal paths.  At 45 edges only the count of
    # distinct sequences passes the limit; at 70 the walks pass twice the limit, which already
    # proves too many sequences, so the sweep refuses there and reads no later edge
    class Counted(Pseudograph):
        def endpoints(self, edge_id):
            read.add(edge_id)
            return super().endpoints(edge_id)

    monkeypatch.setattr(paths, "PATH_LIMIT", 1000)
    for k, refused, all_read in ((44, False, True), (45, True, True), (70, True, False)):
        read = set()
        net = TemporalNetwork(Counted.from_edges(k + 1, [(i, i + 1) for i in range(k)]), range(1, k + 1))
        if refused:
            with pytest.raises(PathLimitError) as exc:
                edge_sequences(net)
            assert str(exc.value) == "more than 1000 temporal paths"
        else:
            assert len(edge_sequences(net)) == 990
        assert (len(read) == k) == all_read, k
