import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from isotemporal import (
    Beachball,
    Cycle,
    Daisy,
    Diaster,
    ParseError,
    Pseudograph,
    Star,
    Stem,
    TemporalNetwork,
    adjacency,
    build_network,
    compare_partitions,
    edge_automorphism_group,
    generate,
    parse_network,
    serialize_network,
    temporal_paths,
)
from isotemporal.classes import brute_force_classes
from isotemporal.formulas import family_count
from isotemporal.iso import label_isomorphism_witness
from isotemporal.core import (
    VERTEX_LIMIT,
    DuplicateLabelError,
    EdgeIdError,
    LabelRangeError,
    MissingLabelError,
    UnknownEdgeError,
    UnknownVertexError,
)
from isotemporal.iso import is_label_isomorphic, is_temporal_isomorphic


def test_smallest_network():
    g = Pseudograph.from_edges(2, [(0, 1)])
    n = build_network(g, [(0, 1)])
    assert n.labeling == (1,)
    assert n.edge_with_label(1) == 0


def test_two_loop_daisy_is_valid():
    g = generate(Daisy(2))
    n = build_network(g, [(0, 1), (1, 2)])
    assert g.vertex_count == 1
    assert g.is_loop(0) and g.is_loop(1)
    assert n.labeling == (1, 2)


def test_label_outside_range():
    g = Pseudograph.from_edges(2, [(0, 1)])
    with pytest.raises(LabelRangeError):
        build_network(g, [(0, 2)])
    with pytest.raises(LabelRangeError) as exc:
        build_network(generate(Beachball(2)), [(0, 1), (1, 7)])
    assert str(exc.value) == "edge 1 label 7 outside 1..2"


def test_duplicate_label():
    g = generate(Beachball(2))
    with pytest.raises(DuplicateLabelError):
        build_network(g, [(0, 1), (1, 1)])


def test_edge_labeled_twice():
    g = generate(Beachball(2))
    with pytest.raises(DuplicateLabelError):
        build_network(g, [(0, 1), (0, 2)])


def test_missing_label():
    g = generate(Beachball(2))
    with pytest.raises(MissingLabelError):
        build_network(g, [(0, 1)])


def test_unknown_edge():
    g = Pseudograph.from_edges(2, [(0, 1)])
    with pytest.raises(UnknownEdgeError):
        build_network(g, [(5, 1)])


def test_endpoint_not_in_vertex_list():
    with pytest.raises(UnknownVertexError):
        Pseudograph.from_edges(2, [(0, 7)])


def test_edge_id_gap():
    with pytest.raises(EdgeIdError):
        Pseudograph((0, 1), ((0, (0, 1)), (2, (0, 1))))


def test_endpoint_pairs_are_normalized():
    g = Pseudograph.from_edges(3, [(2, 0)])
    assert g.endpoints(0) == (0, 2)


# -- records -----------------------------------------------------------------


def test_equal_pseudographs_are_equal_hash_equal_and_keep_their_cached_views():
    g = Pseudograph.from_edges(3, [(1, 0), (1, 2), (2, 2)])
    h = Pseudograph([0, 1, 2], [(0, (0, 1)), (1, (2, 1)), (2, (2, 2))])
    assert g is not h and g == h and hash(g) == hash(h) == hash((g.vertices, g.edges))
    assert g != Pseudograph.from_edges(3, [(0, 1), (1, 2)]) and g != (g.vertices, g.edges)
    assert repr(g) == "Pseudograph(vertices=(0, 1, 2), edges=((0, (0, 1)), (1, (1, 2)), (2, (2, 2))))"
    assert g.incidence == h.incidence == {0: (0,), 1: (0, 1), 2: (1, 2)}
    assert g.incidence is g.incidence  # cached on first use
    assert g.parallel_classes == {(0, 1): (0,), (1, 2): (1,), (2, 2): (2,)}
    assert g.edge_order == (0, 1, 2) and g.edge_kinds == h.edge_kinds
    assert adjacency(g).neighbors == ((1,), (0, 2), (1,)) and adjacency(h) == adjacency(g)
    assert adjacency(g) is adjacency(g) and adjacency(h) is not adjacency(g)  # each graph owns its own
    n, m = TemporalNetwork(g, [2, 1, 3]), TemporalNetwork(h, (2, 1, 3))
    assert n == m and hash(n) == hash(m) and n.labeling == (2, 1, 3) and n.edge_with_label(1) == 1


def test_assigning_or_deleting_a_record_field_raises():
    g = generate(Diaster(1, 2))
    n = build_network(g, [(0, 3), (1, 1), (2, 2), (3, 4)])
    records = [
        g,
        n,
        adjacency(g),
        edge_automorphism_group(g),
        brute_force_classes(g),
        compare_partitions(g),
        label_isomorphism_witness(n, n),
        next(iter(temporal_paths(n))),
        family_count(Diaster(1, 2)),
        Star(2),
        Cycle(4),
        Diaster(1, 2),
        Stem(Star(1), Daisy(1)),
    ]
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
            with pytest.raises(AttributeError):
                delattr(record, field)
    with pytest.raises(AttributeError):
        g.label = "other"  # no new attributes either
    assert g.edge_kinds == generate(Diaster(1, 2)).edge_kinds


def test_records_copy_and_pickle_to_equal_records():
    g = generate(Diaster(2, 1))
    n = build_network(g, [(0, 3), (1, 1), (2, 2), (3, 4)])
    for record in (g, n, adjacency(g), edge_automorphism_group(g), Star(3), Diaster(0, 2)):
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record) and hash(clone) == hash(record)
    assert pickle.loads(pickle.dumps(g)).incidence == g.incidence


# -- adjacency ---------------------------------------------------------------


def test_beachball_parallel_edges_are_adjacent():
    adj = adjacency(generate(Beachball(2)))
    assert adj.adjacent(0, 1)


def test_diaster_peripheral_edges_non_adjacent_across_sides():
    adj = adjacency(generate(Diaster(1, 1)))
    # edge 1 (left) and edge 2 (right) share no vertex; both touch central 0
    assert not adj.adjacent(1, 2)
    assert adj.adjacent(0, 1)
    assert adj.adjacent(0, 2)


def test_daisy_loops_are_mutually_adjacent():
    adj = adjacency(generate(Daisy(2)))
    assert adj.adjacent(0, 1)
    assert not adj.adjacent(0, 0)


def test_adjacency_is_symmetric_and_matches_shared_endpoints():
    for spec in (Diaster(2, 3), Star(4), Beachball(3), Daisy(3)):
        g = generate(spec)
        adj = adjacency(g)
        for i in range(g.edge_count):
            for j in range(g.edge_count):
                assert adj.adjacent(i, j) == adj.adjacent(j, i)
                if i != j:
                    shared = set(g.endpoints(i)) & set(g.endpoints(j))
                    assert adj.adjacent(i, j) == bool(shared)


# -- file format -------------------------------------------------------------


def test_parse_single_loop():
    n = parse_network("vertices: 1\nedges: 1\n0 0 0 1\n")
    assert n.graph.vertex_count == 1
    assert n.graph.is_loop(0)
    assert n.labeling == (1,)


def test_parse_five_cycle_fixture():
    text = (
        "vertices: 5\nedges: 5\n"
        "0 0 1 1\n1 1 2 2\n2 2 3 3\n3 3 4 4\n4 0 4 5\n"
    )
    n = parse_network(text)
    assert n.graph.vertex_count == 5
    assert n.graph.edge_count == 5
    assert sorted(n.labeling) == [1, 2, 3, 4, 5]


def test_parse_ignores_comments_and_blank_lines():
    text = "# header\n\nvertices: 2\nedges: 1\n# edge table\n0 0 1 1\n\n"
    n = parse_network(text)
    assert n.graph.edge_count == 1


def test_parse_duplicate_label_is_semantic_error():
    text = "vertices: 2\nedges: 2\n0 0 1 1\n1 0 1 1\n"
    with pytest.raises(DuplicateLabelError):
        parse_network(text)


def test_parse_syntax_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_network("vertices: 2\nedges: one\n")
    assert exc.value.line_no == 2
    with pytest.raises(ParseError) as exc:
        parse_network("vertices: 2\nedges: 1\n0 0 1\n")
    assert exc.value.line_no == 3
    with pytest.raises(ParseError):
        parse_network("vertices: 2\nedges: 1\n1 0 1 1\n")
    with pytest.raises(ParseError):
        parse_network("vertices: 2\nedges: 2\n0 0 1 1\n")


def test_parse_rejects_vertex_counts_above_the_limit():
    # refused at the header, before any per-vertex structure is built
    with pytest.raises(ParseError) as exc:
        parse_network("vertices: 100000000\nedges: 1\n0 0 1 1\n")
    assert exc.value.line_no == 1
    assert str(exc.value) == f"line 1: 'vertices' count 100000000 exceeds the limit {VERTEX_LIMIT}"
    with pytest.raises(ParseError) as exc:
        parse_network(f"# header\n\nvertices: {VERTEX_LIMIT + 1}\nedges: 0\n")
    assert exc.value.line_no == 3
    n = parse_network(f"vertices: {VERTEX_LIMIT}\nedges: 1\n0 0 1 1\n")
    assert n.graph.vertex_count == VERTEX_LIMIT


def test_parsing_one_text_twice_gives_one_graph():
    text = "vertices: 3\nedges: 3\n0 0 1 2\n1 1 2 1\n2 2 2 3\n"
    n, m = parse_network(text), parse_network(text.replace(" 2\n1 1 2 1", " 1\n1 1 2 2"))
    assert n.graph is m.graph
    assert n.labeling != m.labeling
    assert parse_network(text).graph is n.graph
    # the graph is keyed by its vertex count too
    assert parse_network(text.replace("vertices: 3", "vertices: 4")).graph is not n.graph


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("vertices: 2\nedges: 1\n0 0 2 1\n", UnknownVertexError, "edge 0 endpoint pair (0, 2) not in vertex list"),
        ("vertices: 2\nedges: 1\n0 0 1 2\n", LabelRangeError, "edge 0 label 2 outside 1..1"),
        ("vertices: 2\nedges: 1\n0 0 x 1\n", ParseError, "line 3: edge fields must be integers"),
    ],
)
def test_a_parse_error_is_raised_on_every_call(text, error, message):
    # a failed parse leaves nothing behind that a second call could answer from
    for _ in range(3):
        with pytest.raises(error) as exc:
            parse_network(text)
        assert str(exc.value) == message


def test_pairs_in_another_order_give_a_distinct_graph_that_answers_alike():
    # the same graph with its edges renumbered and each pair's endpoints swapped
    pairs, labels, order = [(0, 1), (1, 2), (2, 2), (2, 0), (0, 1)], [3, 1, 5, 2, 4], [4, 2, 0, 3, 1]
    text = "vertices: 3\nedges: 5\n" + "".join(f"{e} {u} {v} {labels[e]}\n" for e, (u, v) in enumerate(pairs))
    moved = "vertices: 3\nedges: 5\n" + "".join(
        f"{i} {pairs[e][1]} {pairs[e][0]} {labels[e]}\n" for i, e in enumerate(order)
    )
    n, m = parse_network(text), parse_network(moved)
    assert n.graph is not m.graph and n.graph != m.graph
    assert [m.graph.endpoints(i) for i in range(5)] == [n.graph.endpoints(e) for e in order]
    assert is_temporal_isomorphic(n, m) and is_label_isomorphic(n, m)
    assert len(temporal_paths(n)) == len(temporal_paths(m))
    # representatives name edges by id, so only the multiset of class sizes carries over
    assert sorted(brute_force_classes(n.graph).block_sizes) == sorted(brute_force_classes(m.graph).block_sizes)


def test_round_trip_identity():
    g = generate(Diaster(2, 3))
    n = build_network(g, [(e, e + 1) for e in range(6)])
    assert parse_network(serialize_network(n)) == n


_specs = [Diaster(1, 2), Star(3), Beachball(3), Daisy(2), Diaster(2, 2)]


@given(
    spec_index=st.integers(min_value=0, max_value=len(_specs) - 1),
    seed=st.randoms(use_true_random=False),
)
def test_round_trip_property(spec_index, seed):
    g = generate(_specs[spec_index])
    labels = list(range(1, g.edge_count + 1))
    seed.shuffle(labels)
    n = build_network(g, list(enumerate(labels)))
    text = serialize_network(n)
    assert parse_network(text) == n
    assert text.endswith("\n") and "#" not in text
