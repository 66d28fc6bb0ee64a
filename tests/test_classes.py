import functools
import gc
import inspect
import itertools
import json
import math
import sys
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from isotemporal import (
    Beachball,
    ClassPartition,
    Cycle,
    Daisy,
    Diaster,
    Pseudograph,
    Star,
    Stem,
    TemporalNetwork,
    adjacency,
    brute_force_classes,
    build_network,
    canonical_label_vectors,
    canonical_labeling,
    compare_partitions,
    edge_automorphism_group,
    generate,
    is_temporal_isomorphic,
    parse_family_spec,
    swap_closure_classes,
    swap_neighbors,
    temporal_isomorphism_witness,
)
from isotemporal import classes, core
from isotemporal.classes import LimitExceededError
from isotemporal.iso import SearchLimitError
from isotemporal.cli import run
from isotemporal.families import enumerate_family_specs
from reference_census import census
from reference_classes import (
    altered_swap_route,
    blocks_of,
    class_of_orientation,
    forget_graphs,
    reference_brute_blocks,
    reference_swap_blocks,
    split_largest_class,
)
from reference_transfer import check_transfer_conditions


def pairwise_partition(g):
    """Independent oracle: union-find over canonical labelings with pairwise
    temporal-isomorphism tests, no bucketing of any kind."""
    reps = canonical_label_vectors(g)
    parent = list(range(len(reps)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if find(i) != find(j) and is_temporal_isomorphic(
                TemporalNetwork(g, reps[i]), TemporalNetwork(g, reps[j])
            ):
                parent[find(j)] = find(i)
    blocks = {}
    for i, vec in enumerate(reps):
        blocks.setdefault(find(i), []).append(vec)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


def test_star_has_one_class():
    assert brute_force_classes(generate(Star(3))).class_count == 1


def test_diaster_1_1_has_three_classes():
    p = brute_force_classes(generate(Diaster(1, 1)))
    assert p.class_count == 3
    assert sum(p.block_sizes) == 3


def test_diaster_1_2_has_six_classes():
    p = brute_force_classes(generate(Diaster(1, 2)))
    assert p.class_count == 6
    assert sum(p.block_sizes) == 12


def test_brute_force_agrees_with_pairwise_union_find():
    for spec in (
        Diaster(1, 1),
        Diaster(1, 2),
        Diaster(2, 2),
        Beachball(3),
        Daisy(3),
        Star(4),
        Cycle(4),
        Cycle(5),
        Stem(Daisy(1), Beachball(2)),
        Stem(Daisy(2), Daisy(2)),
    ):
        g = generate(spec)
        assert blocks_of(brute_force_classes(g)) == pairwise_partition(g), spec


def test_partition_blocks_cover_canonical_labelings():
    for spec in (Diaster(1, 2), Cycle(4), Stem(Daisy(1), Star(2))):
        g = generate(spec)
        for partition in (brute_force_classes(g), swap_closure_classes(g)):
            blocks = blocks_of(partition)
            seen = [vec for block in blocks for vec in block]
            assert sorted(seen) == sorted(canonical_label_vectors(g))
            assert len(set(seen)) == len(seen)
            assert tuple(map(len, blocks)) == partition.block_sizes
            assert tuple(block[0] for block in blocks) == partition.representatives


# -- swap moves ----------------------------------------------------------------


def test_daisy_has_no_swap_moves():
    for k in (2, 3, 4):
        g = generate(Daisy(k))
        n = build_network(g, [(e, e + 1) for e in range(k)])
        assert swap_neighbors(n) == []


def test_diaster_1_1_has_no_swap_moves():
    n = build_network(generate(Diaster(1, 1)), [(0, 2), (1, 1), (2, 3)])
    assert swap_neighbors(n) == []


def test_five_cycle_swap_produces_the_partner_labeling():
    g = generate(Cycle(5))
    n = build_network(g, list(enumerate((1, 3, 2, 4, 5))))
    neighbors = swap_neighbors(n)
    assert (2, 3, 1, 4, 5) in [m.labeling for m in neighbors]


def test_swap_moves_only_touch_non_adjacent_consecutive_labels():
    from isotemporal import adjacency

    g = generate(Cycle(6))
    n = build_network(g, list(enumerate((4, 1, 5, 2, 6, 3))))
    adj = adjacency(g)
    for m in swap_neighbors(n):
        changed = [e for e in range(6) if m.labeling[e] != n.labeling[e]]
        assert len(changed) == 2
        e1, e2 = changed
        assert abs(n.labeling[e1] - n.labeling[e2]) == 1
        assert not adj.adjacent(e1, e2)


# -- swap closure ----------------------------------------------------------------


def test_swap_closure_diaster_1_1():
    p = swap_closure_classes(generate(Diaster(1, 1)))
    assert p.class_count == 3


def test_swap_closure_equals_brute_for_diaster_1_2():
    g = generate(Diaster(1, 2))
    assert blocks_of(swap_closure_classes(g)) == blocks_of(brute_force_classes(g))


def test_swap_closure_beachball_2_single_block():
    p = swap_closure_classes(generate(Beachball(2)))
    assert p.class_count == 1


# -- comparisons ----------------------------------------------------------------


def test_compare_partitions_equal_for_two_sided_structures():
    for spec in (Diaster(2, 2), Stem(Daisy(2), Beachball(3)), Star(1)):
        report = compare_partitions(generate(spec))
        assert report.equal
        assert report.witness is None


def test_compare_partitions_reports_a_split_class(monkeypatch):
    g = generate(Cycle(5))
    block = max(blocks_of(brute_force_classes(g)), key=len)
    assert len(block) == 8
    altered_swap_route(monkeypatch, split_largest_class)
    report = compare_partitions(g)
    assert report.equal is False
    # block[1] has block[0]'s orientation, so no split of orientations parts the two
    assert report.witness == (block[0], block[2])
    assert is_temporal_isomorphic(*(TemporalNetwork(g, vec) for vec in report.witness))
    assert report.temporal == brute_force_classes(g)
    assert report.swap.class_count == report.temporal.class_count + 1


def test_compare_partitions_rejects_merged_classes(monkeypatch):
    g = generate(Cycle(5))
    altered_swap_route(monkeypatch, lambda p: {key: max(c - 1, 0) for key, c in class_of_orientation(p).items()})
    with pytest.raises(core.IsotemporalError, match="does not refine"):
        compare_partitions(g)


@pytest.mark.parametrize(
    "route, alter, reason",
    [
        ("swap_closure_classes", lambda c: c[:-1], "swap closure does not refine temporal isomorphism"),
        (
            "brute_force_classes",
            lambda c: c[:-2] + ((c[-2][0], c[-2][1] + c[-1][1]),),
            "a swap-closure class matches no temporal-isomorphism class",
        ),
        ("brute_force_classes", lambda c: ((c[0][0], c[0][1] + 1),) + c[1:], "the routes give a class two different sizes"),
        ("swap_closure_classes", lambda c: c + c[:1], "two swap-closure classes share a representative"),
    ],
)
def test_classes_both_exits_one_with_a_reason_on_a_faulty_route(monkeypatch, capsys, route, alter, reason):
    # a route that drops, merges, resizes or repeats a class is an internal error, never a traceback
    original = getattr(classes, route)

    def faulty(g, limit=classes.DEFAULT_EDGE_LIMIT):
        p = original(g, limit)
        return ClassPartition(g, p.method, alter(p.classes))

    monkeypatch.setattr(classes, route, faulty)
    code = run(["classes", "--family", "cycle:5", "--method", "both"])
    assert (code, *capsys.readouterr()) == (1, "", f"error: internal error: {reason}\n")


def test_classes_both_exits_two_when_the_routes_differ(monkeypatch, capsys):
    altered_swap_route(monkeypatch, split_largest_class)
    code = run(["classes", "--family", "cycle:5", "--method", "both", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["equal"] is False
    assert [p["count"] for p in payload["partitions"]] == [3, 4]


def test_two_sided_partitions_coincide_through_eight_edges():
    from isotemporal.families import enumerate_family_specs

    for spec in enumerate_family_specs(8):
        if not isinstance(spec, (Diaster, Stem)):
            continue
        g = generate(spec)
        assert blocks_of(swap_closure_classes(g)) == blocks_of(brute_force_classes(g)), spec


def test_partitions_coincide_on_every_pseudograph_of_at_most_six_edges():
    # the census holds one graph per isomorphism class, loops and parallel edges included
    layers = census(6)
    assert [len(layer) for layer in layers] == [2, 7, 23, 79, 274, 1003]
    count, buckets = {}, {}
    for g in (g for layer in layers for g in layer):
        report = compare_partitions(g, 6)
        assert report.equal, g
        count[g] = report.temporal.class_count
        degrees = tuple(sorted(map(len, adjacency(g).neighbors)))
        buckets.setdefault((g.edge_count, degrees, edge_automorphism_group(g).order), []).append(g)
    # the transfer theorem: graphs whose edge adjacencies and automorphisms correspond have
    # equal counts; the conditions are sufficient, not necessary
    pairs = met = equal_unmet = 0
    for kept in buckets.values():
        for g, h in itertools.combinations(kept, 2):
            pairs += 1
            if check_transfer_conditions(g, h).holds:
                met += 1
                assert count[g] == count[h], (g, h)
            else:
                equal_unmet += count[g] == count[h]
    assert (pairs, met, equal_unmet) == (4870, 4361, 112)


def test_compare_partitions_single_edge():
    report = compare_partitions(generate(Star(1)))
    assert report.equal
    assert report.temporal.class_count == 1
    assert report.swap.class_count == 1


def test_block_sizes_sum_to_free_action_count():
    for spec in (Diaster(1, 2), Diaster(2, 2), Cycle(5), Stem(Beachball(2), Daisy(1))):
        g = generate(spec)
        expected = math.factorial(g.edge_count) // edge_automorphism_group(g).order
        for partition in (brute_force_classes(g), swap_closure_classes(g)):
            assert sum(partition.block_sizes) == expected


def swap_bfs_partition(g):
    """Reference swap closure: breadth-first search over canonical labelings,
    one swap_neighbors move then re-canonicalisation per step."""
    unvisited = set(canonical_label_vectors(g))
    blocks = []
    for seed in canonical_label_vectors(g):
        if seed not in unvisited:
            continue
        unvisited.discard(seed)
        block, frontier = [], [seed]
        while frontier:
            vec = frontier.pop()
            block.append(vec)
            for neighbor in swap_neighbors(TemporalNetwork(g, vec)):
                cvec = canonical_labeling(neighbor).labeling
                if cvec in unvisited:
                    unvisited.discard(cvec)
                    frontier.append(cvec)
        blocks.append(block)
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@st.composite
def pseudographs(draw):
    """Pseudographs on at most 5 vertices and 1..6 edges, loops and parallel
    edges included; half are closed under the mirror v -> n-1-v, so
    automorphisms that merge swap orbits are common."""
    n = draw(st.integers(min_value=1, max_value=5))
    vertex = st.integers(min_value=0, max_value=n - 1)
    if draw(st.booleans()):
        half = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
        pairs = half + [(n - 1 - u, n - 1 - v) for u, v in half]
    else:
        pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=6))
    return Pseudograph.from_edges(n, pairs)


@settings(max_examples=200, deadline=None)
@given(g=pseudographs())
@example(g=generate(Cycle(5)))
@example(g=generate(Cycle(6)))
def test_swap_closure_matches_swap_bfs_and_brute_force(g):
    blocks = blocks_of(swap_closure_classes(g))
    assert blocks == swap_bfs_partition(g)
    assert blocks == blocks_of(brute_force_classes(g))


@st.composite
def copied_components(draw):
    """A pseudograph from the strategy above, or 2-4 disjoint copies of a
    small component (loops and parallel edges included), sometimes with one
    more edge anywhere: twin classes of pairwise non-adjacent edges are
    common.  At most 8 edges."""
    if draw(st.booleans()):
        return draw(pseudographs())
    k = draw(st.integers(1, 3))
    vertex = st.integers(0, k - 1)
    component = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
    copies = draw(st.integers(2, min(4, 8 // len(component))))
    pairs = [(u + c * k, v + c * k) for c in range(copies) for u, v in component]
    n = copies * k + draw(st.integers(0, 1))
    if len(pairs) < 8 and draw(st.booleans()):
        pairs.append(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    return Pseudograph.from_edges(n, pairs)


@settings(max_examples=150, deadline=None)
@given(g=copied_components())
@example(g=generate(Cycle(4)))
@example(g=Pseudograph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 5)]))  # C4, pendants at 0 and 2
@example(g=Pseudograph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]))  # K_{2,3}
@example(g=generate(Cycle(6)))
# parallel edges, a pendant and a loop: the least graph whose partition needs the brute walk's
# extensions keyed by the walks at both ends of the edge, each end recorded; with one end's walks
# as the key, or one end recorded, the 2-path over the pair ends at one vertex
@example(g=Pseudograph.from_edges(4, [(0, 0), (1, 2), (1, 2), (1, 3)]))
def test_partition_routes_match_indexing_over_every_element(g):
    # the package indexes orbit images over the transversal only; sizes and
    # representatives come from the walk, the blocks from canonical labelings
    # grouped through the partition's final orientations
    routes = ((brute_force_classes, reference_brute_blocks), (swap_closure_classes, reference_swap_blocks))
    for partition, blocks in ((route(g), reference(g)) for route, reference in routes):
        assert blocks_of(partition) == blocks
        assert partition.block_sizes == tuple(map(len, blocks))
        assert partition.representatives == tuple(block[0] for block in blocks)


def test_partition_routes_match_indexing_over_every_element_on_family_specs():
    for spec in enumerate_family_specs(7, include_cycles=True):
        g = generate(spec)
        assert blocks_of(brute_force_classes(g)) == reference_brute_blocks(g), spec
        assert blocks_of(swap_closure_classes(g)) == reference_swap_blocks(g), spec


def test_brute_route_reads_no_line_graph_orientation(monkeypatch):
    # The brute-force route must rest on path sets alone, never on edge
    # adjacency, the line-graph orientation the swap route keys on.
    specs = ("cycle:6", "diaster:2,3", "stem:daisy:2/beachball:2")
    forget_graphs()  # new graphs, walked below
    graphs = [generate(parse_family_spec(s)) for s in specs]
    expected = [reference_brute_blocks(g) for g in graphs]

    def forbidden(graph):
        raise AssertionError("the brute-force route read edge adjacency")

    original = core.adjacency
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "isotemporal" and getattr(module, "adjacency", None) is original:
            monkeypatch.setattr(module, "adjacency", forbidden)
    for spec, g, blocks in zip(specs, graphs, expected):
        assert blocks_of(brute_force_classes(g)) == blocks, spec


def burnside_cycle_count(n):
    """Classes of C_n by Burnside over acyclic orientations of its line graph (also C_n):
    (1/2n)[sum over d | n, d >= 3, of phi(n/d)(2^d - 2), plus 2 phi(n/2) + (n/2) 2^(n/2) for even n]."""
    def phi(m):
        return sum(math.gcd(k, m) == 1 for k in range(1, m + 1))

    total = sum(phi(n // d) * (2**d - 2) for d in range(3, n + 1) if n % d == 0)
    if n % 2 == 0:
        total += 2 * phi(n // 2) + n // 2 * 2 ** (n // 2)
    assert total % (2 * n) == 0
    return total // (2 * n)


def test_cycle_class_counts_match_the_burnside_closed_form():
    assert [burnside_cycle_count(n) for n in range(3, 11)] == [1, 3, 3, 8, 9, 21, 29, 61]
    for n in range(3, 11):
        g = generate(Cycle(n))
        expected = burnside_cycle_count(n)
        assert brute_force_classes(g, limit=10).class_count == expected, n
        assert swap_closure_classes(g, limit=10).class_count == expected, n


def test_partitions_are_deterministic():
    g = generate(Diaster(2, 2))
    assert brute_force_classes(g) == brute_force_classes(g)
    assert swap_closure_classes(g) == swap_closure_classes(g)
    first = blocks_of(swap_closure_classes(g))
    again = blocks_of(swap_closure_classes(g))
    assert first == again


def test_limit_guard_names_the_bound():
    g = generate(Diaster(4, 4))
    with pytest.raises(LimitExceededError) as exc:
        brute_force_classes(g, limit=8)
    assert "8" in str(exc.value)


def test_hard_cap_is_never_exceeded():
    g = generate(Diaster(5, 5))
    with pytest.raises(LimitExceededError):
        swap_closure_classes(g, limit=99)


ROUTES = (brute_force_classes, swap_closure_classes)


def summary(p):
    return p.method, p.class_count, p.representatives, p.block_sizes


def renumber(g, vertex_map, edge_order):
    """g with vertex v renamed vertex_map[v] and new edge i the old edge edge_order[i]."""
    pairs = [g.endpoints(e) for e in edge_order]
    return Pseudograph.from_edges(g.vertex_count, [(vertex_map[u], vertex_map[v]) for u, v in pairs])


# the first edge map from the renumbered graph sends its twin loops 1 and 2 to 2 and 0; carried as
# found, the arrow between them would point from the larger edge id to the smaller
TWIN_LOOPS = Pseudograph.from_edges(3, [(0, 0), (0, 2), (2, 2), (0, 2)])
TWIN_LOOPS_RENUMBERED = Pseudograph.from_edges(3, [(0, 2), (2, 2), (0, 0), (0, 2)])


def fresh(g):
    """An equal graph object that owns nothing yet."""
    return Pseudograph(g.vertices, g.edges)


def test_a_carried_partition_keeps_each_twin_class_in_order(monkeypatch):
    g, renumbered = fresh(TWIN_LOOPS), fresh(TWIN_LOOPS_RENUMBERED)
    walks = []
    monkeypatch.setattr(classes, "_walk", lambda *args, walk=classes._walk: walks.append(args[0]) or walk(*args))
    forget_graphs()
    for route in ROUTES:
        route(renumbered)
        carried = route(g)
        assert summary(carried) == summary(route.__wrapped__(g))
        assert carried.graph == g
    assert walks == [renumbered, g] * 2  # per route: the first walk, then the fresh one


@functools.cache
def small_graphs():
    """The census of at most 5 edges, then every family spec of at most 8 edges."""
    family = [generate(spec) for spec in enumerate_family_specs(8, include_cycles=True)]
    return [g for layer in census(6)[:5] for g in layer] + family  # the census other tests build


@st.composite
def renumbered_pairs(draw):
    g = small_graphs()[draw(st.integers(0, len(small_graphs()) - 1))]
    vertex_map = draw(st.permutations(range(g.vertex_count)))
    return g, renumber(g, vertex_map, draw(st.permutations(range(g.edge_count))))


@settings(max_examples=300, deadline=None)
@given(pair=renumbered_pairs())
@example(pair=(TWIN_LOOPS_RENUMBERED, TWIN_LOOPS))
@example(pair=(generate(Diaster(3, 4)), generate(Diaster(4, 3))))
def test_a_renumbered_graph_carries_the_partition_a_walk_gives(pair):
    g, renumbered = map(fresh, pair)
    forget_graphs()
    for route in ROUTES:
        route(g)
        with mock.patch.object(classes, "_walk", wraps=classes._walk) as walk:
            carried = route(renumbered)
        assert walk.call_count == 0
        assert summary(carried) == summary(route.__wrapped__(renumbered))


def test_each_cached_route_keeps_its_public_signature():
    # the wrapper's own (g, limit), not the walked route's (g) behind __wrapped__
    for route in ROUTES:
        assert str(inspect.signature(route)) == "(g: 'Pseudograph', limit=8) -> 'ClassPartition'"
        assert str(inspect.signature(route.__wrapped__)) == "(g: 'Pseudograph') -> 'ClassPartition'"
        assert route.__name__ in ("brute_force_classes", "swap_closure_classes") and route.__doc__


def test_the_partition_cache_adds_no_failure_mode(monkeypatch):
    # an isomorphism search past its limit is a miss: the graph is walked, never refused
    forget_graphs()
    g, h = generate(Diaster(3, 4)), generate(Diaster(4, 3))
    searches = []

    def over_the_limit(*args):
        searches.append(args[1])
        raise SearchLimitError("over the limit")
        yield

    monkeypatch.setattr(classes, "_edge_maps", over_the_limit)
    for route in ROUTES:
        assert summary(route(g)) == summary(route.__wrapped__(g))
        assert summary(route(h)) == summary(route.__wrapped__(h))
        assert route(h) is route(h) and route(g) is route(g)  # met again: no search
    assert searches == [h, h]


def test_a_dropped_graph_takes_what_it_owns_with_it():
    # everything derived from a graph lives on the graph, and the walked-graph index holds it weakly
    g = Pseudograph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 3)])
    ref = weakref.ref(g)
    n, m = TemporalNetwork(g, (1, 2, 3, 4, 5, 6)), TemporalNetwork(g, (6, 5, 4, 3, 2, 1))
    assert compare_partitions(g).equal
    assert canonical_labeling(n).graph is g and temporal_isomorphism_witness(n, m) is None
    del g, n, m
    gc.collect()
    assert ref() is None
    for route in ROUTES:
        assert all(graph() is not None for bucket in route.walked.values() for graph in bucket)
