import itertools
import math
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
    canonical_label_vectors,
    canonical_labeling,
    edge_automorphism_group,
    edge_isomorphisms,
    generate,
    is_temporal_isomorphic,
    label_isomorphism_witness,
    temporal_isomorphism_witness,
)
from isotemporal import iso
from isotemporal.iso import SearchLimitError
from isotemporal.families import enumerate_family_specs
from isotemporal.paths import edge_sequences
from reference_census import census
from reference_iso import pseudographs, reference_isomorphisms, relabeled, swapped
from reference_transfer import membership


def _net(spec, labels):
    g = generate(spec)
    return build_network(g, list(enumerate(labels)))


def test_single_edge_has_two_isomorphisms():
    g = generate(Star(1))
    isos = edge_isomorphisms(g, g)
    assert len(isos) == 2
    assert all(iso.edge_map == (0,) for iso in isos)


def test_beachball_2_has_four_isomorphisms():
    g = generate(Beachball(2))
    isos = edge_isomorphisms(g, g)
    assert len(isos) == 4
    assert len({iso.vertex_map for iso in isos}) == 2
    assert {iso.edge_map for iso in isos} == {(0, 1), (1, 0)}


def test_diasters_are_unordered():
    isos = edge_isomorphisms(generate(Diaster(1, 2)), generate(Diaster(2, 1)))
    assert isos
    iso = isos[0]
    # every mapped edge lands on an edge with the image endpoints
    g, h = generate(Diaster(1, 2)), generate(Diaster(2, 1))
    for e in range(g.edge_count):
        u, v = g.endpoints(e)
        assert set(h.endpoints(iso.edge_map[e])) == {iso.vertex_map[u], iso.vertex_map[v]}


def test_group_orders_for_two_sided_families():
    assert edge_automorphism_group(generate(Diaster(2, 3))).order == 12
    assert edge_automorphism_group(generate(Diaster(2, 2))).order == 8
    assert edge_automorphism_group(generate(Beachball(3))).order == 6
    assert edge_automorphism_group(generate(Daisy(3))).order == 6
    assert edge_automorphism_group(generate(Star(3))).order == 6


def test_group_order_matches_factorial_products():
    for a in range(1, 5):
        for b in range(a, 5):
            order = edge_automorphism_group(generate(Diaster(a, b))).order
            expected = 2 * math.factorial(a) ** 2 if a == b else math.factorial(a) * math.factorial(b)
            assert order == expected, (a, b)


def test_group_axioms_hold_extensionally():
    for spec in (Diaster(1, 2), Beachball(3), Daisy(2), Cycle(4)):
        group = edge_automorphism_group(generate(spec))
        elements = set(group.elements)
        t = len(group.elements[0])
        assert tuple(range(t)) in elements
        for p in elements:
            inverse = [0] * t
            for i, img in enumerate(p):
                inverse[img] = i
            assert tuple(inverse) in elements
            for q in elements:
                assert tuple(p[q[i]] for i in range(t)) in elements


def test_search_limit_guard(monkeypatch):
    # 11 vertices: the 10! pairs of the star exceed a node budget of 20,
    # while its automorphism group is one twin class and no big search
    g = generate(Star(10))
    group = edge_automorphism_group(g)
    assert group.twin_classes == (tuple(range(10)),)
    assert group.transversal == (tuple(range(10)),)
    assert group.order == math.factorial(10)
    monkeypatch.setattr(iso, "SEARCH_LIMIT", 20)
    with pytest.raises(SearchLimitError, match="20 nodes"):
        edge_isomorphisms(g, g)


def test_automorphism_search_counts_its_nodes(monkeypatch):
    # the bound is on the nodes the search visits, not on n!
    g = generate(Cycle(6))
    search = edge_automorphism_group.__wrapped__  # past the cache
    assert search(g).order == 12
    monkeypatch.setattr(iso, "SEARCH_LIMIT", 20)
    with pytest.raises(SearchLimitError, match="20 nodes"):
        search(g)


def search_only_group(g):
    """Twin classes by a pinned search for every pair of one kind, with no neighbourhood
    test, then the transversal: the automorphisms increasing on every twin class."""
    t, kind, budget = g.edge_count, g.edge_kinds, [iso.SEARCH_LIMIT]

    def twins(e, f):
        pinned = [(x,) for x in range(t)]
        pinned[e], pinned[f] = (f,), (e,)
        return kind[e] == kind[f] and next(iso._edge_maps(g, g, pinned, budget, None), None) is not None

    classes = []
    for e in range(t):
        home = next((c for c in classes if twins(c[0], e)), None)
        if home is None:
            classes.append([e])
        else:
            home.append(e)
    place = {e: (kind[e], i, len(c)) for c in classes for i, e in enumerate(c)}
    increasing = [place[e] for e in range(t)]
    maps = iso._edge_maps(g, g, iso._candidates(increasing, increasing), budget, None)
    return tuple(map(tuple, classes)), tuple(sorted({emap for _, emap in maps}))


def test_twin_neighbourhood_test_keeps_the_group():
    graphs = [g for layer in census(6) for g in layer]
    graphs += [generate(spec) for spec in enumerate_family_specs(10, include_cycles=True)]
    for g in graphs:
        group = edge_automorphism_group.__wrapped__(g)  # past the cache
        assert (group.twin_classes, group.transversal) == search_only_group(g), g


def test_cycles_run_no_pinned_twin_search(monkeypatch):
    # C3 and C4 have twins; from C5 on, no two edges share their neighbours outside the pair
    searches, search = [], iso._edge_maps

    def recorded(g, h, candidates, *rest):
        searches.append(all(len(c) == 1 for c in candidates))  # pinned: one image per edge
        return search(g, h, candidates, *rest)

    monkeypatch.setattr(iso, "_edge_maps", recorded)
    for n in range(5, 11):
        searches.clear()
        assert edge_automorphism_group.__wrapped__(generate(Cycle(n))).order == 2 * n
        assert searches == [False], n  # the transversal search alone


@settings(max_examples=150, deadline=None)
@given(g=pseudographs(), seed=st.randoms(use_true_random=False))
@example(g=generate(Cycle(3)), seed=random.Random(0))
@example(g=Pseudograph.from_edges(6, [(0, 1), (2, 3), (4, 5)]), seed=random.Random(0))
# edge 0 with a non-trivial stabilizer, its T-orbit all edges or a proper subset
@example(g=generate(Cycle(6)), seed=random.Random(0))
@example(g=Pseudograph.from_edges(6, [(0, 4), (0, 1), (1, 2), (2, 3), (3, 0), (2, 5)]), seed=random.Random(0))  # C4, pendants at 0 and 2
@example(g=Pseudograph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]), seed=random.Random(0))  # K_{2,3}
@example(g=Pseudograph.from_edges(6, [(2, 5)] + [(u, v) for u in (0, 1) for v in (2, 3, 4)]), seed=random.Random(0))  # K_{2,3}, a pendant
def test_automorphism_group_matches_the_vertex_bijection_search(g, seed):
    reference = {i.edge_map for i in reference_isomorphisms(g, g)}
    group = edge_automorphism_group(g)
    assert set(group.elements) == reference
    assert group.elements == tuple(sorted(group.elements))
    assert group.order == len(group.elements)
    t = g.edge_count
    contains = membership(group)
    assert all(contains(p) == (p in reference) for p in itertools.permutations(range(t)))
    minimal = [
        vec
        for vec in itertools.permutations(range(1, t + 1))
        if all(vec <= tuple(vec[p[e]] for e in range(t)) for p in reference)
    ]
    assert canonical_label_vectors(g) == tuple(minimal)
    labels = list(range(1, t + 1))
    seed.shuffle(labels)
    n = TemporalNetwork(g, tuple(labels))
    assert canonical_labeling(n).labeling == min(tuple(labels[p[e]] for e in range(t)) for p in reference)


def _first(pairs, keep):
    return next((p for p in pairs if keep(p)), None)


@settings(max_examples=120, deadline=None)
@given(g=pseudographs(), seed=st.randoms(use_true_random=False))
@example(g=Pseudograph.from_edges(4, [(0, 1), (0, 1), (2, 3), (2, 3)]), seed=random.Random(0))
@example(g=Pseudograph.from_edges(7, [(0, 1), (2, 3), (4, 4), (5, 5)]), seed=random.Random(1))
def test_edge_driven_search_matches_the_vertex_bijection_search(g, seed):
    # h is g renumbered (labels carried over, then maybe swapped or
    # redrawn), g itself, or another graph of the same size
    t = g.edge_count
    labels = list(range(1, t + 1))
    seed.shuffle(labels)
    mode = seed.randrange(4)
    if mode == 3:
        h = Pseudograph.from_edges(
            g.vertex_count, [(seed.randrange(g.vertex_count), seed.randrange(g.vertex_count)) for _ in range(t)]
        )
        image = list(range(1, t + 1))
        seed.shuffle(image)
    else:
        h, eperm = relabeled(g, seed) if mode else (g, list(range(t)))
        image = [0] * t
        for e in range(t):
            image[eperm[e]] = labels[e]
        if seed.random() < 0.5:
            image = swapped(h, image, seed)
        elif seed.random() < 0.3:
            seed.shuffle(image)
    n, m = TemporalNetwork(g, tuple(labels)), TemporalNetwork(h, tuple(image))
    reference = reference_isomorphisms(g, h)

    isolated = [v for v in g.vertices if not g.incidence[v]]

    def increasing_on_isolated(p):
        images = [p.vertex_map[v] for v in isolated]
        return images == sorted(images)

    assert list(edge_isomorphisms(g, h)) == [p for p in reference if increasing_on_isolated(p)]

    def carries_labels(p):
        return all(m.labeling[p.edge_map[e]] == n.labeling[e] for e in range(t))

    assert label_isomorphism_witness(n, m) == _first(reference, carries_labels)

    temporal = None
    if reference:
        paths_n, paths_m = edge_sequences(n), edge_sequences(m)
        if len(paths_n) == len(paths_m):
            temporal = _first(reference, lambda p: all(tuple(p.edge_map[e] for e in seq) in paths_m for seq in paths_n))
    assert temporal_isomorphism_witness(n, m) == temporal


def test_search_sends_loops_only_to_loops():
    # pinned images that would send an edge onto a loop (or back) would
    # collapse its two endpoints into one vertex
    g = Pseudograph.from_edges(3, [(0, 1), (2, 2)])
    assert list(iso._edge_maps(g, g, [(1,), (0,)], [iso.SEARCH_LIMIT], None)) == []
    both_orientations = [((0, 1, 2), (0, 1)), ((1, 0, 2), (0, 1))]
    assert list(iso._edge_maps(g, g, [(0,), (1,)], [iso.SEARCH_LIMIT], None)) == both_orientations


def test_isolated_vertices_are_bound_in_increasing_order():
    # a file may declare thousands of vertices that no edge touches
    g = Pseudograph.from_edges(10_000, [(0, 1), (1, 2)])
    h = Pseudograph.from_edges(10_000, [(5, 7), (9_999, 5)])
    pairs = edge_isomorphisms(g, h)
    assert [p.edge_map for p in pairs] == [(0, 1), (1, 0)]
    free = [w for w in range(10_000) if w not in (5, 7, 9_999)]
    for p in pairs:
        assert [p.vertex_map[v] for v in range(3, 10_000)] == free


# -- label isomorphism -------------------------------------------------------


def test_network_is_label_isomorphic_to_itself():
    n = _net(Diaster(1, 2), (2, 1, 3, 4))
    assert label_isomorphism_witness(n, n) is not None


def test_diaster_1_1_reflection_is_label_isomorphism():
    # (left, central, right) = (1, 2, 3) versus its mirror (3, 2, 1)
    n = _net(Diaster(1, 1), (2, 1, 3))
    m = _net(Diaster(1, 1), (2, 3, 1))
    assert label_isomorphism_witness(n, m) is not None


def test_diaster_1_1_swapped_central_is_not_label_isomorphic():
    n = _net(Diaster(1, 1), (2, 1, 3))
    m = _net(Diaster(1, 1), (1, 2, 3))
    assert label_isomorphism_witness(n, m) is None


# -- temporal isomorphism ----------------------------------------------------


def test_five_cycle_label_swap_is_temporal_isomorphism():
    n = _net(Cycle(5), (1, 3, 2, 4, 5))
    m = _net(Cycle(5), (2, 3, 1, 4, 5))
    assert is_temporal_isomorphic(n, m)
    assert label_isomorphism_witness(n, m) is None


def test_network_is_temporally_isomorphic_to_itself():
    for spec, labels in [(Diaster(2, 2), (1, 2, 3, 4, 5)), (Daisy(3), (2, 3, 1))]:
        n = _net(spec, labels)
        assert is_temporal_isomorphic(n, n)


def test_different_central_labels_are_not_temporally_isomorphic():
    n = _net(Diaster(1, 1), (1, 2, 3))
    m = _net(Diaster(1, 1), (2, 1, 3))
    assert not is_temporal_isomorphic(n, m)


def test_temporal_witness_maps_paths_onto_paths():
    n = _net(Cycle(5), (1, 3, 2, 4, 5))
    m = _net(Cycle(5), (2, 3, 1, 4, 5))
    iso = temporal_isomorphism_witness(n, m)
    assert iso is not None
    paths_m = edge_sequences(m)
    assert {tuple(iso.edge_map[e] for e in seq) for seq in edge_sequences(n)} == paths_m


def test_witnesses_between_different_graphs_carry_labels_and_paths():
    # D(1,2) and D(2,1) are isomorphic but not equal; n2 is n with the
    # labels 1 and 2 swapped on non-adjacent edges
    g, h = generate(Diaster(1, 2)), generate(Diaster(2, 1))
    n = TemporalNetwork(g, (3, 2, 1, 4))
    n2 = TemporalNetwork(g, (3, 1, 2, 4))
    iso = edge_isomorphisms(g, h)[-1]
    image = [0] * 4
    for e in range(4):
        image[iso.edge_map[e]] = n2.labeling[e]
    m = TemporalNetwork(h, tuple(image))

    label = label_isomorphism_witness(n2, m)
    assert label is not None
    assert all(m.labeling[label.edge_map[e]] == n2.labeling[e] for e in range(4))
    assert label_isomorphism_witness(n, m) is None

    for source in (n, n2):
        temporal = temporal_isomorphism_witness(source, m)
        assert temporal is not None
        assert {tuple(temporal.edge_map[e] for e in seq) for seq in edge_sequences(source)} == edge_sequences(m)
        back = temporal_isomorphism_witness(m, source)
        assert {tuple(back.edge_map[e] for e in seq) for seq in edge_sequences(m)} == edge_sequences(source)


def test_label_isomorphism_implies_temporal_isomorphism_exhaustively():
    for spec in (Diaster(1, 1), Beachball(2), Daisy(2), Star(3)):
        g = generate(spec)
        t = g.edge_count
        nets = [TemporalNetwork(g, p) for p in itertools.permutations(range(1, t + 1))]
        for n in nets:
            for m in nets:
                if label_isomorphism_witness(n, m) is not None:
                    assert is_temporal_isomorphic(n, m)


# -- canonical labelings -----------------------------------------------------


def test_canonical_labeling_examples():
    # D(1,1) displayed (left, central, right) = (3, 2, 1) -> (1, 2, 3)
    n = _net(Diaster(1, 1), (2, 3, 1))
    assert canonical_labeling(n).labeling == (2, 1, 3)
    # asymmetric graph: trivial group leaves the labeling unchanged
    m = _net(Diaster(1, 2), (2, 1, 3, 4))
    assert edge_automorphism_group(generate(Diaster(1, 2))).order == 2
    s = _net(Star(3), (2, 3, 1))
    assert canonical_labeling(s).labeling == (1, 2, 3)


def test_canonical_labeling_of_trivial_group_is_identity_map():
    # spider with leg lengths 1, 2, 3: no symmetry at all
    from isotemporal import Pseudograph

    g = Pseudograph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert edge_automorphism_group(g).order == 1
    n = TemporalNetwork(g, (3, 1, 4, 2, 6, 5))
    assert canonical_labeling(n).labeling == (3, 1, 4, 2, 6, 5)


_corpus = [Diaster(1, 1), Diaster(1, 2), Diaster(2, 2), Beachball(3), Daisy(2), Star(4), Cycle(4)]


@given(
    spec_index=st.integers(min_value=0, max_value=len(_corpus) - 1),
    seed=st.randoms(use_true_random=False),
)
def test_canonical_labeling_is_idempotent_and_orbit_invariant(spec_index, seed):
    g = generate(_corpus[spec_index])
    labels = list(range(1, g.edge_count + 1))
    seed.shuffle(labels)
    n = TemporalNetwork(g, tuple(labels))
    canon = canonical_labeling(n)
    assert canonical_labeling(canon) == canon
    assert label_isomorphism_witness(n, canon) is not None


def test_two_networks_label_isomorphic_iff_same_canonical_form():
    g = generate(Diaster(1, 2))
    nets = [TemporalNetwork(g, p) for p in itertools.permutations(range(1, 5))]
    for n in nets[:8]:
        for m in nets[:8]:
            same = canonical_labeling(n).labeling == canonical_labeling(m).labeling
            assert same == (label_isomorphism_witness(n, m) is not None)


def _labelings_up_to_isomorphism(g):
    # the automorphism group acts freely on labelings: t! / |Aut| orbits
    t, order = g.edge_count, edge_automorphism_group(g).order
    assert math.factorial(t) % order == 0
    return math.factorial(t) // order


def test_count_distinct_labelings():
    assert _labelings_up_to_isomorphism(generate(Diaster(1, 1))) == 3
    assert _labelings_up_to_isomorphism(generate(Diaster(1, 2))) == 12
    assert _labelings_up_to_isomorphism(generate(Star(1))) == 1


def test_count_matches_canonical_enumeration():
    from isotemporal import enumerate_family_specs

    corpus = enumerate_family_specs(8) + [Cycle(n) for n in range(3, 8)]
    for spec in corpus:
        g = generate(spec)
        reps = canonical_label_vectors(g)
        assert len(reps) == _labelings_up_to_isomorphism(g), spec
        assert len(set(reps)) == len(reps)
    g = generate(Diaster(3, 4))
    for vec in canonical_label_vectors(g)[:20]:
        assert canonical_labeling(TemporalNetwork(g, vec)).labeling == vec
