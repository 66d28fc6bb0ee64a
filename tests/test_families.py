import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from isotemporal import (
    Beachball,
    Cycle,
    Daisy,
    Diaster,
    InvalidFamilyError,
    Pseudograph,
    NoSwapScriptError,
    Star,
    Stem,
    SwapStep,
    TemporalNetwork,
    adjacency,
    apply_swap_script,
    brute_force_classes,
    build_network,
    diaster_swap_permutation,
    edge_automorphism_group,
    enumerate_family_specs,
    generate,
    is_temporal_isomorphic,
    label_isomorphism_witness,
    parse_family_spec,
    spec_string,
)
from reference_classes import blocks_of, signature_blocks, signature_key
from reference_iso import _vertex_bijections, pseudographs, relabeled, swapped
from reference_transfer import check_transfer_conditions


# -- generators ---------------------------------------------------------------


def test_diaster_1_1_is_a_three_edge_path():
    g = generate(Diaster(1, 1))
    assert g.vertex_count == 4
    assert [pair for _, pair in g.edges] == [(0, 1), (0, 2), (1, 3)]


def test_daisy_2_is_one_vertex_two_loops():
    g = generate(Daisy(2))
    assert g.vertex_count == 1
    assert [pair for _, pair in g.edges] == [(0, 0), (0, 0)]


def test_stem_of_two_single_daisies():
    g = generate(Stem(Daisy(1), Daisy(1)))
    assert g.vertex_count == 2
    assert [pair for _, pair in g.edges] == [(0, 1), (0, 0), (1, 1)]


def test_every_generated_layout_is_pinned():
    # vertex count and edge pairs of every layout up to 14 edges, one-sided
    # diasters included: a layout change is an output change
    specs = enumerate_family_specs(14, include_cycles=True)
    specs += [Diaster(0, b) for b in range(1, 14)] + [Diaster(a, 0) for a in range(1, 14)]
    digest = hashlib.md5()
    for spec in specs:
        g = generate(spec)
        digest.update(f"{spec_string(spec)} {g.vertex_count} {g.edges}\n".encode())
    assert len(specs) == 824
    assert digest.hexdigest() == "bc7a64f4eca3f134354baf5b7a6f6adc"


def test_stem_of_stars_is_the_diaster():
    for a, b in [(1, 1), (1, 2), (2, 3)]:
        assert generate(Stem(Star(a), Star(b))) == generate(Diaster(a, b))


def test_generators_are_deterministic():
    for spec in (Diaster(2, 3), Beachball(3), Stem(Daisy(2), Beachball(1)), Cycle(6)):
        assert generate(spec) == generate(spec)


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidFamilyError):
        Diaster(0, 0)
    with pytest.raises(InvalidFamilyError):
        Star(0)
    with pytest.raises(InvalidFamilyError):
        Cycle(2)
    with pytest.raises(InvalidFamilyError) as exc:
        Stem(Cycle(3), Star(1))
    assert str(exc.value) == "stem sides must be star/beachball/daisy, got Cycle(n=3)"
    with pytest.raises(InvalidFamilyError) as exc:
        Daisy(0)
    assert str(exc.value) == "daisy parameter must be >= 1, got 0"


def test_spec_records_compare_by_type_and_fields():
    assert Star(3) == Star(3) and hash(Star(3)) == hash(Star(3))
    assert Star(3) != Daisy(3) and Beachball(3) != Star(3)
    assert Stem(Star(2), Daisy(2)) != Stem(Daisy(2), Star(2))
    assert Stem(Star(2), Daisy(2)) == parse_family_spec("stem:star:2/daisy:2")
    assert Diaster(1, 2) != Diaster(2, 1) and Diaster(1, 2) != (1, 2)
    assert len({Star(3), Daisy(3), Beachball(3), Star(3)}) == 3
    assert repr(Stem(Star(2), Beachball(1))) == "Stem(left=Star(k=2), right=Beachball(k=1))"
    assert repr(Diaster(0, 4)) == "Diaster(a=0, b=4)"


def test_spec_grammar_round_trip():
    for text in ["diaster:2,3", "star:4", "beachball:1", "daisy:7", "cycle:5", "stem:daisy:2/beachball:3"]:
        assert spec_string(parse_family_spec(text)) == text
    with pytest.raises(InvalidFamilyError):
        parse_family_spec("widget:3")
    with pytest.raises(InvalidFamilyError):
        parse_family_spec("diaster:1,x")
    with pytest.raises(InvalidFamilyError):
        parse_family_spec("stem:star:1")


@pytest.mark.parametrize(
    "text, reason",
    [
        ("diaster:1", "a diaster takes two comma-separated parameters"),
        ("diaster:", "a diaster takes two comma-separated parameters"),
        ("diaster:1,2,3", "a diaster takes two comma-separated parameters"),
        ("diaster:x,1", "parameters must be integers"),
        ("stem:star:1/", "a stem side is empty"),
        ("stem:/star:1", "a stem side is empty"),
        ("stem:star:1/star:1/star:1", "stem needs two '/'-separated sides"),
    ],
)
def test_malformed_spec_names_the_whole_spec_and_the_reason(text, reason):
    with pytest.raises(InvalidFamilyError) as exc:
        parse_family_spec(text)
    assert str(exc.value) == f"bad family spec {text!r}: {reason}"


def test_enumerate_family_specs_bounds_and_order():
    specs = enumerate_family_specs(4, include_cycles=True)
    strings = [spec_string(s) for s in specs]
    assert strings == sorted(strings)
    assert "diaster:1,2" in strings
    assert "cycle:4" in strings
    assert "diaster:0,3" not in strings
    from isotemporal.families import edge_count

    assert all(edge_count(s) <= 4 for s in specs)


# -- signatures ---------------------------------------------------------------


def test_signature_diaster_1_1_reflected():
    # central label 2, one left label below it, folded with its mirror
    n = build_network(generate(Diaster(1, 1)), [(0, 2), (1, 1), (2, 3)])
    assert signature_key(Diaster(1, 1), n.labeling) == (2, 0)
    assert signature_key(Diaster(1, 1), (2, 3, 1)) == (2, 0)
    assert signature_key(Diaster(1, 2), (2, 1, 3, 4)) == (2, 1)


def test_signature_with_lowest_central_label_forces_k_zero():
    g = generate(Diaster(4, 7))
    labels = [(0, 1)] + [(e, e + 1) for e in range(1, 12)]
    assert signature_key(Diaster(4, 7), build_network(g, labels).labeling) == (1, 0)


def test_feasible_signature_lattice_of_d_4_7_has_40_points():
    a, b = 4, 7
    t = a + b + 1
    points = {
        (c, k)
        for c in range(1, t + 1)
        for k in range(max(0, c - 1 - b), min(a, c - 1) + 1)
    }
    assert len(points) == 40


def test_signature_keys_enumerate_classes_of_small_diaster():
    keys = {signature_key(Diaster(1, 2), labels) for labels in itertools.permutations(range(1, 5))}
    assert len(keys) == 6


def test_signature_partition_matches_brute_force():
    # every generated diaster and stem structure with at most 8 edges
    for spec in enumerate_family_specs(8):
        if not isinstance(spec, (Diaster, Stem)):
            continue
        assert signature_blocks(spec) == blocks_of(brute_force_classes(generate(spec))), spec


def test_families_reads_nothing_from_the_partition_routes():
    # swap scripts follow the isomorphism witnesses, not a partition route;
    # families must not lean on isotemporal.classes for anything
    import ast
    from pathlib import Path

    import isotemporal.families

    tree = ast.parse(Path(isotemporal.families.__file__).read_text(encoding="utf-8"))
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert not {m for m in modules if m and m.split(".")[-1] == "classes"}


# -- swap scripts ----------------------------------------------------------------


def test_identical_labelings_give_empty_script():
    n = build_network(generate(Diaster(2, 2)), list(enumerate((1, 2, 3, 4, 5))))
    script = diaster_swap_permutation(n, n)
    assert len(script) == 0


def test_a_script_is_a_tuple_of_swap_steps():
    g = generate(Diaster(1, 2))
    n = build_network(g, [(0, 3), (1, 1), (2, 2), (3, 4)])
    m = build_network(g, [(0, 3), (1, 2), (2, 1), (3, 4)])
    script = diaster_swap_permutation(n, m)
    assert script == (SwapStep((1, 2), (1, 2)),) and type(script) is tuple
    assert repr(script[0]) == "SwapStep(labels=(1, 2), edges=(1, 2))"
    with pytest.raises(AttributeError):
        script[0].labels = (2, 3)
    assert apply_swap_script(n, list(script)) == m  # any sequence of steps replays


def test_crossing_swap_moves_a_label_between_sides():
    # central label 3: label 1 starts left, must end right; labels above
    # central stay put
    g = generate(Diaster(1, 2))
    n = build_network(g, [(0, 3), (1, 1), (2, 2), (3, 4)])
    m = build_network(g, [(0, 3), (1, 2), (2, 1), (3, 4)])
    script = diaster_swap_permutation(n, m)
    assert [(s.labels, s.edges) for s in script] == [((1, 2), (1, 2))]
    assert apply_swap_script(n, script) == m


def test_above_central_script_touches_only_high_labels():
    g = generate(Diaster(2, 2))
    n = build_network(g, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    m = build_network(g, [(0, 1), (1, 2), (2, 4), (3, 3), (4, 5)])
    script = diaster_swap_permutation(n, m)
    assert len(script) > 0
    assert all(min(step.labels) > 1 for step in script)
    assert label_isomorphism_witness(apply_swap_script(n, script), m) is not None


def test_script_steps_are_sequential_and_non_adjacent():
    g = generate(Stem(Daisy(2), Beachball(3)))
    adj = adjacency(g)
    n = build_network(g, [(0, 4), (1, 1), (2, 5), (3, 2), (4, 3), (5, 6)])
    m = build_network(g, [(0, 4), (1, 2), (2, 6), (3, 1), (4, 3), (5, 5)])
    script = diaster_swap_permutation(n, m)
    for step in script:
        assert step.labels[1] == step.labels[0] + 1
        assert not adj.adjacent(*step.edges)
    assert label_isomorphism_witness(apply_swap_script(n, script), m) is not None


def test_signature_mismatch_raises_no_script_error():
    g = generate(Diaster(1, 2))
    n = build_network(g, [(0, 1), (1, 2), (2, 3), (3, 4)])
    m = build_network(g, [(0, 2), (1, 1), (2, 3), (3, 4)])
    with pytest.raises(NoSwapScriptError):
        diaster_swap_permutation(n, m)


def test_cycle_gets_a_script():
    # scripts follow the temporal witness, so graphs outside the two-sided
    # layouts get them too
    g = generate(Cycle(5))
    n = build_network(g, list(enumerate((1, 3, 2, 4, 5))))
    m = build_network(g, list(enumerate((1, 3, 5, 2, 4))))
    script = diaster_swap_permutation(n, m)
    assert [(s.labels, s.edges) for s in script] == [((1, 2), (0, 2)), ((3, 4), (1, 3))]
    assert label_isomorphism_witness(apply_swap_script(n, script), m) is not None
    with pytest.raises(NoSwapScriptError):
        diaster_swap_permutation(n, build_network(g, list(enumerate((1, 2, 3, 4, 5)))))
    # on a 4-cycle these partners are reflections of n (through the midpoints
    # of edges 1 and 3, or through vertices 1 and 3), so the script is empty
    g = generate(Cycle(4))
    n = build_network(g, list(enumerate((1, 3, 2, 4))))
    for labels in ((2, 3, 1, 4), (3, 1, 4, 2)):
        m = build_network(g, list(enumerate(labels)))
        assert label_isomorphism_witness(n, m) is not None
        assert len(diaster_swap_permutation(n, m)) == 0


def test_reflection_case_uses_the_mirror_target():
    g = generate(Diaster(2, 2))
    n = build_network(g, [(0, 3), (1, 1), (2, 2), (3, 4), (4, 5)])
    m = build_network(g, [(0, 3), (1, 4), (2, 5), (3, 1), (4, 2)])
    script = diaster_swap_permutation(n, m)
    assert label_isomorphism_witness(apply_swap_script(n, script), m) is not None


@settings(max_examples=200, deadline=None)
@given(g=pseudographs(), rng=st.randoms(use_true_random=False))
@example(g=generate(Cycle(5)), rng=random.Random(0))
@example(g=Pseudograph.from_edges(4, [(0, 0), (0, 1), (0, 1), (2, 2), (2, 3), (2, 3)]), rng=random.Random(1))
def test_script_exists_iff_temporally_isomorphic(g, rng):
    # m is a random labeling, or a partner: legal swaps, then an automorphism
    # image; either way sometimes carried onto a renumbered copy of g
    t = g.edge_count
    a = rng.sample(range(1, t + 1), t)
    partner = rng.random() < 0.5
    b = rng.sample(range(1, t + 1), t)
    elements = edge_automorphism_group(g).elements
    if partner:
        s, p = swapped(g, a, rng), rng.choice(elements)
        for e in range(t):
            b[p[e]] = s[e]
    # the oracle: some automorphism image of b orients every adjacent pair as a does
    pairs = adjacency(g).pairs
    oracle = any(all((a[x] < a[z]) == (b[p[x]] < b[p[z]]) for x, z in pairs) for p in elements)
    h, eperm = relabeled(g, rng) if rng.random() < 0.5 else (g, range(t))
    image = [0] * t
    for e in range(t):
        image[eperm[e]] = b[e]
    n, m = TemporalNetwork(g, tuple(a)), TemporalNetwork(h, tuple(image))
    try:
        script = diaster_swap_permutation(n, m)
    except NoSwapScriptError:
        script = None
    assert (script is not None) == is_temporal_isomorphic(n, m) == oracle
    assert script is not None or not partner
    if script is not None:
        assert (len(script) == 0) == (label_isomorphism_witness(n, m) is not None)
        # independent replay: sequential labels on non-adjacent edges
        labeling = list(a)
        for step in script:
            (lo, hi), (e1, e2) = step.labels, step.edges
            assert hi == lo + 1 and (labeling[e1], labeling[e2]) == (lo, hi)
            assert (e1, e2) not in pairs and (e2, e1) not in pairs
            labeling[e1], labeling[e2] = hi, lo
        assert label_isomorphism_witness(TemporalNetwork(g, tuple(labeling)), m) is not None


# -- transfer conditions ---------------------------------------------------------


def test_transfer_holds_between_diaster_and_stem():
    report = check_transfer_conditions(
        generate(Diaster(2, 3)), generate(Stem(Daisy(2), Beachball(3)))
    )
    assert report.holds
    assert report.witness is not None
    assert report.failed_condition is None


def test_transfer_fails_between_path_and_triangle_of_loops():
    report = check_transfer_conditions(generate(Diaster(1, 1)), generate(Daisy(3)))
    assert not report.holds
    assert report.failed_condition == "edge-adjacency"


def test_transfer_holds_for_identity():
    g = generate(Diaster(1, 2))
    report = check_transfer_conditions(g, g)
    assert report.holds
    assert report.witness == tuple(range(g.edge_count))


def test_transfer_detects_group_mismatch():
    # D(2,2) and the mixed stem share edge adjacency but not automorphisms
    report = check_transfer_conditions(
        generate(Diaster(2, 2)), generate(Stem(Star(2), Daisy(2)))
    )
    assert not report.holds
    assert report.failed_condition == "edge-automorphisms"


def test_transfer_requires_equal_edge_counts():
    with pytest.raises(ValueError):
        check_transfer_conditions(generate(Star(2)), generate(Star(3)))


def test_transfer_between_diasters_and_all_stem_combinations():
    # Counts transfer from D(a,b) for every a != b combination and for
    # equal parameters with structurally equal sides.  Mixed-type a = b
    # stems lack the mirror symmetry, so their groups cannot match -- the
    # one exception is star/beachball at k = 1, where both sides are a
    # single pendant edge and the stem is the diaster itself.
    types = (Star, Beachball, Daisy)
    for a in range(1, 4):
        for b in range(1, 4):
            diaster = generate(Diaster(a, b))
            for left in types:
                for right in types:
                    report = check_transfer_conditions(diaster, generate(Stem(left(a), right(b))))
                    sides_equal = left is right or (
                        a == 1 and {left, right} == {Star, Beachball}
                    )
                    if a == b and not sides_equal:
                        assert not report.holds, (a, b, left, right)
                        assert report.failed_condition == "edge-automorphisms"
                    else:
                        assert report.holds, (a, b, left, right)


def test_transfer_witness_conjugates_the_groups():
    g = generate(Diaster(1, 2))
    h = generate(Stem(Beachball(1), Daisy(2)))
    report = check_transfer_conditions(g, h)
    assert report.holds
    phi = report.witness
    t = g.edge_count
    aut_g = set(edge_automorphism_group(g).elements)
    aut_h = set(edge_automorphism_group(h).elements)
    conjugated = set()
    for p in aut_g:
        image = [0] * t
        for e in range(t):
            image[phi[e]] = phi[p[e]]
        conjugated.add(tuple(image))
    assert conjugated == aut_h


def _transfer_by_vertex_bijections(g, h):
    # check_transfer_conditions as it was, on the line graphs without loops
    t = g.edge_count
    aut_g = edge_automorphism_group(g).elements
    aut_h = set(edge_automorphism_group(h).elements)

    def line(f):
        return Pseudograph.from_edges(f.edge_count, sorted(adjacency(f).pairs))

    found_adjacency = False
    for phi in _vertex_bijections(line(g), line(h)):
        found_adjacency = True
        if len(aut_g) != len(aut_h):
            break
        conjugated = set()
        for p in aut_g:
            image = [0] * t
            for e in range(t):
                image[phi[e]] = phi[p[e]]
            conjugated.add(tuple(image))
        if conjugated == aut_h:
            return True, phi, None
    return False, None, "edge-automorphisms" if found_adjacency else "edge-adjacency"


_K2_K2_LOOP_LOOP = Pseudograph.from_edges(6, [(0, 1), (2, 3), (4, 4), (5, 5)])


def test_transfer_binds_isolated_edges_in_every_way():
    # every edge is isolated in the line graph; only K2 onto K2 and loop
    # onto loop conjugates the groups, which an increasing binding misses
    h = Pseudograph.from_edges(6, [(0, 1), (4, 4), (2, 3), (5, 5)])
    report = check_transfer_conditions(_K2_K2_LOOP_LOOP, h)
    assert (report.holds, report.witness, report.failed_condition) == (True, (0, 2, 1, 3), None)
    assert _transfer_by_vertex_bijections(_K2_K2_LOOP_LOOP, h) == (True, (0, 2, 1, 3), None)


@settings(max_examples=90, deadline=None)
@given(g=pseudographs(), seed=st.randoms(use_true_random=False))
@example(g=_K2_K2_LOOP_LOOP, seed=random.Random(0))
def test_transfer_matches_the_vertex_bijection_search(g, seed):
    # h is g renumbered or another graph with as many edges
    if seed.random() < 0.5:
        h, _ = relabeled(g, seed)
    else:
        n = seed.randint(1, 6)
        h = Pseudograph.from_edges(n, [(seed.randrange(n), seed.randrange(n)) for _ in range(g.edge_count)])
    report = check_transfer_conditions(g, h)
    assert (report.holds, report.witness, report.failed_condition) == _transfer_by_vertex_bijections(g, h)
