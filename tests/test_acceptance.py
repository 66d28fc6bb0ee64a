"""Acceptance suite: every criterion runs at its stated tolerance (exact
integer equality throughout) and prints one PASS line when it holds."""

import math
import random
import time
from pathlib import Path

from isotemporal import (
    Beachball,
    Daisy,
    Diaster,
    Star,
    Stem,
    TemporalNetwork,
    adjacency,
    brute_force_classes,
    canonical_label_vectors,
    diaster_formula,
    diaster_swap_permutation,
    edge_automorphism_group,
    generate,
    is_temporal_isomorphic,
    label_isomorphism_witness,
    lattice_count,
    parse_network,
    spec_string,
    swap_closure_classes,
    swap_neighbors,
)
from isotemporal.families import edge_count, enumerate_family_specs
from reference_classes import blocks_of, signature_key

FIXTURES = Path(__file__).parent / "fixtures"

SIDE_TYPES = (Star, Beachball, Daisy)


def _diaster_grid(max_edges):
    return [
        Diaster(a, b)
        for a in range(1, max_edges)
        for b in range(a, max_edges - a)
    ]


def _stem_grid(max_edges):
    return [
        Stem(lt(a), rt(b))
        for lt in SIDE_TYPES
        for rt in SIDE_TYPES
        for a in range(1, max_edges - 1)
        for b in range(1, max_edges - a)
    ]


def _refinement_corpus():
    from isotemporal import Cycle

    return enumerate_family_specs(8) + [Cycle(n) for n in range(3, 8)]


def test_criterion_1_diaster_formula_oracle_agreement():
    start = time.perf_counter()
    frozen = {
        (1, 1): 3,
        (1, 2): 6,
        (2, 2): 6,
        (1, 3): 8,
        (2, 3): 12,
        (3, 3): 10,
        (3, 4): 20,
        (2, 5): 18,
    }
    grid = _diaster_grid(8)
    assert all(Diaster(a, b) in grid for a, b in frozen)
    for spec in grid:
        g = generate(spec)
        brute = brute_force_classes(g).class_count
        swap = swap_closure_classes(g).class_count
        formula = diaster_formula(spec.a, spec.b).value
        lattice = lattice_count(spec.a, spec.b).value
        assert brute == swap == formula == lattice, spec
        if (spec.a, spec.b) in frozen:
            assert brute == frozen[(spec.a, spec.b)], spec
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 diaster formula/oracle agreement ({elapsed:.1f}s): PASS")


def test_criterion_2_stem_transfer_counts():
    for spec in _stem_grid(7):
        a, b = spec.left.k, spec.right.k
        if a == b:
            continue
        brute = brute_force_classes(generate(spec)).class_count
        assert brute == a * b + a + b + 1, spec_string(spec)
    for side_type in SIDE_TYPES:
        for a in range(1, 4):
            spec = Stem(side_type(a), side_type(a))
            brute = brute_force_classes(generate(spec)).class_count
            assert brute == (a * a + 3 * a + 2) // 2, spec_string(spec)
    print("\nACCEPTANCE 2 stem transfer counts: PASS")


def test_criterion_3_trivial_families_single_class():
    for side_type in SIDE_TYPES:
        for k in range(1, 8):
            spec = side_type(k)
            assert brute_force_classes(generate(spec)).class_count == 1, spec_string(spec)
    print("\nACCEPTANCE 3 single-class families: PASS")


def test_criterion_4_swap_closure_refines_temporal_isomorphism():
    violations = 0
    for spec in _refinement_corpus():
        g = generate(spec)
        brute = brute_force_classes(g)
        swap = swap_closure_classes(g)
        temporal_index = {vec: i for i, block in enumerate(blocks_of(brute)) for vec in block}
        for block in blocks_of(swap):
            if len({temporal_index[vec] for vec in block}) != 1:
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE 4 swap closure refines temporal isomorphism: PASS")


def test_criterion_5_swap_script_construction_replay():
    rng = random.Random(1729)
    corpus = [
        spec
        for spec in _diaster_grid(7) + _stem_grid(7)
        if edge_count(spec) <= 7
    ]
    failures = 0
    for _ in range(500):
        spec = rng.choice(corpus)
        g = generate(spec)
        t = g.edge_count
        n = TemporalNetwork(g, tuple(rng.sample(range(1, t + 1), t)))
        key = signature_key(spec, n.labeling)
        while True:
            m = TemporalNetwork(g, tuple(rng.sample(range(1, t + 1), t)))
            if signature_key(spec, m.labeling) == key:
                break
        assert is_temporal_isomorphic(n, m)
        script = diaster_swap_permutation(n, m)
        # independent replay: every step must be a sequential transposition
        # on non-adjacent edges, and the result label-isomorphic to m
        adj = adjacency(g)
        labeling = list(n.labeling)
        ok = True
        for step in script:
            lo, hi = step.labels
            e1, e2 = step.edges
            ok &= hi == lo + 1
            ok &= not adj.adjacent(e1, e2)
            ok &= labeling[e1] == lo and labeling[e2] == hi
            labeling[e1], labeling[e2] = labeling[e2], labeling[e1]
        ok &= label_isomorphism_witness(TemporalNetwork(g, tuple(labeling)), m) is not None
        if not ok:
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 5 swap-script construction (500 pairs): PASS")


def test_criterion_7_block_sizes_sum_to_free_action_count():
    for spec in _refinement_corpus():
        g = generate(spec)
        expected = math.factorial(g.edge_count) // edge_automorphism_group(g).order
        for partition in (brute_force_classes(g), swap_closure_classes(g)):
            assert sum(partition.block_sizes) == expected, spec_string(spec)
    d12 = brute_force_classes(generate(Diaster(1, 2)))
    assert sum(d12.block_sizes) == 12
    print("\nACCEPTANCE 7 block-size accounting: PASS")


def test_criterion_8_bundled_five_cycle_fixtures():
    n = parse_network((FIXTURES / "cycle5_a.net").read_text(encoding="utf-8"))
    m = parse_network((FIXTURES / "cycle5_b.net").read_text(encoding="utf-8"))
    assert is_temporal_isomorphic(n, m)
    e1, e2 = n.edge_with_label(1), n.edge_with_label(2)
    expected = list(n.labeling)
    expected[e1], expected[e2] = expected[e2], expected[e1]
    swapped = [net for net in swap_neighbors(n) if net.labeling == tuple(expected)]
    assert len(swapped) == 1, "the (1,2) move must be legal on the fixture"
    assert label_isomorphism_witness(swapped[0], m) is not None
    print("\nACCEPTANCE 8 bundled five-cycle fixtures: PASS")


def test_criterion_9_temporal_isomorphism_is_an_equivalence():
    corpus = enumerate_family_specs(5, include_cycles=True)
    for spec in corpus:
        g = generate(spec)
        reps = canonical_label_vectors(g)
        nets = [TemporalNetwork(g, vec) for vec in reps]
        size = len(nets)
        matrix = [
            [is_temporal_isomorphic(nets[i], nets[j]) for j in range(size)]
            for i in range(size)
        ]
        for i in range(size):
            assert matrix[i][i]
            for j in range(size):
                assert matrix[i][j] == matrix[j][i]
                for k in range(size):
                    if matrix[i][j] and matrix[j][k]:
                        assert matrix[i][k]
    print("\nACCEPTANCE 9 equivalence-relation laws: PASS")


def test_verify_harness_agrees_through_six_edges():
    from isotemporal.cli import verify

    rows = verify(6)
    assert rows
    assert all(row.verdict in ("AGREE", "AGREE-partial") for row in rows)
    print("\nACCEPTANCE verify(6) harness: PASS")
