import pytest

from isotemporal import (
    Beachball,
    Cycle,
    Daisy,
    Diaster,
    InvalidFamilyError,
    Star,
    Stem,
    diaster_formula,
    family_count,
    lattice_count,
    stem_formula,
)
from isotemporal.formulas import (
    BASIS_EQUAL,
    BASIS_LATTICE,
    BASIS_NOT_COVERED,
    BASIS_SINGLE,
    BASIS_TRANSFER,
    BASIS_UNEQUAL,
    CountResult,
)


def test_diaster_formula_reference_values():
    expected = {
        (1, 1): 3,
        (1, 2): 6,
        (2, 2): 6,
        (1, 3): 8,
        (2, 3): 12,
        (3, 3): 10,
        (3, 4): 20,
        (2, 5): 18,
        (4, 7): 40,
    }
    for (a, b), value in expected.items():
        assert diaster_formula(a, b).value == value


def test_diaster_formula_bases():
    assert diaster_formula(2, 3).basis == BASIS_UNEQUAL
    assert diaster_formula(3, 3).basis == BASIS_EQUAL


def test_diaster_formula_is_symmetric():
    for a in range(0, 7):
        for b in range(0, 7):
            if a + b >= 1:
                assert diaster_formula(a, b).value == diaster_formula(b, a).value


def test_diaster_formula_rejects_empty_structure():
    with pytest.raises(InvalidFamilyError):
        diaster_formula(0, 0)
    with pytest.raises(InvalidFamilyError):
        lattice_count(0, 0)


def test_lattice_reference_values():
    assert lattice_count(4, 7).value == 40
    assert lattice_count(0, 1).value == 2


def test_lattice_equal_case_is_triangle_count():
    for a in range(1, 7):
        assert lattice_count(a, a).value == (a + 1) * (a + 2) // 2


def test_lattice_agrees_with_formula_everywhere():
    for a in range(0, 13):
        for b in range(a, 13):
            if a + b < 1:
                continue
            got = lattice_count(a, b)
            assert got.value == diaster_formula(a, b).value, (a, b)
            assert got.basis == BASIS_LATTICE


def test_monotonic_in_b_for_fixed_a():
    for a in range(1, 7):
        values = [diaster_formula(a, b).value for b in range(a, 13)]
        assert all(x < y for x, y in zip(values, values[1:]))


def test_stem_formula_reference_values():
    assert stem_formula(Stem(Daisy(2), Beachball(3))).value == 12
    assert stem_formula(Stem(Daisy(2), Beachball(3))).basis == BASIS_TRANSFER
    assert stem_formula(Stem(Beachball(2), Beachball(2))).value == 6


def test_stem_formula_mixed_equal_parameters_not_covered():
    result = stem_formula(Stem(Star(2), Daisy(2)))
    assert result.value is None
    assert result.basis == BASIS_NOT_COVERED


def test_stem_formula_covers_all_unequal_type_combinations():
    types = (Star, Beachball, Daisy)
    for left in types:
        for right in types:
            result = stem_formula(Stem(left(2), right(3)))
            assert result.value == 2 * 3 + 2 + 3 + 1


def test_trivial_families_have_one_class():
    for spec in (Star(5), Daisy(1), Beachball(3)):
        assert family_count(spec) == CountResult(1, BASIS_SINGLE), spec


def test_family_count_routing():
    assert family_count(Diaster(4, 7)).value == 40
    assert family_count(Stem(Daisy(1), Daisy(1))).value == 3
    assert family_count(Beachball(4)).value == 1
    assert family_count(Cycle(5)).value is None
    assert family_count(Cycle(5)).basis == BASIS_NOT_COVERED


def test_one_sided_diasters_count_as_stars():
    # D(0, b) is a star with b + 1 edges: one class, not the two-sided formula
    for spec in (Diaster(0, 1), Diaster(0, 5), Diaster(3, 0)):
        assert family_count(spec) == family_count(Star(spec.a + spec.b + 1))
        assert family_count(spec).basis == BASIS_SINGLE
    assert diaster_formula(0, 5).value == 6  # the arithmetic itself stays pinned
