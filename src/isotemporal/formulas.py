"""Closed-form isotemporal class counts with explicit domain-of-validity.

For a two-sided structure with a and b peripheral edges the count is
ab + a + b + 1 when a != b, and (a^2 + 3a + 2) / 2 when a = b and the
graph is mirror-symmetric.  The lattice evaluation reproduces the same
numbers by summing, per central label, the count of feasible left-below
values; it is kept as an independent route.  Equal-parameter stems with
differing side types are out of coverage and routed to brute force.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .families import Beachball, Daisy, Diaster, FamilySpec, InvalidFamilyError, Star, Stem

BASIS_UNEQUAL = "closed-form-unequal"
BASIS_EQUAL = "closed-form-equal"
BASIS_TRANSFER = "stem-transfer"
BASIS_LATTICE = "lattice-sum"
BASIS_SINGLE = "single-class"
BASIS_NOT_COVERED = "not-covered"


class CountResult(NamedTuple):
    """A class count plus the basis that produced it; value None means the
    input is outside every closed formula and needs brute force."""

    value: Optional[int]
    basis: str

    @property
    def covered(self) -> bool:
        return self.value is not None


def diaster_formula(a: int, b: int) -> CountResult:
    """ab + a + b + 1 for a != b, (a^2 + 3a + 2) / 2 for a = b; symmetric."""
    Diaster(a, b)  # validates the parameters
    if a == b:
        # (a + 1)(a + 2) is even; assert rather than truncate silently
        total = a * a + 3 * a + 2
        assert total % 2 == 0
        return CountResult(total // 2, BASIS_EQUAL)
    return CountResult(a * b + a + b + 1, BASIS_UNEQUAL)


def lattice_count(a: int, b: int) -> CountResult:
    """Sum, over central labels, of the number of feasible left-below counts.

    Evaluates the trapezoid (a != b) or reflected triangle (a = b) of
    lattice points; always agrees with diaster_formula.
    """
    Diaster(a, b)  # validates the parameters
    if a > b:
        a, b = b, a
    if a == b:
        total = sum((t - 1) // 2 + 1 for t in range(1, a + 2))
        total += sum((2 * a + 1 - t) // 2 + 1 for t in range(a + 2, 2 * a + 2))
        return CountResult(total, BASIS_LATTICE)
    total = sum(t for t in range(1, a + 1))
    total += (b - a + 1) * (a + 1)
    total += sum(a + b + 2 - t for t in range(b + 2, a + b + 2))
    return CountResult(total, BASIS_LATTICE)


def stem_formula(spec: Stem) -> CountResult:
    """Transfer of the two-sided count to stem structures.

    Unequal parameters are covered for all nine side-type combinations;
    equal parameters only when both sides have the same type (otherwise
    there is no mirror symmetry and the result is not covered).
    """
    a, b = spec.left.k, spec.right.k
    if a != b or type(spec.left) is type(spec.right):
        return CountResult(diaster_formula(a, b).value, BASIS_TRANSFER)
    return CountResult(None, BASIS_NOT_COVERED)


def trivial_family_count(spec: FamilySpec) -> CountResult:
    """Stars, beachballs, and daisies each form a single isotemporal class."""
    if not isinstance(spec, (Star, Beachball, Daisy)):
        raise InvalidFamilyError(f"{spec!r} is not a star/beachball/daisy")
    return CountResult(1, BASIS_SINGLE)


def family_count(spec: FamilySpec) -> CountResult:
    """Route a family spec to its closed formula, if any."""
    if isinstance(spec, Diaster):
        if spec.a == 0 or spec.b == 0:
            return CountResult(1, BASIS_SINGLE)  # D(0, b) is a star
        return diaster_formula(spec.a, spec.b)
    if isinstance(spec, Stem):
        return stem_formula(spec)
    if isinstance(spec, (Star, Beachball, Daisy)):
        return trivial_family_count(spec)
    return CountResult(None, BASIS_NOT_COVERED)
