"""Subset order, counting functionals, and diagram enumeration."""

import itertools

import pytest

from gtagkz.combinatorics import (
    GTDiagram,
    chi,
    chi_apply,
    chi_pairs,
    enumerate_diagrams,
    enumerate_subsets,
    highest_diagram,
    normalize_weight,
)
from gtagkz.lattice import ExponentVector
from gtagkz import _linalg


def weyl_dimension_oracle(top_row):
    """Independent product formula over root positions."""
    n = len(top_row)
    numerator, denominator = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            numerator *= top_row[i] - top_row[j] + j - i
            denominator *= j - i
    assert numerator % denominator == 0
    return numerator // denominator


def brute_force_diagrams(top_row):
    """Filter the full integer box by the betweenness condition."""
    n = len(top_row)
    rows = [tuple(top_row)]
    results = []

    def extend(stack):
        upper = stack[-1]
        if len(upper) == 1:
            results.append(tuple(stack))
            return
        low, high = min(upper), max(upper)
        for lower in itertools.product(range(low, high + 1), repeat=len(upper) - 1):
            if all(upper[i] >= lower[i] >= upper[i + 1] for i in range(len(lower))):
                extend(stack + [lower])

    extend(rows)
    return results


def test_subset_order_matches_minor_ordering():
    assert enumerate_subsets(3) == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def test_subset_counts():
    assert enumerate_subsets(1) == ((1,),)
    assert len(enumerate_subsets(4)) == 15
    assert len(enumerate_subsets(6)) == 63


def test_subsets_rejects_bad_n():
    with pytest.raises(ValueError):
        enumerate_subsets(0)


def test_chi_basic_values():
    assert chi(1, 2, (1, 3)) == 1
    assert chi(2, 2, (1, 3)) == 0
    assert chi(3, 3, (1, 2, 3)) == 1
    for X in enumerate_subsets(3):
        assert chi(3, 3, X) == (1 if X == (1, 2, 3) else 0)


def test_chi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi(2, 1, (1,))


def test_chi_monotone_under_inclusion():
    n = 4
    for X in enumerate_subsets(n):
        for Y in enumerate_subsets(n):
            if set(X) <= set(Y):
                for p, q in chi_pairs(n):
                    assert chi(p, q, X) <= chi(p, q, Y)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chi_functionals_linearly_independent(n):
    matrix = [
        [chi(p, q, X) for X in enumerate_subsets(n)] for p, q in chi_pairs(n)
    ]
    assert _linalg.rank(matrix) == n * (n + 1) // 2


def test_chi_apply_zero_vector():
    v = ExponentVector.zero(3)
    assert all(chi_apply(p, q, v) == 0 for p, q in chi_pairs(3))


def test_chi_apply_rejects_out_of_range():
    with pytest.raises(ValueError):
        chi_apply(1, 4, ExponentVector.zero(3))


@pytest.mark.parametrize(
    "top,count",
    [((1, 0, 0), 3), ((0, 0, 0), 1), ((2, 1, 0), 8), ((1, 1, 0, 0), 6), ((2, 1, 0, 0), 20)],
)
def test_enumerate_diagrams_counts(top, count):
    diagrams = enumerate_diagrams(top)
    assert len(diagrams) == count
    assert len(diagrams) == weyl_dimension_oracle(top)


@pytest.mark.parametrize("top", [(2, 1, 0), (3, 1, 0), (1, 1, 0, 0), (2, 1, 0, 0)])
def test_enumerate_diagrams_complete_against_box_filter(top):
    expected = sorted(brute_force_diagrams(top))
    got = sorted(d.rows for d in enumerate_diagrams(top))
    assert got == expected


def test_enumerate_diagrams_rejects_bad_top_rows():
    with pytest.raises(ValueError):
        enumerate_diagrams((1, 2, 0))
    with pytest.raises(ValueError):
        enumerate_diagrams((2, 1, 1))


def test_betweenness_validation():
    with pytest.raises(ValueError):
        GTDiagram(((2, 1, 0), (0, 0), (0,)))


def test_diagram_weight_examples():
    top = highest_diagram((2, 1, 0))
    assert top.weight() == (2, 1, 0)
    zero = highest_diagram((0, 0, 0))
    assert zero.weight() == (0, 0, 0)
    d = GTDiagram(((2, 1, 0), (2, 1), (1,)))
    assert d.weight() == (1, 2, 0)


def test_normalize_weight_records_prefactor():
    assert normalize_weight((3, 2, 1)) == ((2, 1, 0), 1)
    assert normalize_weight((2, 1, 0)) == ((2, 1, 0), 0)
    with pytest.raises(ValueError):
        normalize_weight((1, 2, 0))
