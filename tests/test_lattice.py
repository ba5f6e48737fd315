"""Lattice basis, shift vectors, the coset order, and point enumeration."""

import itertools

import pytest

from gtagkz.combinatorics import (
    GTDiagram,
    chi_apply,
    chi_pairs,
    enumerate_diagrams,
    enumerate_subsets,
    highest_diagram,
)
from gtagkz.lattice import (
    ExponentVector,
    canonical_shift_table,
    canonical_shifts,
    coset_leq,
    coset_points,
    in_lattice,
    lattice_basis,
    lattice_rank,
    nonneg_points,
    r_routes,
    r_shift,
    shift_from_diagram,
)


def brute_force_points(gamma):
    """Multisets of subsets realizing the chi values of gamma: independent
    of the solver's search order and pruning."""
    n = gamma.n
    subsets = enumerate_subsets(n)
    target = {pq: chi_apply(*pq, gamma) for pq in chi_pairs(n)}
    mass = target[(1, n)]
    if any(v < 0 for v in target.values()):
        return []
    points = set()
    for combo in itertools.combinations_with_replacement(subsets, mass):
        counts = {}
        for X in combo:
            counts[X] = counts.get(X, 0) + 1
        vec = ExponentVector(n, counts.items())
        if all(chi_apply(p, q, vec) == target[(p, q)] for p, q in chi_pairs(n)):
            points.add(vec)
    return sorted(points, key=lambda v: v.dense())


@pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (3, 1), (4, 5), (5, 16), (6, 42)])
def test_lattice_basis_counts(n, k):
    assert len(lattice_basis(n)) == k == lattice_rank(n)


def test_gl3_basis_vector_coordinates():
    (vec,) = lattice_basis(3)
    assert (vec.i, vec.j, vec.x, vec.X) == (1, 2, 3, ())
    assert vec.v.dense() == (1, -1, 0, 0, -1, 1, 0)
    assert vec.r.dense() == (-1, 0, 1, 1, 0, -1, 0)
    assert vec.v == vec.v_plus - vec.v_minus
    assert vec.r == vec.v_zero - vec.v_plus


@pytest.mark.parametrize("n", [3, 4, 5])
def test_basis_vectors_annihilated_by_all_functionals(n):
    for vec in lattice_basis(n):
        assert in_lattice(vec.v)
        for part in (vec.v_plus, vec.v_minus, vec.v_zero):
            assert sum(v for _, v in part.items()) == 2
            assert all(v == 1 for _, v in part.items())


def test_in_lattice_examples():
    assert in_lattice(ExponentVector.zero(3))
    assert not in_lattice(ExponentVector.unit(3, (1,)))


def test_shift_matches_classical_gl3_formula():
    for top in ((2, 1, 0), (3, 1, 0)):
        for d in enumerate_diagrams(top):
            (m1, m2, _), (k1, k2), (h1,) = d.rows
            expected = (h1 - m2, k1 - h1, m1 - k1, k2, m2 - k2, 0, 0)
            assert shift_from_diagram(d).gamma.dense() == expected


@pytest.mark.parametrize("top", [(2, 1, 0), (1, 1, 0, 0), (2, 1, 0, 0)])
def test_shift_satisfies_all_functional_equations(top):
    for d in enumerate_diagrams(top):
        gamma = shift_from_diagram(d).gamma
        for p, q in chi_pairs(d.n):
            assert chi_apply(p, q, gamma) == d.m(p, q)


def test_shift_zero_diagram():
    d = highest_diagram((0, 0, 0))
    assert shift_from_diagram(d).gamma.is_zero()


def test_coset_leq_reflexive_and_examples():
    d = GTDiagram(((2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    assert coset_leq(gamma, gamma) == (0,)
    r = lattice_basis(3)[0].r
    assert coset_leq(gamma, gamma + r) == (1,)
    assert coset_leq(gamma + r, gamma) is None


def test_coset_leq_ignores_lattice_translates():
    d = GTDiagram(((2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    v = lattice_basis(3)[0].v
    r = lattice_basis(3)[0].r
    assert coset_leq(gamma + v, gamma + r - v) == (1,)


def test_coset_leq_different_h_rows_incomparable():
    a = shift_from_diagram(GTDiagram(((2, 1, 0), (2, 1), (1,)))).gamma
    b = shift_from_diagram(GTDiagram(((2, 1, 0), (2, 1), (2,)))).gamma
    assert coset_leq(a, b) is None
    assert coset_leq(b, a) is None


def test_coset_leq_partial_order_axioms():
    shifts = [shift_from_diagram(d).gamma for d in enumerate_diagrams((2, 1, 0))]
    for a, b in itertools.product(shifts, repeat=2):
        ab = coset_leq(a, b, with_witness=False)
        ba = coset_leq(b, a, with_witness=False)
        if ab is not None and ba is not None:
            assert a.dense()[:6] != b.dense()[:6] or a == b
            # antisymmetry on classes: both directions force equal chi tables
            assert all(
                chi_apply(p, q, a) == chi_apply(p, q, b) for p, q in chi_pairs(3)
            )
    for a, b, c in itertools.product(shifts, repeat=3):
        if (
            coset_leq(a, b, with_witness=False) is not None
            and coset_leq(b, c, with_witness=False) is not None
        ):
            assert coset_leq(a, c, with_witness=False) is not None


def test_canonical_shift_minimum_keeps_staircase():
    diagrams = enumerate_diagrams((2, 1, 0))
    low = GTDiagram(((2, 1, 0), (2, 0), (1,)))
    shift = canonical_shifts(diagrams)[diagrams.index(low)]
    assert shift.gamma == shift_from_diagram(low).gamma


def test_canonical_shift_exact_r_differences():
    for top in ((2, 1, 0), (2, 1, 0, 0)):
        diagrams = enumerate_diagrams(top)
        n = len(top)
        table = canonical_shift_table(diagrams)
        for (sa, wa), (sb, wb) in itertools.product(table, repeat=2):
            if coset_leq(sa.gamma, sb.gamma, with_witness=False) is not None:
                gap = tuple(x - y for x, y in zip(wb, wa))
                assert all(part >= 0 for part in gap)
                assert sa.gamma + r_shift(n, gap) == sb.gamma


def test_highest_weight_shift_of_fundamental():
    diagrams = enumerate_diagrams((1, 0, 0))
    top = highest_diagram((1, 0, 0))
    gamma = canonical_shifts(diagrams)[diagrams.index(top)].gamma
    assert gamma == ExponentVector.unit(3, (1,))
    assert nonneg_points(gamma) == [gamma]


@pytest.mark.parametrize("top", [(2, 1, 0), (1, 1, 0, 0), (2, 1, 0, 0)])
def test_nonneg_points_against_brute_force(top):
    for d in enumerate_diagrams(top):
        gamma = shift_from_diagram(d).gamma
        assert nonneg_points(gamma) == brute_force_points(gamma)


def test_nonneg_points_empty_for_non_diagram_array():
    # chi values of a triangular array violating betweenness (row entry above
    # its upper neighbor): no nonnegative vector can realize them
    bad = ExponentVector(3, [((1,), 2), ((2,), -1)])
    assert chi_apply(1, 1, bad) == 2
    assert chi_apply(1, 2, bad) == 1
    assert nonneg_points(bad) == []


def test_nonneg_points_representative_independent():
    d = GTDiagram(((2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    v = lattice_basis(3)[0].v
    assert nonneg_points(gamma) == nonneg_points(gamma + v)
    assert nonneg_points(gamma) == nonneg_points(gamma - 2 * v)


def test_coset_points_recover_integral_coordinates():
    d = GTDiagram(((2, 1, 0, 0), (2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    n = 4
    for x, t in coset_points(gamma):
        total = gamma
        for coeff, vec in zip(t, lattice_basis(n)):
            total = total + coeff * vec.v
        assert total == x


def test_r_routes_multiplicity_on_gl4():
    diagrams = enumerate_diagrams((2, 1, 0, 0))
    table = canonical_shift_table(diagrams)
    low = GTDiagram(((2, 1, 0, 0), (2, 0, 0), (2, 0), (1,)))
    high = GTDiagram(((2, 1, 0, 0), (1, 1, 0), (1, 1), (1,)))
    shift_low = next(s for s, _ in table if s.diagram == low)
    shift_high = next(s for s, _ in table if s.diagram == high)
    routes = r_routes(shift_low.gamma, shift_high.gamma)
    assert sorted(routes) == [(0, 0, 1, 1, 0), (0, 1, 0, 0, 0), (1, 0, 0, 1, 0)]


def test_degenerate_small_n():
    assert lattice_basis(2) == ()
    gamma = ExponentVector(2, [((1,), 1), ((1, 2), 1)])
    assert nonneg_points(gamma) == [gamma]
