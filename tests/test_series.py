"""Lattice series, Horn-type series, solutions, and paired series."""

import random
from fractions import Fraction
from math import factorial

import pytest

from gtagkz import gtbasis, lattice, series
from gtagkz.combinatorics import GTDiagram, chi_apply, enumerate_diagrams, highest_diagram
from gtagkz.lattice import ExponentVector, lattice_basis, r_routes, r_shift, shift_from_diagram
from gtagkz.operators import euler_weighted
from gtagkz.polyengine import Polynomial, diff_apply, evaluate_at_ones, pair
from gtagkz.series import (
    agkz_solution,
    feasible_down_shifts,
    feasible_up_shifts,
    gamma_series,
    j_value,
    rising,
)

from _reference import (
    canonical_shifts,
    f_pair_series,
    f_pair_terms,
    feasible_classes,
    gkz_apply,
    j_pair_series,
    j_series,
)


def gauss_2f1_polynomial_coefficients(a1, a2, b1, count):
    """Independent expansion of the Gauss series (integer parameters)."""
    out = []
    for order in range(count):
        num = rising(a1 - 1, order) * rising(a2 - 1, order)
        den = rising(b1 - 1, order) * factorial(order)
        out.append(Fraction(num, den))
    return out


def test_gamma_series_of_highest_diagram_is_highest_vector():
    shift = shift_from_diagram(highest_diagram((2, 1, 0)))
    poly = gamma_series(shift.gamma)
    expected = Polynomial.monomial(ExponentVector(3, [((1,), 1), ((1, 2), 1)]))
    assert poly == expected
    assert evaluate_at_ones(poly) == 1


def test_gamma_series_term_count_matches_gauss_polynomial():
    d = GTDiagram(((2, 1, 0), (2, 1), (1,)))
    poly = gamma_series(shift_from_diagram(d).gamma)
    # minimal point has A_2 exponent 1 and A_13 exponent 0: the Gauss factor
    # (a2)_n vanishes from order 1 on, so the polynomial has a single term
    assert len(poly.terms) == 1


def test_gamma_series_vanishes_for_infeasible_array():
    bad = ExponentVector(3, [((1,), 2), ((2,), -1)])
    assert gamma_series(bad).is_zero()


def test_gamma_series_representative_independent():
    d = GTDiagram(((2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    v = lattice_basis(3)[0].v
    assert gamma_series(gamma) == gamma_series(gamma + v)


def test_partial_derivative_shifts_the_series():
    for d in enumerate_diagrams((2, 1, 0)):
        gamma = shift_from_diagram(d).gamma
        for X in ((1,), (2,), (1, 3), (1, 2, 3)):
            lhs = diff_apply(Polynomial.variable(3, X), gamma_series(gamma))
            rhs = gamma_series(gamma - ExponentVector.unit(3, X))
            assert lhs == rhs


def test_j_series_zero_weight_is_gamma_series():
    d = GTDiagram(((2, 1, 0, 0), (2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    assert j_series(gamma, (0,) * 5) == gamma_series(gamma)


def test_j_series_partial_derivative_rule():
    d = GTDiagram(((3, 1, 0), (3, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    for s in ((1,), (2,)):
        for X in ((1,), (2, 3)):
            lhs = diff_apply(Polynomial.variable(3, X), j_series(gamma, s))
            rhs = j_series(gamma - ExponentVector.unit(3, X), s)
            assert lhs == rhs


def test_contiguity_of_gkz_operator_on_j_series():
    rng = random.Random(17)
    for top in ((3, 1, 0), (2, 1, 0, 0)):
        n = len(top)
        basis = lattice_basis(n)
        diagrams = enumerate_diagrams(top)
        for _ in range(6):
            d = diagrams[rng.randrange(len(diagrams))]
            gamma = shift_from_diagram(d).gamma
            s = tuple(rng.randint(0, 2) for _ in basis)
            alpha = rng.randrange(len(basis))
            lhs = gkz_apply(alpha, j_series(gamma, s))
            if s[alpha] == 0:
                assert lhs.is_zero()
                continue
            lowered = tuple(v - (1 if i == alpha else 0) for i, v in enumerate(s))
            rhs = j_series(gamma - basis[alpha].v_plus, lowered).scale(s[alpha])
            assert lhs == rhs


def test_gkz_annihilates_gamma_series():
    for top in ((2, 1, 0), (1, 1, 0, 0)):
        n = len(top)
        for d in enumerate_diagrams(top):
            poly = gamma_series(shift_from_diagram(d).gamma)
            for alpha in range(len(lattice_basis(n))):
                assert gkz_apply(alpha, poly).is_zero()


def test_homogeneity_eigenvalues():
    for d in enumerate_diagrams((2, 1, 0, 0)):
        poly = gamma_series(shift_from_diagram(d).gamma)
        for p in range(1, 5):
            for q in range(p, 5):
                assert euler_weighted(p, q, poly) == poly.scale(d.m(p, q))


def test_solution_of_highest_diagram_is_single_monomial():
    diagrams = enumerate_diagrams((2, 1, 0))
    shift = canonical_shifts(diagrams)[diagrams.index(highest_diagram((2, 1, 0)))]
    assert agkz_solution(shift.gamma) == gamma_series(shift.gamma)


def test_solution_class_terms_reproduce_gamma_series():
    from gtagkz.lattice import chi_table

    diagrams = enumerate_diagrams((2, 1, 0, 0))
    for shift in canonical_shifts(diagrams):
        own = chi_table(shift.gamma)
        poly = agkz_solution(shift.gamma)
        own_part = Polynomial(
            4, [(e, c) for e, c in poly.terms.items() if chi_table(e) == own]
        )
        assert own_part == gamma_series(shift.gamma)


def test_solution_depends_on_representative_gl4():
    d = enumerate_diagrams((2, 1, 0, 0))[3]
    gamma = shift_from_diagram(d).gamma
    shifted = gamma + lattice_basis(4)[3].v
    assert gamma_series(gamma) == gamma_series(shifted)
    # the Pochhammer weight sees the translated coordinate
    assert j_series(gamma, (0, 0, 0, 1, 0)) != j_series(shifted, (0, 0, 0, 1, 0))
    assert agkz_solution(gamma) != agkz_solution(shifted)


def test_support_within_union_of_shifted_classes():
    from gtagkz.lattice import chi_table

    for top in ((3, 1, 0), (2, 1, 0, 0)):
        n = len(top)
        for shift in canonical_shifts(enumerate_diagrams(top)):
            arrays = {
                chi_table(shift.gamma - r_shift(n, s))
                for s in feasible_down_shifts(shift.gamma)
            }
            for exponent in agkz_solution(shift.gamma).terms:
                assert chi_table(exponent) in arrays


def test_hand_computed_gl3_solutions():
    diagrams = enumerate_diagrams((2, 1, 0))
    low = GTDiagram(((2, 1, 0), (2, 0), (1,)))
    high = GTDiagram(((2, 1, 0), (1, 1), (1,)))
    table = {s.diagram: s for s in canonical_shifts(diagrams)}
    n3 = lambda *pairs: Polynomial(3, [(ExponentVector(3, e), c) for e, c in pairs])
    f_low = agkz_solution(table[low].gamma)
    assert f_low == n3(
        ([((2,), 1), ((1, 3), 1)], 1),
        ([((1,), 1), ((2, 3), 1)], 1),
    )
    f_high = agkz_solution(table[high].gamma)
    assert f_high == n3(
        ([((3,), 1), ((1, 2), 1)], 1),
        ([((2,), 1), ((1, 3), 1)], -1),
        ([((1,), 1), ((2, 3), 1)], -2),
    )
    assert pair(f_low, f_low) == 2
    assert pair(f_high, f_high) == 6
    assert pair(f_low, f_high) == -3


def test_j_pair_series_zero_weights_reduce_to_gamma_series():
    d = GTDiagram(((2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    zero = (0,)
    assert j_pair_series(gamma, zero, zero) == gamma_series(gamma)


def test_j_pair_series_reduces_to_plain_series():
    # (t+1)^2 = -(t+1) + (t+1)(t+2): exact expansion of the double weight
    d = GTDiagram(((2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    lhs = j_pair_series(gamma, (1,), (1,))
    rhs = (j_series(gamma, (2,)) - j_series(gamma, (1,)))
    assert lhs == rhs


@pytest.mark.parametrize("bad", [(1, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, 0, 0, -2)])
def test_series_reject_a_malformed_multi_index(bad):
    """A multi-index must have one nonnegative part per lattice direction (5 for gl4)."""
    gamma = canonical_shifts(enumerate_diagrams((2, 1, 0, 0)))[3].gamma
    with pytest.raises(ValueError):
        j_value(gamma, bad)
    with pytest.raises(ValueError):
        list(f_pair_terms(gamma, bad))


def test_malformed_multi_index_raises_on_an_empty_coset():
    bad = ExponentVector(3, [((1,), 2), ((2,), -1)])
    for s in ((), (0, 0), (-1,)):
        with pytest.raises(ValueError):
            j_value(bad, s)
        with pytest.raises(ValueError):
            list(f_pair_terms(bad, s))


@pytest.mark.parametrize("top", [(8, 4, 0), (3, 1, 0, 0), (3, 2, 1, 0)])
def test_j_value_is_the_j_series_at_ones(top):
    """On every representative the solutions and the canonical forms read, with
    their own shift and with a few more multi-indices."""
    n = len(top)
    k = len(lattice_basis(n))
    rng = random.Random(5)
    lattice_sum = ExponentVector.zero(n)
    for vec in lattice_basis(n):
        lattice_sum = lattice_sum + vec.v
    cases = []
    for shift in canonical_shifts(enumerate_diagrams(top)):
        gamma = shift.gamma
        for s in feasible_down_shifts(gamma):
            cases.append((gamma - r_shift(n, s), s))
            assert j_value(gamma, s, down=s) == j_value(*cases[-1])
        cases += [(gamma + lattice_sum, s) for s in feasible_up_shifts(gamma)]
        cases += [(gamma, tuple(rng.randint(0, 2) for _ in range(k))) for _ in range(2)]
    nonzero = 0
    for vector, s in cases:
        value = j_value(vector, s)
        assert type(value) is Fraction
        assert value == evaluate_at_ones(j_series(vector, s))
        nonzero += value != 0
    assert nonzero > len(cases) // 2
    assert j_value(ExponentVector(3, [((1,), 2), ((2,), -1)]), (0,)) == 0


def test_f_pair_series_matches_direct_pairings_on_chains():
    # deep chain: both one and two steps of the order direction
    diagrams = enumerate_diagrams((4, 2, 0))
    table = {s.diagram: s for s in canonical_shifts(diagrams)}
    bottom = table[GTDiagram(((4, 2, 0), (4, 0), (2,)))].gamma
    for l1 in ((0,), (1,), (2,)):
        direct = pair(agkz_solution(bottom + r_shift(3, l1)), agkz_solution(bottom))
        closed = evaluate_at_ones(f_pair_series(bottom, l1))
        assert direct == closed


def test_f_pair_series_empty_support_is_zero():
    bad = ExponentVector(3, [((1,), 2), ((2,), -1)])
    assert f_pair_series(bad, (0,)).is_zero()


def _uncached_classes(vector):
    """Class representatives from every diagram of the top row whose row sums match."""
    n = vector.n
    full = chi_apply(n, n, vector)
    if full < 0:
        return []
    top = tuple(chi_apply(p, n, vector) - full for p in range(1, n + 1))
    sums = [sum(chi_apply(p, q, vector) for p in range(1, q + 1)) - q * full for q in range(1, n + 1)]
    raise_full = full * ExponentVector.unit(n, tuple(range(1, n + 1)))
    if any(a < b for a, b in zip(top, top[1:])) or top[-1] != 0:
        return []
    return [
        shift_from_diagram(d).gamma + raise_full
        for d in enumerate_diagrams(top)
        if [sum(d.row(q)) for q in range(1, n + 1)] == sums
    ]


@pytest.mark.parametrize("top", [(4, 2, 0), (8, 4, 0), (2, 1, 0, 0), (3, 2, 1, 0)])
def test_feasible_classes_memo_matches_uncached_patterns(top):
    """The reference classes are the patterns of the vector's top row and row
    sums; the weight-classes memo, keyed on n and the top row and row sums
    lowered by the full-set count, holds their chi arrays lowered by that
    count, and a repeat returns the same entry."""
    n = len(top)
    full_set = ExponentVector.unit(n, tuple(range(1, n + 1)))
    vectors = []
    for shift in canonical_shifts(enumerate_diagrams(top)):
        for s in feasible_down_shifts(shift.gamma):
            vectors.append(shift.gamma - r_shift(n, s))
    vectors += [v + full_set for v in vectors[::3]] + [v - full_set for v in vectors[::5]]
    for vector in vectors:
        classes = feasible_classes(vector)
        assert isinstance(classes, tuple)
        assert classes == tuple(_uncached_classes(vector))
        key, _, full = lattice._order_key(vector)
        chis = lattice._weight_classes(*key)
        memo = tuple(tuple(value + full for value in chi) for chi in chis) if full >= 0 else ()
        assert memo == tuple(lattice.chi_table(v) for v in classes)
        assert lattice._weight_classes(*lattice._order_key(vector)[0]) is chis


@pytest.mark.parametrize("top", [(8, 4, 0), (3, 1, 0, 0)])
def test_feasible_down_shifts_match_an_uncached_search(top):
    """On every shift and on translates of them by a lattice vector:
    feasible_down_shifts returns the routes up from each feasible class."""
    n = len(top)
    v = lattice_basis(n)[0].v
    vectors = [shift.gamma for shift in canonical_shifts(enumerate_diagrams(top))]
    vectors += [gamma + v for gamma in vectors[::2]]
    for vector in vectors:
        expected = tuple(sorted(s for low in feasible_classes(vector) for s in r_routes(low, vector)))
        shifts = feasible_down_shifts(vector)
        assert isinstance(shifts, tuple)
        assert shifts == expected


def test_the_build_reads_routes_as_they_are_walked(monkeypatch):
    """The solutions iterate the route walk itself: the sorted tuple of
    feasible_down_shifts is built only for callers that ask for it."""
    calls = []

    def counting(gamma):
        calls.append(gamma)
        return feasible_down_shifts(gamma)

    for module in (series, gtbasis):  # counted wherever a module calls it from
        monkeypatch.setattr(module, "feasible_down_shifts", counting)
    series._solution_parts.cache_clear()
    gtbasis.build_basis((2, 1, 0, 0))
    assert calls == []
