"""Lattice basis, shift vectors, the coset order, and point enumeration."""

import gc
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from gtagkz import lattice

from gtagkz.combinatorics import (
    GTDiagram,
    chi_apply,
    chi_pairs,
    enumerate_diagrams,
    enumerate_subsets,
    highest_diagram,
    subset_position,
)
from gtagkz.lattice import (
    AmbiguousMinimumError,
    ExponentVector,
    LatticeBasisVector,
    canonical_shift_table,
    chi_table,
    combine,
    class_order,
    coset_leq,
    in_lattice,
    lattice_basis,
    lattice_rank,
    nonneg_points,
    r_routes,
    r_shift,
    shift_from_diagram,
)
from gtagkz.gtbasis import weyl_dimension
from gtagkz.polyengine import exponent_factorial
from gtagkz.series import feasible_down_shifts

from _reference import canonical_shifts, coset_points


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


def test_in_lattice_builds_no_column_table_and_keeps_nothing(monkeypatch, capsys):
    """in_lattice reads chi only: for n = 12 a column table would take 4,095
    back-substitutions of 4,017 steps, and kept chi values about 2 MB."""
    from gtagkz.cli import main

    def refuse(n):
        raise AssertionError(f"lattice coordinates built for n = {n}")

    monkeypatch.setattr(lattice, "_column_table", refuse)
    monkeypatch.setattr(lattice, "_coordinate_solver", refuse)
    for n in (3, 7):
        for vec in lattice_basis(n):
            fresh = ExponentVector(n, vec.v.items())
            assert in_lattice(fresh)
            assert fresh._chi is None and fresh._maps is None
    assert main(["lattice", "8", "--format", "json"]) == 0
    assert '"chi_orthogonal": true' in capsys.readouterr().out


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
        ab = coset_leq(a, b)
        ba = coset_leq(b, a)
        if ab is not None and ba is not None:
            assert a.dense()[:6] != b.dense()[:6] or a == b
            # antisymmetry on classes: both directions force equal chi tables
            assert all(
                chi_apply(p, q, a) == chi_apply(p, q, b) for p, q in chi_pairs(3)
            )
    for a, b, c in itertools.product(shifts, repeat=3):
        if (
            coset_leq(a, b) is not None
            and coset_leq(b, c) is not None
        ):
            assert coset_leq(a, c) is not None


def test_canonical_shift_minimum_keeps_staircase():
    diagrams = enumerate_diagrams((2, 1, 0))
    low = GTDiagram(((2, 1, 0), (2, 0), (1,)))
    shift = canonical_shifts(diagrams)[diagrams.index(low)]
    assert shift.gamma == shift_from_diagram(low).gamma


def test_canonical_shift_exact_r_differences():
    for top in ((2, 1, 0), (2, 1, 0, 0)):
        diagrams = enumerate_diagrams(top)
        n = len(top)
        table, _ = canonical_shift_table(diagrams)
        for (sa, wa), (sb, wb) in itertools.product(table, repeat=2):
            if coset_leq(sa.gamma, sb.gamma) is not None:
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


@pytest.mark.parametrize("top", [(4, 2, 0), (3, 1, 0, 0), (1, 1, 0, 0, 0)])
def test_nonneg_points_against_brute_force_on_pipeline_classes(top):
    # every class gamma - u.r that agkz_solution sums a Horn-type series over
    n = len(top)
    for shift in canonical_shifts(enumerate_diagrams(top)):
        for u in feasible_down_shifts(shift.gamma):
            gamma = shift.gamma - r_shift(n, u)
            assert nonneg_points(gamma) == brute_force_points(gamma)


def test_nonneg_points_same_class_fresh_lists():
    d = GTDiagram(((2, 1, 0, 0), (2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    v = lattice_basis(4)[2].v
    first = nonneg_points(gamma)
    expected = list(first)
    assert len(expected) > 1
    first.reverse()
    first.append(gamma)
    assert nonneg_points(gamma + v) == expected
    assert nonneg_points(gamma) == expected
    # the coordinates t still follow the representative, not the cached class
    moved = coset_points(gamma + v)
    assert [x for x, _ in moved] == expected
    for (_, t), (_, t_moved) in zip(coset_points(gamma), moved):
        assert t_moved == tuple(value - (alpha == 2) for alpha, value in enumerate(t))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_chi_table_matches_chi_apply_on_signed_vectors(n):
    subsets = enumerate_subsets(n)
    vectors = [vec.v for vec in lattice_basis(n)] + [vec.r for vec in lattice_basis(n)]
    vectors += [
        ExponentVector(n, [(X, (-1) ** pos * (pos % 4 + seed)) for pos, X in enumerate(subsets)])
        for seed in range(3)
    ]
    for vec in vectors:
        expected = tuple(chi_apply(p, q, vec) for p, q in chi_pairs(n))
        assert chi_table(vec) == expected
        assert chi_table(ExponentVector(n, vec.items())) == expected


def test_nonneg_points_empty_for_non_diagram_array():
    # chi values of a triangular array violating betweenness (row entry above
    # its upper neighbor): no nonnegative vector can realize them
    bad = ExponentVector(3, [((1,), 2), ((2,), -1)])
    assert chi_apply(1, 1, bad) == 2
    assert chi_apply(1, 2, bad) == 1
    assert nonneg_points(bad) == []
    assert nonneg_points(-ExponentVector.unit(3, (1, 2, 3))) == []


def test_nonneg_points_representative_independent():
    d = GTDiagram(((2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    v = lattice_basis(3)[0].v
    assert nonneg_points(gamma) == nonneg_points(gamma + v)
    assert nonneg_points(gamma) == nonneg_points(gamma - 2 * v)


def negated_column_table(n, X):
    """The column table as a solver that negates T(e_X) would build it: that T
    column negated, with R(e_X) = e_X - T(e_X).v recomputed densely from it."""
    table = dict(lattice._column_table(n))
    t_column = tuple((b, -value) for b, value in table[X][0])
    assert t_column
    residual = list(ExponentVector.unit(n, X).dense())
    for b, value in t_column:
        for position, entry in enumerate(lattice_basis(n)[b].v.dense()):
            residual[position] -= value * entry
    table[X] = (t_column, tuple((p, value) for p, value in enumerate(residual) if value))
    return table


def test_coset_points_recover_integral_coordinates():
    d = GTDiagram(((2, 1, 0, 0), (2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(d).gamma
    n = 4
    for x, t in coset_points(gamma):
        total = gamma
        for coeff, vec in zip(t, lattice_basis(n)):
            total = total + coeff * vec.v
        assert total == x


def test_coset_points_check_fires_on_a_wrong_solver(monkeypatch):
    """The shared-residual check catches coordinates that do not rebuild the
    points; the memoized class table is cleared so that the entry is built again."""
    gamma = shift_from_diagram(GTDiagram(((4, 2, 0), (3, 1), (2,)))).gamma
    assert any(any(t) for _, t in coset_points(gamma))
    wrong = negated_column_table(3, (2, 3))
    monkeypatch.setattr(lattice, "_column_table", lambda n: wrong)
    lattice._class_table.cache_clear()
    try:
        with pytest.raises(AssertionError):
            coset_points(ExponentVector(3, gamma.items()))
    finally:
        lattice._class_table.cache_clear()


@pytest.mark.parametrize("n", range(3, 10))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_lattice_coordinates_round_trip(n, data):
    """y == R(y) + T(y).v with R(y) zero at every pivot, for random integer y;
    y + c.v then has the residual of y at coordinates T(y) + c."""
    basis = lattice_basis(n)
    entries = st.tuples(st.sampled_from(enumerate_subsets(n)), st.integers(-5, 5))
    y = ExponentVector(n, data.draw(st.lists(entries, max_size=8)))
    t, residual = lattice._linear_maps(n, y.items())
    rebuilt = list(residual)
    for coefficient, vec in zip(t, basis):
        for position, value in enumerate(vec.v.dense()):
            rebuilt[position] += coefficient * value
    assert tuple(rebuilt) == y.dense()
    positions = subset_position(n)
    assert all(residual[positions[(*range(1, vec.i), vec.j, vec.x, *vec.X)]] == 0 for vec in basis)
    c = data.draw(st.lists(st.integers(-5, 5), min_size=len(basis), max_size=len(basis)))
    moved = y + combine([vec.v for vec in basis], c, n)
    assert lattice._linear_maps(n, moved.items()) == (tuple(a + b for a, b in zip(t, c)), residual)
    # the sparse r-direction columns are the nonzero parts of the dense chi, T and R of r
    a = data.draw(st.integers(0, len(basis) - 1))
    dense = (chi_table(basis[a].r), *lattice._linear_maps(n, basis[a].r.items()))
    assert lattice._r_directions(n)[a] == tuple(
        tuple((index, value) for index, value in enumerate(values) if value) for values in dense
    )


@pytest.mark.parametrize("n", range(3, 10))
def test_coordinate_solver_steps_read_only_computed_coordinates(n):
    """In descending pivot position, every step reads coordinates of later pivots."""
    steps = lattice._coordinate_solver.__wrapped__(n)
    pivots = {b: pivot for b, pivot, _ in steps}
    assert [pivot for _, pivot, _ in steps] == sorted(pivots.values(), reverse=True)
    assert all(pivots[c] > pivot for _, pivot, needs in steps for c, _ in needs)


def test_coordinate_solver_refuses_a_basis_out_of_pivot_order(monkeypatch):
    """v_b + v_c for v_b puts b on c's later pivot: c's step would read t_b
    before b's step computes it, so the solver raises."""
    basis = lattice_basis(4)
    positions = subset_position(4)
    pivot = lambda vec: (*range(1, vec.i), vec.j, vec.x, *vec.X)
    b, c = next(
        (b, c)
        for b, c in itertools.permutations(range(len(basis)), 2)
        if positions[pivot(basis[b])] < positions[pivot(basis[c])]
        and not basis[b].v[pivot(basis[c])]
        and not basis[c].v[pivot(basis[b])]
    )
    vec = basis[b]
    corrupted = list(basis)
    corrupted[b] = LatticeBasisVector(
        i=vec.i, j=vec.j, x=vec.x, X=vec.X, v=vec.v + basis[c].v,
        v_plus=vec.v_plus, v_minus=vec.v_minus, v_zero=vec.v_zero, r=vec.r,
    )
    monkeypatch.setattr(lattice, "lattice_basis", lambda n: corrupted)
    with pytest.raises(ArithmeticError, match="not triangular"):
        lattice._coordinate_solver.__wrapped__(4)


def test_coset_table_is_immutable_and_coset_points_is_a_fresh_list():
    gamma = shift_from_diagram(GTDiagram(((4, 2, 0), (3, 1), (2,)))).gamma
    table, _ = lattice._class_table(gamma.n, chi_table(gamma))
    assert isinstance(table, tuple) and len(table) > 1
    assert all(isinstance(entry, tuple) and isinstance(entry[1], tuple) for entry in table)
    assert [x for x, _, _ in table] == nonneg_points(gamma)
    assert all(x_factorial == exponent_factorial(x) for x, _, x_factorial in table)
    first = coset_points(gamma)
    second = coset_points(gamma)
    origin, _ = lattice._linear_maps(gamma.n, gamma.items())
    assert first == second == [(x, tuple(a - b for a, b in zip(tx, origin))) for x, tx, _ in table]
    assert first is not second
    first.clear()
    assert coset_points(gamma) == second


def test_a_vector_keeps_its_lattice_coordinates_and_residual(monkeypatch):
    """The first series read of gamma sums its (T, R) once; later reads, down
    shifts included, subtract r columns from the kept values and sum nothing."""
    shift = shift_from_diagram(GTDiagram(((4, 2, 0), (3, 1), (1,))))
    gamma = ExponentVector(3, shift.gamma.items())
    shifts = feasible_down_shifts(shift.gamma)
    assert gamma._maps is None and any(any(s) for s in shifts)
    expected = [lattice._class_entry(shift.gamma, s) for s in shifts]
    lattice._r_directions(3)
    first = coset_points(gamma)
    assert gamma._maps == lattice._linear_maps(3, gamma.items())

    def refuse(n, entries):
        raise AssertionError("T and R summed again")

    monkeypatch.setattr(lattice, "_linear_maps", refuse)
    assert coset_points(gamma) == first
    assert [lattice._class_entry(gamma, s) for s in shifts] == expected


# dominant weights ending in 0, n = 3..5, of Weyl dimension at most 20
SMALL_WEIGHTS = (
    st.integers(3, 5)
    .flatmap(lambda n: st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1))
    .map(lambda steps: tuple(sum(steps[i:]) for i in range(len(steps))) + (0,))
    .filter(lambda top: weyl_dimension(top) <= 20)
)


@settings(deadline=None, max_examples=60)
@given(top=SMALL_WEIGHTS, data=st.data())
def test_coset_points_of_a_translate_shift_coordinates_by_the_translation(top, data):
    """gamma + c.v has the points of gamma, each at coordinates t - c."""
    n = len(top)
    gamma = shift_from_diagram(data.draw(st.sampled_from(enumerate_diagrams(top)))).gamma
    basis = lattice_basis(n)
    c = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    translate = gamma + combine([vec.v for vec in basis], c, n)
    expected = [(x, tuple(a - b for a, b in zip(t, c))) for x, t in coset_points(gamma)]
    assert coset_points(translate) == expected


def test_translates_share_one_class_table_entry():
    gamma = shift_from_diagram(GTDiagram(((2, 1, 0, 0), (2, 1, 0), (2, 0), (1,)))).gamma
    lattice._class_table.cache_clear()
    assert coset_points(gamma)
    for vec in lattice_basis(4):
        assert nonneg_points(gamma + vec.v) == nonneg_points(gamma - 2 * vec.v)
        assert len(coset_points(gamma + vec.v)) == len(coset_points(gamma))
    assert lattice._class_table.cache_info().misses == 1


def test_point_and_route_searches_leave_no_cyclic_garbage():
    """The searches of _class_table and r_routes are one loop, not closures that
    refer to themselves, so they leave no reference cycle: a program that makes
    few container objects between collections (as integer polynomial
    arithmetic does) does not hold their lists of points and routes until the
    collector runs."""
    diagram = GTDiagram(((2, 1, 0, 0), (2, 1, 0), (2, 0), (1,)))
    gamma = shift_from_diagram(diagram).gamma
    low = shift_from_diagram(GTDiagram(((2, 1, 0, 0), (1, 1, 0), (1, 1), (1,)))).gamma
    gc.collect()
    gc.disable()
    try:
        assert lattice._class_table.__wrapped__(4, chi_table(gamma))[0]
        assert r_routes(gamma, gamma)
        r_routes(low, gamma)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_class_table_check_fires_on_a_wrong_solver(monkeypatch):
    """Points of one class whose coordinates leave different residuals are
    refused when the entry is built, before any representative is read."""
    gamma = shift_from_diagram(GTDiagram(((4, 2, 0), (3, 1), (2,)))).gamma
    assert len(nonneg_points(gamma)) > 1
    wrong = negated_column_table(3, (2, 3))
    monkeypatch.setattr(lattice, "_column_table", lambda n: wrong)
    lattice._class_table.cache_clear()
    try:
        with pytest.raises(AssertionError):
            lattice._class_table(3, chi_table(gamma))
    finally:
        lattice._class_table.cache_clear()


def test_coset_points_check_fires_on_a_corrupted_offset(monkeypatch):
    """A sound class entry with a wrong T(gamma): the representative's residual
    no longer matches the class's, so the per-call check fires."""
    gamma = shift_from_diagram(GTDiagram(((4, 2, 0), (3, 1), (2,)))).gamma + lattice_basis(3)[0].v
    assert gamma[(2, 3)] and any(lattice._linear_maps(3, gamma.items())[0])
    assert coset_points(gamma)  # the class entry, built with the true table
    wrong = negated_column_table(3, (2, 3))
    monkeypatch.setattr(lattice, "_column_table", lambda n: wrong)
    with pytest.raises(AssertionError):
        coset_points(ExponentVector(3, gamma.items()))  # a vector that keeps no maps yet


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_merged_arithmetic_equals_the_validating_constructor(data):
    """+, - and unary - merge canonical entries without re-validating; each
    result equals, hashes and orders like the vector built from the raw entries,
    also where entries cancel partly or fully."""
    n = data.draw(st.integers(3, 5))
    entries = st.lists(
        st.tuples(st.sampled_from(enumerate_subsets(n)), st.integers(-3, 3)), max_size=6
    )
    a_items, b_items = data.draw(entries), data.draw(entries)
    b_items += [(X, -v) for X, v in data.draw(st.lists(st.sampled_from(a_items or [((1,), 0)])))]
    a, b = ExponentVector(n, a_items), ExponentVector(n, b_items)
    negated = lambda items: [(X, -v) for X, v in items]
    cases = [
        (a + b, a_items + b_items),
        (a - b, a_items + negated(b_items)),
        (b - a, b_items + negated(a_items)),
        (-a, negated(a_items)),
        (a - a, []),
        (a + -a, []),
        (a + (b - a), b_items),
    ]
    for got, items in cases:
        fresh = ExponentVector(n, items)
        assert got == fresh
        assert hash(got) == hash(fresh)
        assert got.items() == fresh.items()
        assert got.dense() == fresh.dense()
        assert chi_table(got) == chi_table(fresh)
    X = data.draw(st.sampled_from(enumerate_subsets(n)))
    assert ExponentVector.unit(n, list(X)) == ExponentVector(n, [(X, 1)])


def test_unit_rejects_a_non_subset():
    with pytest.raises(ValueError):
        ExponentVector.unit(3, (4,))


@pytest.mark.parametrize("top", [(8, 4, 0), (3, 1, 0, 0), (2, 1, 0, 0, 0)])
def test_class_entry_of_a_down_shift_equals_that_of_the_built_representative(top):
    """The class and T of gamma - s.r, from gamma's and the r-direction
    columns, equal those read off the vector itself, for every feasible s."""
    n = len(top)
    checked = 0
    for shift in canonical_shifts(enumerate_diagrams(top)):
        for s in feasible_down_shifts(shift.gamma):
            expected = lattice._class_entry(shift.gamma - r_shift(n, s))
            assert lattice._class_entry(shift.gamma, s) == expected
            assert expected[0]
            checked += any(s)
    assert checked


def test_class_entry_check_fires_on_a_corrupted_r_direction_column(monkeypatch):
    """T(r) read from a negated column, with R(r) computed from that same T:
    the residual of gamma - s.r misses the class's, so the check fires."""
    gamma = shift_from_diagram(GTDiagram(((4, 2, 0), (3, 1), (1,)))).gamma
    s = max(feasible_down_shifts(gamma))
    assert any(s) and lattice._class_entry(gamma, s)[0]  # gamma keeps its true maps
    columns = lattice._column_table(3)
    X = next(X for X, _ in lattice_basis(3)[0].r.items() if columns[X][0])
    wrong = negated_column_table(3, X)
    lattice._r_directions.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "_column_table", lambda n: wrong)
            lattice._r_directions(3)
        with pytest.raises(AssertionError):
            lattice._class_entry(gamma, s)
    finally:
        lattice._r_directions.cache_clear()


LADDER = [(2, 1, 0), (4, 2, 0), (6, 3, 0), (8, 4, 0), (2, 1, 0, 0), (2, 2, 1, 0), (3, 1, 0, 0)]


def _diagrams(top):
    """The diagrams of a top row with any last entry: those of the top row
    lowered to end in 0, raised back entry by entry."""
    low = top[-1]
    lowered = enumerate_diagrams(tuple(value - low for value in top))
    return [GTDiagram(tuple(tuple(v + low for v in row) for row in d.rows)) for d in lowered]


# a top row, or top rows whose diagrams are taken together: the shifts of
# (2,1,0) and (3,2,1) share their top rows and row sums lowered by the
# full-set count, but not that count, so no two of them are comparable
@pytest.mark.parametrize("top", LADDER + [((2, 1, 0), (3, 2, 1))])
def test_comparability_components_match_all_pairs(top):
    """class_order, comparing only shifts of equal weight, finds every pair the
    all-pairs scan finds, and canonical_shift_table builds each diagram from the
    unique minimum of its comparability component."""
    tops = top if isinstance(top[0], tuple) else (top,)
    diagrams = [d for row in tops for d in _diagrams(row)]
    shifts = [shift_from_diagram(d) for d in diagrams]
    count = len(shifts)
    # leq[a][b]: the witness of b below a over all pairs, or None
    leq = [[coset_leq(low.gamma, high.gamma) for low in shifts] for high in shifts]
    assert class_order(shifts) == [tuple((b, l) for b, l in enumerate(row) if l is not None) for row in leq]
    # components: closure of the relation in both directions
    component = list(range(count))
    changed = True
    while changed:
        changed = False
        for a in range(count):
            for b in range(count):
                if (leq[a][b] is not None or leq[b][a] is not None) and component[a] != component[b]:
                    component[a] = component[b] = min(component[a], component[b])
                    changed = True
    minima = [a for a in range(count) if all(leq[a][b] is None for b in range(count) if b != a)]
    for a, (shift, witness) in enumerate(canonical_shift_table(diagrams)[0]):
        (bottom,) = [b for b in minima if component[b] == component[a]]
        assert witness == leq[a][bottom]
        assert shift.gamma == shifts[bottom].gamma + r_shift(len(tops[0]), witness)


def test_canonical_shift_table_refuses_a_diagram_above_two_minima():
    """Without ((3,2,1,0),(3,1,0),(2,0),(1,)), the diagram
    ((3,2,1,0),(2,1,1),(1,1),(1,)) of weight (1,1,2,2) lies above two minimal
    diagrams of its weight."""
    diagrams = enumerate_diagrams((3, 2, 1, 0))
    dropped = GTDiagram(((3, 2, 1, 0), (3, 1, 0), (2, 0), (1,)))
    above = GTDiagram(((3, 2, 1, 0), (2, 1, 1), (1, 1), (1,)))
    assert len(diagrams) == 64 and dropped in diagrams and above.weight() == (1, 1, 2, 2)
    kept = [d for d in diagrams if d != dropped]
    with pytest.raises(AmbiguousMinimumError, match=re.escape(f"diagram {above.rows} lies above")):
        canonical_shift_table(kept)


def test_r_routes_multiplicity_on_gl4():
    diagrams = enumerate_diagrams((2, 1, 0, 0))
    table, _ = canonical_shift_table(diagrams)
    low = GTDiagram(((2, 1, 0, 0), (2, 0, 0), (2, 0), (1,)))
    high = GTDiagram(((2, 1, 0, 0), (1, 1, 0), (1, 1), (1,)))
    shift_low = next(s for s, _ in table if s.diagram == low)
    shift_high = next(s for s, _ in table if s.diagram == high)
    routes = r_routes(shift_low.gamma, shift_high.gamma)
    assert sorted(routes) == [(0, 0, 1, 1, 0), (0, 1, 0, 0, 0), (1, 0, 0, 1, 0)]


@pytest.mark.parametrize("n", range(3, 8))
def test_route_plan_closes_each_window_at_its_last_direction(n):
    """Window (i, j) is closed by direction (i, j, n, ()), the last in (i, j, x)
    order to move it, and no direction closes two windows."""
    basis = lattice_basis(n)
    windows = lattice._unit_windows(n)
    closed = [(windows[closes], basis[slot]) for slot, _, closes in lattice._route_plan(n) if closes is not None]
    assert sorted(window for window, _ in closed) == sorted(windows)
    assert all((vec.i, vec.j, vec.x, vec.X) == (i, j, n, ()) for (i, j), vec in closed)


@pytest.mark.parametrize("n", range(3, 13))
def test_route_plan_is_triangular_in_the_r_direction_coordinates(n):
    """T_b(r_b) = -1 for every r direction b, and T(r_b) is zero at every
    direction whose _route_plan step comes before b's: once a route walk has
    set the step of direction a, every coordinate t_a of gamma - s.r is fixed."""
    step = {slot: position for position, (slot, _, _) in enumerate(lattice._route_plan(n))}
    for b, (_, coordinates, _) in enumerate(lattice._r_directions(n)):
        assert dict(coordinates).get(b) == -1
        assert all(step[a] >= step[b] for a, _ in coordinates)


def test_degenerate_small_n():
    assert lattice_basis(2) == ()
    gamma = ExponentVector(2, [((1,), 1), ((1, 2), 1)])
    assert nonneg_points(gamma) == [gamma]
