"""Class-to-class r-routes against the blind weighted-simplex searches.

The references below enumerate multi-indices blindly and probe every
candidate class for a nonnegative point with nonneg_points; the pipeline
instead reads the routes off the unit-window defect between Gelfand-Tsetlin
patterns.  Both must give the same sets on shifts, on the differences
omega - gamma that the operator identity feeds back into agkz_solution,
and on arrays that are no diagram at all.
"""

import itertools

import pytest

from gtagkz.combinatorics import chi_apply, chi_pairs, enumerate_diagrams
from gtagkz.lattice import (
    ExponentVector,
    canonical_shifts,
    chi_table,
    lattice_basis,
    nonneg_points,
    r_routes,
    r_shift,
)
from gtagkz.series import feasible_down_shifts, feasible_up_shifts
from gtagkz.verify import osnf_shifts

WEIGHTS = ((2, 1, 0), (4, 2, 0), (3, 1, 0), (2, 1, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0))


def _chi(v):
    return {pq: chi_apply(*pq, v) for pq in chi_pairs(v.n)}


def _psi(v):
    """Weighted functional sum; subtracting r^alpha lowers it by x - j >= 1."""
    return sum(p * value for (p, _), value in _chi(v).items())


def _simplex(gamma, budget, exact=False):
    """Pairs (s, chi values of gamma - s.r) over every s >= 0 with
    sum (x - j) s_alpha <= budget, or == budget when exact."""
    basis = lattice_basis(gamma.n)
    costs = [vec.x - vec.j for vec in basis]
    tables = [chi_table(vec.r) for vec in basis]

    def fill(alpha, remaining, table):
        if alpha == len(basis):
            if not exact or remaining == 0:
                yield (), table
            return
        count = 0
        while count * costs[alpha] <= remaining:
            moved = tuple(v - count * r for v, r in zip(table, tables[alpha]))
            for tail, end in fill(alpha + 1, remaining - count * costs[alpha], moved):
                yield (count,) + tail, end
            count += 1

    return fill(0, budget, chi_table(gamma)) if budget >= 0 else iter(())


class BlindSearch:
    """The weighted-simplex searches, with memo tables keyed on chi values."""

    def __init__(self):
        self.feasible = {}  # chi values -> whether the class holds a nonnegative point
        self.reaches = {}  # chi values -> whether a feasible class lies at or below

    def has_point(self, n, table, representative):
        """Whether the class with these chi values holds a nonnegative point."""
        if table not in self.feasible:
            # chi_p^q <= chi_p'^q' pointwise on subsets when p' <= p and q <= q'
            chi = dict(zip(chi_pairs(n), table))
            self.feasible[table] = (
                all(value >= 0 for value in table)
                and all(p == 1 or value <= chi[(p - 1, q)] for (p, q), value in chi.items())
                and all(q == n or value <= chi[(p, q + 1)] for (p, q), value in chi.items())
                and bool(nonneg_points(representative()))
            )
        return self.feasible[table]

    def down_shifts(self, gamma):
        """Every s in the psi simplex whose class gamma - s.r has a nonnegative point."""
        n = gamma.n
        return [
            s
            for s, table in _simplex(gamma, _psi(gamma))
            if self.has_point(n, table, lambda: gamma - r_shift(n, s))
        ]

    def up_shifts(self, gamma):
        """Level-by-level search up the r directions, bounded by the chi values left."""
        n = gamma.n
        basis = lattice_basis(n)
        r_chi = [_chi(vec.r) for vec in basis]
        order = sorted(range(len(basis)), key=lambda a: (basis[a].i, a))
        found = []
        current = [0] * len(basis)

        def search(position, state):
            if position == len(order):
                s = tuple(current)
                table = tuple(state[pq] for pq in chi_pairs(n))
                if self.has_point(n, table, lambda: gamma + r_shift(n, s)):
                    found.append(s)
                return
            alpha = order[position]
            vec = basis[alpha]
            limit = min(state[(vec.i, q)] for q in range(vec.j, vec.x))
            for count in range(limit + 1):
                current[alpha] = count
                search(position + 1, {pq: state[pq] + count * r_chi[alpha][pq] for pq in state})
            current[alpha] = 0

        search(0, _chi(gamma))
        return sorted(found)

    def reaches_point(self, vector):
        """Whether the class of vector - t.r holds a nonnegative point for some t >= 0."""
        table = chi_table(vector)
        if table not in self.reaches:
            self.reaches[table] = _psi(vector) >= 0 and (
                self.has_point(vector.n, table, lambda: vector)
                or any(self.reaches_point(vector - vec.r) for vec in lattice_basis(vector.n))
            )
        return self.reaches[table]

    def osnf_shifts(self, base):
        """Every s in the psi simplex of base with a feasible class at or below base - s.r."""
        n = base.n
        return [
            s
            for s, _ in _simplex(base, _psi(base))
            if self.reaches_point(base - r_shift(n, s))
        ]


def oracle_routes(gamma, delta):
    """Every s of weighted cost psi(delta) - psi(gamma) joining the two classes."""
    target = chi_table(gamma)
    budget = _psi(delta) - _psi(gamma)
    return [s for s, table in _simplex(delta, budget, exact=True) if table == target]


def _shifts(top):
    return [shift.gamma for shift in canonical_shifts(enumerate_diagrams(top))]


def _differences(top):
    shifts = _shifts(top)
    return {omega - gamma for gamma, omega in itertools.product(shifts, repeat=2)}


NON_DIAGRAMS = (
    ExponentVector(3, [((1,), 2), ((2,), -1)]),  # betweenness fails, nothing below
    ExponentVector(3, [((1,), 1), ((1, 2, 3), -1)]),  # negative full-set count
    # raised by r from a shift: not a pattern, but patterns lie below
    ExponentVector(3, [((1,), -2), ((2,), 1), ((3,), 2), ((1, 2), 2), ((1, 3), 1), ((2, 3), -2)]),
    ExponentVector(4, [
        ((1,), -3), ((2,), 1), ((3,), 2), ((4,), 1), ((1, 2), 1),
        ((1, 3), 1), ((1, 4), 1), ((2, 3), -1), ((3, 4), -1),
    ]),
)
# points times a power of the full-set minor: the classes sit on a raised top row
FULL_SET_MULTIPLES = (
    ExponentVector(3, [((2,), 1), ((1, 3), 1), ((1, 2, 3), 2)]),
    ExponentVector(4, [((1,), 1), ((2, 3, 4), 1), ((1, 2, 3, 4), 1)]),
)


@pytest.fixture(scope="module")
def blind():
    """One search for the module, so the memo tables carry across the sweep."""
    return BlindSearch()


@pytest.mark.parametrize("top", WEIGHTS)
def test_down_and_up_shifts_match_the_blind_searches_on_shifts(top, blind):
    for gamma in _shifts(top):
        assert list(feasible_down_shifts(gamma)) == blind.down_shifts(gamma)
        assert list(feasible_up_shifts(gamma)) == blind.up_shifts(gamma)


@pytest.mark.parametrize("top", WEIGHTS)
def test_down_shifts_match_the_blind_search_on_differences(top, blind):
    for base in _differences(top):
        assert list(feasible_down_shifts(base)) == blind.down_shifts(base)


def test_shifts_match_the_blind_searches_on_non_diagram_arrays(blind):
    for vector in NON_DIAGRAMS + FULL_SET_MULTIPLES:
        assert list(feasible_down_shifts(vector)) == blind.down_shifts(vector)
        assert list(feasible_up_shifts(vector)) == blind.up_shifts(vector)
    # a full-set multiple has a psi simplex too large for the blind osnf search
    for vector in NON_DIAGRAMS:
        assert osnf_shifts(vector) == blind.osnf_shifts(vector)


@pytest.mark.parametrize("top", WEIGHTS)
def test_r_routes_match_the_blind_search(top):
    shifts = _shifts(top)
    for gamma, delta in itertools.product(shifts, repeat=2):
        assert r_routes(gamma, delta) == oracle_routes(gamma, delta)


def test_r_routes_match_the_blind_search_on_deeper_defects():
    """Defects of two units per direction, which the small weights never reach."""
    gamma = _shifts((2, 1, 0, 0))[0]
    for u in itertools.product(range(3), repeat=len(lattice_basis(4))):
        delta = gamma + r_shift(4, u)
        assert r_routes(gamma, delta) == oracle_routes(gamma, delta)


@pytest.mark.parametrize("top", WEIGHTS)
def test_osnf_index_set_is_where_a_solution_can_survive(top, blind):
    """Outside osnf_shifts(base) no class below base - s.r is feasible."""
    for base in _differences(top):
        assert osnf_shifts(base) == blind.osnf_shifts(base)
