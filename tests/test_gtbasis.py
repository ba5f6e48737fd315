"""Gram matrices, orthogonalization coefficients, and the orthogonal basis."""

from fractions import Fraction

import pytest

from gtagkz import gtbasis, lattice
from gtagkz.combinatorics import GTDiagram, highest_diagram
from gtagkz.gtbasis import (
    AmbiguousSupportError,
    CoefficientTable,
    _pochhammer_expansion,
    DegenerateMetricError,
    build_basis,
    canonical_form,
    coeff_C_alt,
    gram_matrix,
    gt_function,
    hypergeometric_constants,
    representation,
    weyl_dimension,
)
from gtagkz.lattice import class_order, lattice_basis, nonneg_points, r_shift
from gtagkz.polyengine import evaluate_at_ones, evaluate_minors, pair
from gtagkz.series import feasible_up_shifts, gamma_series, rising
from gtagkz.verify import seeded_matrices

from _reference import SESSION_WEIGHTS, coeff_C, f_pair_series


def index_of(basis, diagram):
    return [entry.diagram for entry in basis.entries].index(diagram)


def lagrange_orthogonalize(basis):
    """Generic exact Gram-Schmidt in a total order refining the partial order.

    Reference for the S table: shares no code with it, projects each solution
    against every earlier output, not only its down-set.  Output is aligned
    with basis.entries and spans the same flags as the gt functions.
    """
    order = sorted(
        range(len(basis.entries)),
        key=lambda i: (sum(basis.entries[i].witness), basis.entries[i].diagram.rows),
    )
    outputs = [None] * len(basis.entries)
    processed = []
    for idx in order:
        candidate = basis.entries[idx].agkz_poly
        for jdx in processed:
            previous = outputs[jdx]
            overlap = pair(candidate, previous)
            if overlap:
                candidate = candidate - previous.scale(overlap / pair(previous, previous))
        if pair(candidate, candidate) == 0:
            raise DegenerateMetricError("singular pairing during orthogonalization")
        outputs[idx] = candidate
        processed.append(idx)
    return outputs


def proportional(f, g):
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    common = set(f.terms) & set(g.terms)
    if not common:
        return False
    exponent = next(iter(common))
    scalar = f.terms[exponent] / g.terms[exponent]
    return g.scale(scalar) == f


def test_weyl_dimension_values():
    assert weyl_dimension((2, 1, 0)) == 8
    assert weyl_dimension((1, 1, 0, 0)) == 6
    assert weyl_dimension((2, 1, 0, 0)) == 20
    assert weyl_dimension((0, 0, 0)) == 1


def test_build_basis_sizes():
    for top in ((2, 1, 0), (1, 1, 0, 0)):
        basis = build_basis(top)
        assert len(basis.entries) == weyl_dimension(top)


def test_gram_highest_diagonal_is_one():
    basis = build_basis((2, 1, 0))
    idx = index_of(basis, highest_diagram((2, 1, 0)))
    gram = gram_matrix(basis)
    assert gram[idx][idx] == 1


def test_gram_vanishes_across_weights():
    basis = build_basis((2, 1, 0))
    gram = gram_matrix(basis)
    for a, ea in enumerate(basis.entries):
        for b, eb in enumerate(basis.entries):
            if ea.diagram.weight() != eb.diagram.weight():
                assert gram[a][b] == 0


def test_gram_sparsity_matches_comparability_on_multiplicity_free_rep():
    from gtagkz.lattice import coset_leq

    basis = build_basis((1, 1, 0, 0))
    gram = gram_matrix(basis)
    for a, ea in enumerate(basis.entries):
        for b, eb in enumerate(basis.entries):
            comparable = (
                coset_leq(ea.shift.gamma, eb.shift.gamma) is not None
                or coset_leq(eb.shift.gamma, ea.shift.gamma) is not None
            )
            assert (gram[a][b] != 0) == comparable


def test_gl3_hand_computed_gram_block():
    basis = build_basis((2, 1, 0))
    low = index_of(basis, GTDiagram(((2, 1, 0), (2, 0), (1,))))
    high = index_of(basis, GTDiagram(((2, 1, 0), (1, 1), (1,))))
    gram = gram_matrix(basis)
    assert gram[low][low] == 2
    assert gram[high][high] == 6
    assert gram[low][high] == gram[high][low] == -3


def test_coeff_C_examples():
    basis = build_basis((2, 1, 0))
    table = CoefficientTable(basis)
    top = index_of(basis, highest_diagram((2, 1, 0)))
    assert table.C[(top, (0,))] == 1
    # infeasible step below the bottom of a chain gives 0
    low = basis.entries[index_of(basis, GTDiagram(((2, 1, 0), (2, 0), (1,))))]
    assert coeff_C(low.shift.gamma, (1,)) == 0


@pytest.mark.parametrize("top", [(2, 1, 0), (1, 1, 0, 0), (2, 1, 0, 0)])
def test_coeff_dual_route_agreement(top):
    basis = build_basis(top)
    table = CoefficientTable(basis)
    for (idx, l), value in table.C.items():
        assert coeff_C_alt(basis.entries[idx].shift.gamma, l) == value


@pytest.mark.parametrize("top", [(8, 4, 0), (3, 2, 1, 0), (2, 1, 0, 0, 0)])
def test_coeff_C_is_the_paired_series_at_ones(top):
    """The coefficient sum equals the value at 1 of the built polynomial."""
    basis = build_basis(top)
    table = CoefficientTable(basis)
    for idx, l in table.C:
        shift = basis.entries[idx].shift
        delta = shift.gamma - r_shift(basis.n, l)
        expected = evaluate_at_ones(f_pair_series(delta, l))
        assert coeff_C(shift.gamma, l) == table.C[(idx, l)] == expected


@pytest.mark.parametrize("a", range(8))
def test_pochhammer_expansion_closed_form(a):
    """rising(t,a) rising(t,b) = sum_j (-1)^j C(a,j) C(b,j) j! rising(t, a+b-j)."""
    for b in range(8):
        table = _pochhammer_expansion(a, b)
        assert set(table) == set(range(max(a, b), a + b + 1))
        for t in range(-3, 20):
            assert rising(t, a) * rising(t, b) == sum(k * rising(t, c) for c, k in table.items())


def test_coeff_series_equals_exact_pairing_without_parallel_routes():
    for top in ((2, 1, 0), (3, 1, 0), (1, 1, 0, 0)):
        table = CoefficientTable(build_basis(top))
        assert table.C == table.C_exact


def test_parallel_routes_break_the_closed_form_on_gl4():
    # three distinct r-routes join one pair of classes here; the closed-form
    # series counts aligned routes only, the exact pairing is authoritative
    basis = build_basis((2, 1, 0, 0))
    table = CoefficientTable(basis)
    idx = index_of(basis, GTDiagram(((2, 1, 0, 0), (1, 1, 0), (1, 1), (1,))))
    zero = (0,) * 5
    assert table.C_exact[(idx, zero)] == 2
    assert table.C[(idx, zero)] == 4
    assert table.C[(idx, zero)] != table.C_exact[(idx, zero)]


def test_coeff_S_formulas():
    basis = build_basis((2, 1, 0))
    table = CoefficientTable(basis)
    idx = index_of(basis, GTDiagram(((2, 1, 0), (1, 1), (1,))))
    assert table.S[(idx, (0,))] == Fraction(1, 6)
    assert table.S[(idx, (1,))] == Fraction(3, 12)  # -(-3)/(6*2)


def test_S_keeps_the_diagonal_and_the_first_order_inversion_on_short_chains():
    basis = build_basis((4, 2, 0))
    table = CoefficientTable(basis)
    zero = (0,)
    for idx in range(len(basis.entries)):
        assert table.S[(idx, zero)] == 1 / table.C_exact[(idx, zero)]
    # chains of length at most two: Gram-Schmidt reduces to -C / (d d')
    for top in ((2, 1, 0), (3, 1, 0), (2, 1, 0, 0)):
        table = CoefficientTable(build_basis(top))
        zero = (0,) * len(lattice_basis(len(top)))
        for idx, lowers in table.lowers.items():
            diagonal = table.C_exact[(idx, zero)]
            for jdx, l in lowers:
                if l != zero:
                    expected = -table.C_exact[(idx, l)] / (diagonal * table.C_exact[(jdx, zero)])
                    assert table.S[(idx, l)] == expected


LADDER = [(2, 1, 0), (4, 2, 0), (6, 3, 0), (8, 4, 0), (2, 1, 0, 0), (2, 2, 1, 0), (3, 1, 0, 0)]


@pytest.mark.parametrize("top", LADDER + SESSION_WEIGHTS)
def test_norms_are_the_pairing_of_each_gt_function_with_itself(top):
    basis, table, polys = representation(top)
    assert sorted(table.norms) == list(range(len(basis.entries)))
    for idx, g in enumerate(polys):
        assert table.norms[idx] == pair(g, g)
    with pytest.raises(TypeError):
        table.norms[0] = 0


@pytest.mark.parametrize("top", LADDER)
def test_lowers_are_the_class_order_of_the_canonical_shifts(top):
    basis = build_basis(top)
    expected = class_order([entry.shift for entry in basis.entries])
    assert dict(CoefficientTable(basis).lowers) == dict(enumerate(expected))


def test_class_order_runs_once_per_representation(monkeypatch):
    calls = []

    def counting(shifts):
        calls.append(shifts)
        return class_order(shifts)

    for module in (lattice, gtbasis):  # counted wherever a module calls it from
        monkeypatch.setattr(module, "class_order", counting, raising=False)
    representation.cache_clear()
    representation((3, 1, 0, 0))
    assert len(calls) == 1
    representation.cache_clear()


def test_gt_function_highest_is_normalized_highest_vector():
    basis = build_basis((2, 1, 0))
    top = highest_diagram((2, 1, 0))
    shift = basis.entries[index_of(basis, top)].shift
    g = gt_function(shift.gamma, basis, CoefficientTable(basis))
    assert proportional(g, gamma_series(shift.gamma))


def test_gt_function_finds_each_entry_by_its_shift_and_rejects_others():
    """gt_function looks each shift up in the table's positions; representation
    builds the same G functions, in entry order."""
    basis, table, polys = representation((2, 1, 0, 0))
    for idx, entry in enumerate(basis.entries):
        assert table.positions[entry.shift.gamma] == idx
        assert gt_function(entry.shift.gamma, basis, table) == polys[idx]
    outside = basis.entries[0].shift.gamma + basis.entries[0].shift.gamma
    with pytest.raises(KeyError):
        gt_function(outside, basis, table)
    with pytest.raises(TypeError):
        table.positions[outside] = 0


LONG_CHAINS = [(4, 2, 0), (3, 1, 0, 0), (2, 1, 1, 0)]


@pytest.mark.parametrize("top", [(2, 1, 0), (1, 1, 0, 0), (2, 1, 0, 0)] + LONG_CHAINS)
def test_gt_basis_orthogonal(top):
    _, _, polys = representation(top)
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            assert pair(polys[a], polys[b]) == 0


def test_gl6_basis_has_the_weyl_dimension_and_is_orthogonal():
    top = (1, 1, 1, 0, 0, 0)
    basis, _, polys = representation(top)
    assert len(basis) == weyl_dimension(top) == 20
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            assert pair(polys[a], polys[b]) == 0


@pytest.mark.parametrize("top", [(2, 1, 0), (1, 1, 0, 0), (2, 1, 0, 0)] + LONG_CHAINS)
def test_lagrange_matches_gt_functions(top):
    basis, _, polys = representation(top)
    generic = lagrange_orthogonalize(basis)
    for a in range(len(generic)):
        for b in range(a + 1, len(generic)):
            assert pair(generic[a], generic[b]) == 0
        assert proportional(polys[a], generic[a])


def test_lagrange_keeps_isolated_solutions():
    basis = build_basis((1, 1, 0, 0))
    generic = lagrange_orthogonalize(basis)
    for entry, out in zip(basis.entries, generic):
        assert out == entry.agkz_poly


def test_canonical_form_highest_diagram_single_term():
    basis = build_basis((2, 1, 0))
    shift = basis.entries[index_of(basis, highest_diagram((2, 1, 0)))].shift
    reduced = canonical_form(shift.gamma)
    assert reduced == gamma_series(shift.gamma)


def test_canonical_form_hand_computed_two_step_chain():
    basis = build_basis((2, 1, 0))
    low = basis.entries[index_of(basis, GTDiagram(((2, 1, 0), (2, 0), (1,))))]
    reduced = canonical_form(low.shift.gamma)
    terms = {e.items(): c for e, c in reduced.terms.items()}
    assert terms == {
        (((2,), 1), ((1, 3), 1)): Fraction(2),
        (((3,), 1), ((1, 2), 1)): Fraction(-1),
    }


def test_canonical_form_keeps_a_nonnegative_ray_point():
    """The s = 0 term of ((2,1,0),(2,0),(1,)) sits at the ray point gamma
    itself, though gamma's class holds two nonnegative points."""
    basis = build_basis((2, 1, 0))
    gamma = basis.entries[index_of(basis, GTDiagram(((2, 1, 0), (2, 0), (1,))))].shift.gamma
    assert len(nonneg_points(gamma)) == 2
    (s, constant), _ = hypergeometric_constants(gamma, feasible_up_shifts(gamma))
    assert s == (0,)
    assert canonical_form(gamma).coefficient(gamma) == constant == 2


@pytest.mark.parametrize("top", [(8, 4, 0), (2, 1, 0, 0), (2, 1, 1, 0), (3, 1, 0, 0)])
def test_canonical_form_is_ambiguous_only_off_the_ray(top):
    """Each term sits at its ray point gamma + s.r when that point is
    nonnegative; AmbiguousSupportError comes exactly when some ray point is
    negative and its class does not hold exactly one nonnegative point."""
    for entry in build_basis(top).entries:
        gamma = entry.shift.gamma
        terms = list(hypergeometric_constants(gamma, feasible_up_shifts(gamma)))
        rays = [gamma + r_shift(gamma.n, s) for s, _ in terms]
        if any(not ray.is_nonnegative() and len(nonneg_points(ray)) != 1 for ray in rays):
            with pytest.raises(AmbiguousSupportError):
                canonical_form(gamma)
            continue
        reduced = canonical_form(gamma)
        for ray, (_, constant) in zip(rays, terms):
            if ray.is_nonnegative():
                assert reduced.coefficient(ray) == constant


@pytest.mark.parametrize("top", [(2, 1, 0), (3, 1, 0), (1, 1, 0, 0)])
def test_canonical_form_minor_identity(top):
    basis = build_basis(top)
    matrices = seeded_matrices(len(top), 0, 10)
    for entry in basis.entries:
        difference = entry.gamma_poly - canonical_form(entry.shift.gamma)
        for m in matrices:
            assert evaluate_minors(difference, m) == 0


def test_canonical_form_pairing_consistency():
    basis = build_basis((2, 1, 0))
    for entry in basis.entries:
        reduced = canonical_form(entry.shift.gamma)
        for other in basis.entries:
            assert pair(reduced, other.agkz_poly) == pair(
                entry.gamma_poly, other.agkz_poly
            )


def test_gl3_gt_functions_coincide_with_lattice_series_mod_relations():
    basis, _, polys = representation((2, 1, 0))
    matrices = seeded_matrices(3, 0, 10)
    for idx, entry in enumerate(basis.entries):
        scalar = pair(polys[idx], entry.agkz_poly) / pair(entry.gamma_poly, entry.agkz_poly)
        difference = polys[idx] - entry.gamma_poly.scale(scalar)
        for m in matrices:
            assert evaluate_minors(difference, m) == 0
