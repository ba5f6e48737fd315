"""Generator actions, (A-)GKZ operators, Plucker generators."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from gtagkz.combinatorics import chi_pairs, enumerate_diagrams, highest_diagram
from gtagkz.gtbasis import BasisEntry, build_basis
from gtagkz.lattice import ExponentVector, lattice_basis, shift_from_diagram
from gtagkz.operators import agkz_apply, e_action, euler_weighted, plucker_generators
from gtagkz.polyengine import Polynomial, diff_apply, evaluate_minors, pair
from gtagkz.series import agkz_solution, gamma_series
from gtagkz import verify
from gtagkz.verify import _random_combination, seeded_matrices
import _linalg
from _reference import SESSION_WEIGHTS, canonical_shifts, gkz_apply


def random_span_element(polys, rng):
    out = Polynomial.zero(polys[0].n)
    for p in polys:
        c = rng.randint(-3, 3)
        if c:
            out = out + p.scale(c)
    return out


def test_e_action_column_substitution():
    assert e_action(1, 2, Polynomial.variable(3, (2,))) == Polynomial.variable(3, (1,))
    # substitution introducing a sorting transposition picks up a sign
    got = e_action(3, 1, Polynomial.variable(3, (1, 2)))
    assert got == -Polynomial.variable(3, (2, 3))


def test_e_action_kills_repeated_columns():
    assert e_action(1, 2, Polynomial.variable(3, (1, 2))).is_zero()


def test_raising_operators_annihilate_highest_vector():
    for top in ((2, 1, 0), (2, 1, 0, 0)):
        v0 = gamma_series(shift_from_diagram(highest_diagram(top)).gamma)
        for i in range(1, len(top)):
            assert e_action(i, i + 1, v0).is_zero()


def test_diagonal_action_reads_weight():
    for d in enumerate_diagrams((2, 1, 0)):
        f = gamma_series(shift_from_diagram(d).gamma)
        w = d.weight()
        for i in range(1, 4):
            assert e_action(i, i, f) == f.scale(w[i - 1])


@pytest.mark.parametrize("n,top", [(3, (2, 1, 0)), (4, (1, 1, 0, 0))])
def test_commutation_relations(n, top):
    rng = random.Random(23)
    polys = [e.agkz_poly for e in build_basis(top).entries]
    f = random_span_element(polys, rng)
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        lhs = e_action(i, j, e_action(k, l, f)) - e_action(k, l, e_action(i, j, f))
        rhs = Polynomial.zero(n)
        if j == k:
            rhs = rhs + e_action(i, l, f)
        if l == i:
            rhs = rhs - e_action(k, j, f)
        assert lhs == rhs


def test_pairing_invariance_under_transposed_generators():
    rng = random.Random(29)
    polys = [e.agkz_poly for e in build_basis((2, 1, 0, 0)).entries]
    for _ in range(10):
        f = random_span_element(polys, rng)
        g = random_span_element(polys, rng)
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        assert pair(e_action(i, j, f), g) == pair(f, e_action(j, i, g))


def test_random_combination_matches_repeated_sum():
    polys = [e.agkz_poly for e in build_basis((2, 1, 0, 0)).entries]
    for seed in range(5):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert _random_combination(polys, rng) == random_span_element(polys, reference)
        assert rng.random() == reference.random()


def test_generator_action_stays_in_span():
    basis = build_basis((2, 1, 0, 0))
    polys = [e.agkz_poly for e in basis.entries]
    monomials = sorted({e for p in polys for e in p.terms}, key=lambda e: e.sort_key())
    matrix = [[p.terms.get(e, Fraction(0)) for p in polys] for e in monomials]
    base_rank = _linalg.rank(matrix)
    rng = random.Random(31)
    for _ in range(8):
        idx = rng.randrange(len(polys))
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        image = e_action(i, j, polys[idx])
        column = [image.terms.get(e, Fraction(0)) for e in monomials]
        augmented = [row + [value] for row, value in zip(matrix, column)]
        assert _linalg.rank(augmented) == base_rank


def test_gkz_operator_examples():
    assert gkz_apply(0, Polynomial.variable(3, (1,))).is_zero()
    for d in enumerate_diagrams((2, 1, 0)):
        assert gkz_apply(0, gamma_series(shift_from_diagram(d).gamma)).is_zero()


def _second_derivative(part, f):
    """The reference derivative along one quadratic monomial."""
    return diff_apply(Polynomial.monomial(part), f)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_operators_equal_the_three_derivative_composition(n):
    """gkz_apply is D(v+) - D(v-) and agkz_apply adds D(v0), on random
    polynomials and on the lattice series and solutions of one weight."""
    rng = random.Random(40 + n)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), size) for size in range(1, n + 1)
    ))
    polys = []
    for _ in range(6):
        terms = []
        for _ in range(rng.randint(1, 6)):
            exponent = ExponentVector(n, [(X, rng.randint(0, 3)) for X in rng.sample(subsets, 4)])
            terms.append((exponent, Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
        polys.append(Polynomial(n, terms))
    top = (2, 1) + (0,) * (n - 2)
    for shift in canonical_shifts(enumerate_diagrams(top)):
        polys += [gamma_series(shift.gamma), agkz_solution(shift.gamma)]
    for f in polys:
        for alpha, vec in enumerate(lattice_basis(n)):
            plus, minus, zero = (
                _second_derivative(part, f) for part in (vec.v_plus, vec.v_minus, vec.v_zero)
            )
            assert gkz_apply(alpha, f) == plus - minus
            assert agkz_apply(alpha, f) == plus - minus + zero


def test_agkz_on_plucker_monomial():
    vec = lattice_basis(3)[0]
    result = agkz_apply(0, Polynomial.monomial(vec.v_zero))
    assert result == Polynomial.monomial(ExponentVector.zero(3))


def test_agkz_annihilates_highest_vector():
    for top in ((2, 1, 0), (2, 1, 0, 0)):
        n = len(top)
        v0 = gamma_series(shift_from_diagram(highest_diagram(top)).gamma)
        for alpha in range(len(lattice_basis(n))):
            assert agkz_apply(alpha, v0).is_zero()


def test_agkz_annihilates_all_solutions_gl3():
    for shift in canonical_shifts(enumerate_diagrams((3, 1, 0))):
        assert agkz_apply(0, agkz_solution(shift.gamma)).is_zero()


def test_plucker_generator_gl3():
    (generator,) = plucker_generators(3)
    expected = (
        Polynomial.monomial(ExponentVector(3, [((1,), 1), ((2, 3), 1)]))
        - Polynomial.monomial(ExponentVector(3, [((2,), 1), ((1, 3), 1)]))
        + Polynomial.monomial(ExponentVector(3, [((3,), 1), ((1, 2), 1)]))
    )
    assert generator == expected


@pytest.mark.parametrize("n", [3, 4])
def test_plucker_generators_vanish_on_minors(n):
    matrices = seeded_matrices(n, 0, 10)
    for generator in plucker_generators(n):
        for m in matrices:
            assert evaluate_minors(generator, m) == 0


def test_plucker_generators_annihilate_solutions():
    for shift in canonical_shifts(enumerate_diagrams((2, 1, 0, 0))):
        solution = agkz_solution(shift.gamma)
        for generator in plucker_generators(4):
            assert diff_apply(generator, solution).is_zero()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_plucker_generators_are_built_once_per_n(n):
    generators = plucker_generators(n)
    assert plucker_generators(n) is generators
    assert len(generators) == len(lattice_basis(n))
    for alpha, vec in enumerate(lattice_basis(n)):
        assert generators[alpha] == (
            Polynomial.monomial(vec.v_plus)
            - Polynomial.monomial(vec.v_minus)
            + Polynomial.monomial(vec.v_zero)
        )


def test_both_annihilation_checks_read_one_set_of_plucker_products(monkeypatch):
    ctx = verify.VerifyContext((2, 1, 0, 0))
    entries, k = ctx.basis.entries, len(lattice_basis(4))
    calls = []

    def counting(alpha, f):
        calls.append(alpha)
        return agkz_apply(alpha, f)

    monkeypatch.setattr(verify, "agkz_apply", counting)
    monkeypatch.setattr(verify, "diff_apply", None)  # neither check applies its own
    assert verify.check_agkz_annihilation(ctx).passed
    assert verify.check_plucker_annihilation(ctx).passed
    assert len(calls) == len(entries) * k
    assert ctx.plucker_nonzero == frozenset()


def test_a_nonzero_plucker_product_fails_both_checks_alike(monkeypatch):
    ctx = verify.VerifyContext((2, 1, 0, 0))
    entries, k = ctx.basis.entries, len(lattice_basis(4))
    broken = entries[1].agkz_poly

    def applying(alpha, f):
        return Polynomial.variable(4, (1,)) if (alpha, f) == (2, broken) else agkz_apply(alpha, f)

    monkeypatch.setattr(verify, "agkz_apply", applying)
    assert ctx.plucker_nonzero == frozenset({(1, 2)})
    failure = f"({entries[1].diagram.rows}, 2)"
    agkz, plucker = verify.check_agkz_annihilation(ctx), verify.check_plucker_annihilation(ctx)
    assert not agkz.passed and agkz.detail == f"{len(entries)} solutions x {k} operators -- FAILED: {failure}"
    assert not plucker.passed and plucker.detail == f"{k} generators, 20 matrices -- FAILED: {failure}"



def homogeneity_operator_failures(ctx):
    """The failures of gkz-homogeneity in its operator form: the Euler operator
    of chi_p^q applied to each series against the series scaled by m_{p,q}."""
    return [
        (entry.diagram.rows, (p, q))
        for entry in ctx.basis.entries
        for p, q in chi_pairs(ctx.n)
        if euler_weighted(p, q, entry.gamma_poly) != entry.gamma_poly.scale(entry.diagram.m(p, q))
    ]


def test_session_weights_are_the_seventeen():
    assert len(SESSION_WEIGHTS) == 17


@pytest.mark.parametrize("top", SESSION_WEIGHTS)
def test_gkz_homogeneity_agrees_with_its_operator_form(top):
    ctx = verify.VerifyContext(top)
    result = verify.check_gkz_homogeneity(ctx)
    assert result.passed and result.detail == "all (p, q)"
    assert homogeneity_operator_failures(ctx) == []


def test_gkz_homogeneity_and_its_operator_form_fail_alike_off_class():
    """One term of one series moved off its class (times A_1): both forms fail
    on the same (diagram, (p, q)) pairs, and the detail lists them."""
    entries = list(verify.VerifyContext((4, 2, 0)).basis.entries)
    idx = next(i for i, e in enumerate(entries) if len(e.gamma_poly.terms) >= 2)
    entry = entries[idx]
    terms = list(entry.gamma_poly.terms.items())
    moved_exponent = terms[0][0] + ExponentVector.unit(3, (1,))
    moved = Polynomial(3, [(moved_exponent, terms[0][1])] + terms[1:])
    entries[idx] = BasisEntry(entry.diagram, entry.shift, moved, entry.agkz_poly, entry.witness)
    ctx = SimpleNamespace(n=3, basis=SimpleNamespace(entries=tuple(entries)))
    result = verify.check_gkz_homogeneity(ctx)
    failures = homogeneity_operator_failures(ctx)
    assert failures and all(rows == entry.diagram.rows for rows, _ in failures)
    assert not result.passed
    assert result.detail == "all (p, q)" + verify._failure_note(failures)
