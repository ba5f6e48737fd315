"""Exact polynomial arithmetic, the pairing, and evaluation at matrices."""

import json
import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

import _linalg
from _reference import FractionPolynomial
from gtagkz import polyengine, verify
from gtagkz.combinatorics import enumerate_subsets
from gtagkz.gtbasis import build_basis
from gtagkz.lattice import ExponentVector
from gtagkz.polyengine import (
    Polynomial,
    diff_apply,
    evaluate_at_minors,
    evaluate_at_ones,
    evaluate_minors,
    exponent_factorial,
    minor_values,
    pair,
    poly_from_json,
    poly_to_json,
    rational_sum,
)
from gtagkz.verify import seeded_matrices


def ev(n, *pairs):
    return ExponentVector(n, pairs)


def random_poly(n, rng, terms=4, max_power=2):
    subsets = enumerate_subsets(n)
    out = Polynomial.zero(n)
    for _ in range(terms):
        exponent = ExponentVector(
            n,
            [
                (X, rng.randint(0, max_power))
                for X in rng.sample(subsets, k=min(3, len(subsets)))
            ],
        )
        out = out + Polynomial.monomial(exponent, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return out


def test_add_cancels():
    f = Polynomial.variable(3, (1,)) + Polynomial.variable(3, (2, 3))
    assert (f - f).is_zero()
    assert (f + (-f)).is_zero()


def test_mul_of_variables():
    f = Polynomial.variable(3, (1,)) * Polynomial.variable(3, (1, 2))
    assert f == Polynomial.monomial(ev(3, ((1,), 1), ((1, 2), 1)))


def test_scale_and_dimension_mismatch():
    f = Polynomial.variable(3, (1,))
    assert f.scale(Fraction(1, 2)).coefficient(ev(3, ((1,), 1))) == Fraction(1, 2)
    with pytest.raises(ValueError):
        f + Polynomial.variable(4, (1,))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Polynomial.monomial(ev(3, ((1,), -1)))


def test_fraction_coefficients_still_get_validated_exponents():
    half = Fraction(1, 2)
    with pytest.raises(ValueError):
        Polynomial(3, [(ev(3, ((1,), -1)), half)])
    with pytest.raises(ValueError):
        Polynomial(3, [(ev(4, ((1,), 1)), half)])
    f = Polynomial(3, [(ev(3, ((1,), 1)), half), (ev(3, ((2,), 1)), 3), (ev(3, ((1,), 1)), -half)])
    assert f.terms == {ev(3, ((2,), 1)): Fraction(3)}
    assert type(f.terms[ev(3, ((2,), 1))]) is Fraction


def test_rational_sum_matches_a_fraction_sum():
    assert rational_sum([]) == 0 and isinstance(rational_sum([]), Fraction)
    rng = random.Random(11)
    for _ in range(300):
        pairs = [
            (rng.randint(-60, 60), rng.choice([1, 2, 6, 24, 720, rng.randint(1, 10**9)]))
            for _ in range(rng.randint(1, 15))
        ]
        assert rational_sum(iter(pairs)) == sum((Fraction(a, b) for a, b in pairs), Fraction(0))
    assert rational_sum([(1, 3), (-1, 3)]) == 0


LADDER = [(2, 1, 0), (4, 2, 0), (6, 3, 0), (8, 4, 0), (2, 1, 0, 0), (2, 2, 1, 0), (3, 1, 0, 0)]


@pytest.mark.parametrize("top", LADDER)
def test_pair_matches_a_fraction_loop_on_the_ladder(top):
    entries = build_basis(top).entries
    polys = [e.agkz_poly for e in entries] + [e.gamma_poly for e in entries[::2]]
    for f in polys:
        for g in polys:
            expected = Fraction(0)
            for exponent, coefficient in f.terms.items():
                if exponent in g.terms:
                    expected += coefficient * g.terms[exponent] * exponent_factorial(exponent)
            assert pair(f, g) == expected


def test_verify_computes_the_minors_of_each_matrix_once(monkeypatch):
    """The nonsingularity filter takes the minors of each candidate matrix once,
    rejected ones included, and the minor checks read those: none of their own."""
    n, seed, count = 4, 25, 6
    verify._seeded_matrices.cache_clear()  # a fresh (n, seed, count) key
    rng = random.Random(seed)
    candidates, kept = [], 0
    while kept < count:  # the filter's draws, with an independent determinant
        candidates.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        kept += _linalg.det(candidates[-1]) != 0
    assert len(candidates) > count  # the seed draws a singular candidate
    calls = []

    def counting(matrix, size):
        calls.append([list(row) for row in matrix])
        return minor_values(matrix, size)

    monkeypatch.setattr(verify, "minor_values", counting)
    monkeypatch.setattr(polyengine, "minor_values", counting)
    ctx = verify.VerifyContext((2, 1, 0, 0), seed=seed, matrix_count=count)
    assert len(ctx.minors) == len(ctx.matrices) == count
    assert calls == candidates
    calls.clear()
    assert verify.check_plucker_annihilation(ctx).passed
    assert verify.check_canf_minor_identity(ctx).passed
    assert calls == []


def test_diff_apply_single_variable():
    x = Polynomial.variable(3, (1, 3))
    assert diff_apply(x, x * x) == x.scale(2)


def test_pair_monomial_factorials():
    gamma = ev(3, ((1,), 2), ((2, 3), 3))
    delta = ev(3, ((1,), 1), ((2, 3), 3))
    a, b = Polynomial.monomial(gamma), Polynomial.monomial(delta)
    assert pair(a, a) == factorial(2) * factorial(3) == exponent_factorial(gamma)
    assert pair(a, b) == 0


def test_pair_symmetric_and_adjoint():
    rng = random.Random(11)
    for _ in range(8):
        f, g = random_poly(3, rng), random_poly(3, rng)
        assert pair(f, g) == pair(g, f)
        x = Polynomial.variable(3, (1, 2))
        assert pair(x * f, g) == pair(f, diff_apply(x, g))


def test_evaluate_at_ones_is_coefficient_sum():
    assert evaluate_at_ones(Polynomial.zero(3)) == 0
    f = Polynomial.variable(3, (1,)).scale(Fraction(1, 3)) + Polynomial.variable(3, (2,))
    assert evaluate_at_ones(f) == Fraction(4, 3)


def test_minors_of_identity():
    n = 4
    identity = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    values = minor_values(identity, n)
    assert values[(1, 2, 3, 4)] == 1
    assert values[(1,)] == 1
    assert values[(2,)] == 0  # row 1, column 2 of the identity
    full = Polynomial.variable(n, (1, 2, 3, 4))
    assert evaluate_minors(full, identity) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_minor_values_match_determinants(n):
    rng = random.Random(n)
    for _ in range(30):
        matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        values = minor_values(matrix, n)
        assert list(values) == list(enumerate_subsets(n))
        for X, value in values.items():
            block = [[matrix[r][c - 1] for c in X] for r in range(len(X))]
            assert type(value) is int
            assert value == _linalg.det(block)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_matrices_match_a_determinant_filter(n, seed):
    """Filtering on the full-set minor keeps the matrices a det != 0 filter keeps."""
    rng = random.Random(seed)
    expected = []
    while len(expected) < 20:
        candidate = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if _linalg.det(candidate) != 0:
            expected.append(candidate)
    assert seeded_matrices(n, seed, 20) == expected


def test_evaluate_minors_exact_on_fraction_and_float_entries():
    mixed = [[0.5, Fraction(1, 3), 2], [-1.25, 3, Fraction(-2, 7)], [4, 0.75, 1e-3]]
    exact = [[Fraction(x) for x in row] for row in mixed]
    values = minor_values(mixed, 3)
    assert values == minor_values(exact, 3)
    for X, value in values.items():
        assert value == _linalg.det([[exact[r][c - 1] for c in X] for r in range(len(X))])
    rng = random.Random(11)
    for _ in range(5):
        f = random_poly(3, rng)
        assert evaluate_minors(f, mixed) == evaluate_minors(f, exact)


def test_evaluate_at_minors_matches_evaluate_minors():
    rng = random.Random(4)
    for matrix in seeded_matrices(4, 3, 4):
        values = minor_values(matrix, 4)
        for _ in range(5):
            f = random_poly(4, rng)
            assert evaluate_at_minors(f, values) == evaluate_minors(f, matrix)


def test_evaluate_at_minors_equals_a_fraction_loop_on_non_integral_entries():
    """Fraction and float entries give Fraction minors; the integer pair sum
    equals the plain Fraction sum of coefficient times monomial."""
    rng = random.Random(23)
    for n in (3, 4):
        matrix = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)
        ]
        matrix[0][1] = 0.75
        values = minor_values(matrix, n)
        assert any(type(v) is Fraction and v.denominator > 1 for v in values.values())
        polys = [random_poly(n, rng, terms=6, max_power=3) for _ in range(8)]
        polys += [entry.agkz_poly for entry in build_basis((2, 1) + (0,) * (n - 2)).entries]
        for f in polys:
            expected = Fraction(0)
            for exponent, coefficient in f.terms.items():
                monomial = Fraction(1)
                for X, power in exponent.items():
                    monomial *= Fraction(values[X]) ** power
                expected += coefficient * monomial
            assert evaluate_at_minors(f, values) == expected


def test_evaluate_minors_is_ring_homomorphism():
    rng = random.Random(5)
    matrix = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    for _ in range(6):
        f, g = random_poly(3, rng), random_poly(3, rng)
        assert evaluate_minors(f * g, matrix) == evaluate_minors(f, matrix) * evaluate_minors(
            g, matrix
        )
        assert evaluate_minors(f + g, matrix) == evaluate_minors(f, matrix) + evaluate_minors(
            g, matrix
        )


def test_insertion_order_irrelevant():
    terms = [
        (ev(3, ((1,), 1)), Fraction(1, 2)),
        (ev(3, ((2,), 2)), Fraction(-1)),
        (ev(3, ((1,), 1)), Fraction(1, 2)),
    ]
    a = Polynomial(3, terms)
    b = Polynomial(3, list(reversed(terms)))
    assert a == b
    assert a.coefficient(ev(3, ((1,), 1))) == 1


def test_json_round_trip_bit_exact():
    rng = random.Random(3)
    for n in (3, 4):
        for _ in range(5):
            f = random_poly(n, rng)
            data = json.loads(json.dumps(poly_to_json(f)))
            assert poly_from_json(n, data) == f


def test_json_term_order_deterministic():
    # canonical term order: lexicographic on the dense coordinate vector
    f = Polynomial.variable(3, (2, 3)) + Polynomial.variable(3, (1,))
    data = poly_to_json(f)
    assert [item["exp"] for item in data] == [{"2,3": 1}, {"1": 1}]
    assert all(isinstance(item["coef"], str) for item in data)


# Denominators of the shape the construction makes (factorial products) and
# a few others, so that merging over an lcm meets both.
DENOMINATORS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12, 24, 36, 120, 720, 5040])


@st.composite
def fraction_terms(draw, n, max_terms=6):
    """Up to max_terms (exponent, Fraction) pairs over n, repeats allowed."""
    subsets = enumerate_subsets(n)
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        support = draw(st.lists(st.sampled_from(subsets), max_size=3, unique=True))
        exponent = ExponentVector(n, [(X, draw(st.integers(0, 3))) for X in support])
        terms.append((exponent, Fraction(draw(st.integers(-30, 30)), draw(DENOMINATORS))))
    return terms


def assert_reduced(poly):
    """The stored form: nonzero numerators, denominator positive and coprime to
    them all, 1 for the zero polynomial."""
    assert poly._den > 0 and 0 not in poly._num.values()
    assert gcd(poly._den, *poly._num.values()) == 1


def assert_matches(poly, reference):
    assert_reduced(poly)
    assert dict(poly.terms) == reference.terms
    assert all(type(c) is Fraction for c in poly.terms.values())


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_engine_matches_a_fraction_per_term_reference(data):
    n = data.draw(st.integers(3, 4))
    f_terms, g_terms = data.draw(fraction_terms(n)), data.draw(fraction_terms(n))
    f, g = Polynomial(n, f_terms), Polynomial(n, g_terms)
    rf, rg = FractionPolynomial(n, f_terms), FractionPolynomial(n, g_terms)
    scalar = Fraction(data.draw(st.integers(-12, 12)), data.draw(DENOMINATORS))
    assert_matches(f, rf)
    assert_matches(f + g, rf + rg)
    assert_matches(f - g, rf - rg)
    assert_matches(-f, -rf)
    assert_matches(f.scale(scalar), rf.scale(scalar))
    assert_matches(Polynomial.from_triples(n, f.scaled_triples(scalar)), rf.scale(scalar))
    assert_matches(f * g, rf * rg)
    assert_matches(diff_apply(f, g), rf.diff_apply(rg))
    assert pair(f, g) == rf.pair(rg)
    assert evaluate_at_ones(f) == rf.evaluate(None)
    integral = [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    rational = [[Fraction(data.draw(st.integers(-6, 6)), data.draw(DENOMINATORS)) for _ in range(n)]
                for _ in range(n)]
    for matrix in (integral, rational):
        values = minor_values(matrix, n)
        assert evaluate_at_minors(f, values) == rf.evaluate(values)
    for item, (exponent, coefficient) in zip(
        poly_to_json(f), sorted(rf.terms.items(), key=lambda t: t[0].sort_key())
    ):
        assert item == {"exp": polyengine.exponent_to_json(exponent), "coef": str(coefficient)}
    assert len(poly_to_json(f)) == len(rf.terms)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_equal_polynomials_built_different_ways_are_equal_and_hash_alike(data):
    n = data.draw(st.integers(3, 4))
    terms = data.draw(fraction_terms(n))
    f = Polynomial(n, terms)
    triples = [(e, 2 * c.numerator, 2 * c.denominator) for e, c in terms]  # 1/2 as 2/4
    split = [(e, c / 2) for e, c in terms] * 2  # every term as two halves
    for other in (Polynomial.from_triples(n, triples), Polynomial(n, split), f + f - f):
        assert other == f and hash(other) == hash(f)
        assert_reduced(other)
    zero = Polynomial.zero(n)
    for cancelled in (f - f, f + (-f), Polynomial(n, terms + [(e, -c) for e, c in terms])):
        assert cancelled == zero and hash(cancelled) == hash(zero) and cancelled.is_zero()
        assert cancelled._den == 1


def test_halves_and_quarters_are_one_polynomial():
    x = ev(3, ((1,), 1))
    half = Polynomial(3, [(x, Fraction(1, 2))])
    assert half == Polynomial.from_triples(3, [(x, 2, 4)]) == Polynomial(3, [(x, "2/4")])
    assert hash(half) == hash(Polynomial.from_triples(3, [(x, 1, 4), (x, 1, 4)]))
    assert Polynomial.from_triples(3, [(x, 1, 3), (x, -2, 6)]) == Polynomial.zero(3)
    assert poly_to_json(Polynomial.from_triples(3, [(x, -6, 4)])) == [{"exp": {"1": 1}, "coef": "-3/2"}]


def test_triples_get_validated_exponents():
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial.from_triples(3, [(ev(3, ((1,), -1)), 1, 2)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        Polynomial.from_triples(3, [(ev(4, ((1,), 1)), 1, 2)])


def test_terms_is_a_read_only_fraction_view():
    f = Polynomial(3, [(ev(3, ((1,), 1)), Fraction(1, 2)), (ev(3, ((2,), 2)), 3)])
    view = f.terms
    assert len(view) == 2 and ev(3, ((1,), 1)) in view and ev(3, ((3,), 1)) not in view
    assert view[ev(3, ((2,), 2))] == 3 and type(view[ev(3, ((2,), 2))]) is Fraction
    with pytest.raises(TypeError):
        view[ev(3, ((1,), 1))] = Fraction(1)
    with pytest.raises(AttributeError):
        f.n = 4
