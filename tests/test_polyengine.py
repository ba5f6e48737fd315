"""Exact polynomial arithmetic, the pairing, and evaluation at matrices."""

import json
import random
from fractions import Fraction
from math import factorial

import pytest

from gtagkz.lattice import ExponentVector
from gtagkz.polyengine import (
    Polynomial,
    diff_apply,
    evaluate_at_ones,
    evaluate_minors,
    exponent_factorial,
    minor_values,
    pair,
    poly_from_json,
    poly_to_json,
)


def ev(n, *pairs):
    return ExponentVector(n, pairs)


def random_poly(n, rng, terms=4, max_power=2):
    from gtagkz.combinatorics import enumerate_subsets

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
