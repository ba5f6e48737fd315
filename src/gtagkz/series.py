"""Hypergeometric-type constructors over shifted lattices.

All objects are finite polynomials: the plain lattice series (one term per
nonnegative point of gamma + B), its Horn-type generalization with a rising
Pochhammer weight, the irreducible solutions of the antisymmetrized GKZ
system built as alternating sums of Horn terms down the r direction, and the
paired series whose value at A = 1 reproduces scalar products of solutions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .combinatorics import GTDiagram, chi_apply
from .lattice import (
    ExponentVector,
    coset_points,
    lattice_basis,
    nonneg_points,
    r_routes,
    r_shift,
    shift_from_diagram,
)
from .polyengine import Polynomial, exponent_factorial


def rising(t: int, s: int) -> int:
    """(t+1)(t+2)...(t+s); equals 1 for s = 0."""
    if s < 0:
        raise ValueError("rising factorial needs s >= 0")
    result = 1
    for step in range(1, s + 1):
        result *= t + step
    return result


def multi_factorial(s) -> int:
    product = 1
    for part in s:
        product *= factorial(part)
    return product


def _gamma_of(shift_or_vector) -> ExponentVector:
    return getattr(shift_or_vector, "gamma", shift_or_vector)


def gamma_series(gamma) -> Polynomial:
    """Sum of A^x / x! over the nonnegative points of gamma + B."""
    vector = _gamma_of(gamma)
    return Polynomial(
        vector.n,
        [(x, Fraction(1, exponent_factorial(x))) for x in nonneg_points(vector)],
    )


def j_series(gamma: ExponentVector, s) -> Polynomial:
    """Horn-type series with Pochhammer weight (t+1)...(t+s) per lattice direction.

    Unlike the plain series this depends on the representative gamma, not
    only on its class mod B.
    """
    vector = _gamma_of(gamma)
    s = tuple(s)
    k = len(lattice_basis(vector.n))
    if len(s) != k or any(part < 0 for part in s):
        raise ValueError(f"s must be a length-{k} nonnegative multi-index")
    terms = []
    for x, t in coset_points(vector):
        weight = 1
        for t_part, s_part in zip(t, s):
            weight *= rising(t_part, s_part)
            if weight == 0:
                break
        if weight:
            terms.append((x, Fraction(weight, exponent_factorial(x))))
    return Polynomial(vector.n, terms)


def _pattern_rows(top, sums):
    """Rows of the Gelfand-Tsetlin patterns under top whose row of length j sums to sums[j].

    There are none when top is not weakly decreasing.
    """
    if len(top) == 1:
        yield (top,)
        return
    for row in itertools.product(*(range(low, high + 1) for high, low in zip(top, top[1:]))):
        if sum(row) == sums[len(row)]:
            for rest in _pattern_rows(row, sums):
                yield (top,) + rest


def _feasible_classes(vector: ExponentVector):
    """Representatives of the classes with vector's top row and weight that hold a
    nonnegative point.

    A class holds one exactly when its chi array is a Gelfand-Tsetlin pattern,
    so the classes are the patterns with the normalized top row and row sums,
    raised back by the full-set count; r preserves top row and weight.
    """
    n = vector.n
    full = chi_apply(n, n, vector)
    if full < 0:
        return []
    top = tuple(chi_apply(p, n, vector) - full for p in range(1, n + 1))
    sums = [sum(chi_apply(p, q, vector) for p in range(1, q + 1)) - q * full for q in range(n)]
    raise_full = full * ExponentVector.unit(n, tuple(range(1, n + 1)))
    return [
        shift_from_diagram(GTDiagram(rows)).gamma + raise_full
        for rows in _pattern_rows(top, sums)
    ]


def feasible_down_shifts(gamma):
    """All s >= 0 for which gamma - s.r + B contains a nonnegative point, sorted.

    The union of the r-routes up from every feasible class of the same top row
    and weight; gamma may be any integer vector, not only a diagram's shift.
    """
    vector = _gamma_of(gamma)
    return tuple(sorted(s for low in _feasible_classes(vector) for s in r_routes(low, vector)))


def feasible_up_shifts(gamma):
    """All s >= 0 for which gamma + s.r + B contains a nonnegative point, sorted.

    The union of the r-routes from gamma up to every feasible class of the
    same top row and weight.
    """
    vector = _gamma_of(gamma)
    return tuple(sorted(s for high in _feasible_classes(vector) for s in r_routes(vector, high)))


def agkz_solution(gamma) -> Polynomial:
    """Irreducible polynomial solution of the antisymmetrized GKZ system.

    The alternating sum (-1)^|s| / s! times the Horn-type series at the
    representative gamma - s.r, over every s with a feasible class; the sum
    depends on the representative gamma, not only on gamma mod B.
    """
    vector = _gamma_of(gamma)
    n = vector.n
    total = Polynomial.zero(n)
    for s in feasible_down_shifts(vector):
        term = j_series(vector - r_shift(n, s), s)
        sign = -1 if sum(s) % 2 else 1
        total = total + term.scale(Fraction(sign, multi_factorial(s)))
    return total


def _multi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def j_pair_series(delta: ExponentVector, a, b) -> Polynomial:
    """Doubly weighted Horn-type series with both Pochhammer products.

    Coefficient of A^(delta + t.v) is (t+1)...(t+a) (t+1)...(t+b) divided by
    (delta + t.v)! a! b!; the factorial normalization lives here, not in the
    alternating sum built on top of it.
    """
    vector = _gamma_of(delta)
    a, b = tuple(a), tuple(b)
    k = len(lattice_basis(vector.n))
    if len(a) != k or len(b) != k or min(a + b, default=0) < 0:
        raise ValueError(f"a and b must be length-{k} nonnegative multi-indices")
    norm = multi_factorial(a) * multi_factorial(b)
    terms = []
    for x, t in coset_points(vector):
        weight = 1
        for t_part, a_part, b_part in zip(t, a, b):
            weight *= rising(t_part, a_part) * rising(t_part, b_part)
            if weight == 0:
                break
        if weight:
            terms.append((x, Fraction(weight, exponent_factorial(x) * norm)))
    return Polynomial(vector.n, terms)


def f_pair_series(delta: ExponentVector, l1, l2) -> Polynomial:
    """Alternating sum of paired series whose value at 1 gives scalar products.

    Requires min(l1, l2) = 0 componentwise.  The value at A = 1 equals the
    pairing of the solutions at delta + l1.r and delta + l2.r whenever the
    classes involved are joined by unique r-combinations; matching that
    pairing forces a single factorial normalization, the one inside
    j_pair_series.  (With parallel routes, possible from n = 4 on, cross
    terms are missing and the exact pairing must be used instead.)
    """
    vector = _gamma_of(delta)
    n = vector.n
    l1, l2 = tuple(l1), tuple(l2)
    if any(min(x, y) != 0 for x, y in zip(l1, l2)):
        raise ValueError("need min(l1, l2) = 0 componentwise")
    sign = -1 if (sum(l1) + sum(l2)) % 2 else 1
    total = Polynomial.zero(n)
    for u in feasible_down_shifts(vector):
        term = j_pair_series(vector - r_shift(n, u), _multi_add(u, l1), _multi_add(u, l2))
        total = total + term.scale(sign)
    return total
