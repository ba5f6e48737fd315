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
from functools import lru_cache
from math import factorial

from .combinatorics import GTDiagram, chi_pairs
from .lattice import (
    ExponentVector,
    _coset_table,
    chi_table,
    lattice_basis,
    r_routes,
    r_shift,
    shift_from_diagram,
)
from .polyengine import Polynomial


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
    terms = [(x, Fraction(1, x_factorial)) for x, _, x_factorial in _coset_table(vector)]
    return Polynomial(vector.n, terms)


def j_series(gamma: ExponentVector, s) -> Polynomial:
    """Horn-type series with Pochhammer weight (t+1)...(t+s) per lattice direction.

    Unlike the plain series this depends on the representative gamma, not
    only on its class mod B.
    """
    vector = _gamma_of(gamma)
    return Polynomial(vector.n, _fractions(_j_terms(vector, s)))


def _fractions(terms):
    """Polynomial terms (x, Fraction(numerator, denominator)) from integer triples."""
    return [(x, Fraction(numerator, denominator)) for x, numerator, denominator in terms]


def _j_terms(vector: ExponentVector, s):
    """The terms of j_series(vector, s) as integers (x, weight, x!), coefficient
    weight / x!, one per coset point of nonzero weight."""
    s = tuple(s)
    k = len(lattice_basis(vector.n))
    if len(s) != k or any(part < 0 for part in s):
        raise ValueError(f"s must be a length-{k} nonnegative multi-index")
    for x, t, x_factorial in _coset_table(vector):
        weight = 1
        for t_part, s_part in zip(t, s):
            weight *= rising(t_part, s_part)
            if weight == 0:
                break
        if weight:
            yield x, weight, x_factorial


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


# Bounded memo size.  A cold (8,4,0) basis asks 350 times for the patterns of
# 61 keys; basis plus verify of all 17 n = 3, 4 weights with dimension <= 15
# in one process asks 1150 times for 200.  Such runs never evict, and a
# long-lived process holds at most this many entries.
FEASIBLE_CLASS_CACHE_SIZE = 1024


def _feasible_classes(vector: ExponentVector):
    """Representatives of the classes with vector's top row and weight that hold a
    nonnegative point.

    A class holds one exactly when its chi array is a Gelfand-Tsetlin pattern,
    so the classes are the patterns with the normalized top row and row sums,
    raised back by the full-set count; r preserves top row and weight.
    """
    n = vector.n
    values = dict(zip(chi_pairs(n), chi_table(vector)))
    full = values[(n, n)]
    if full < 0:
        return ()
    top = tuple(values[(p, n)] - full for p in range(1, n + 1))
    sums = tuple(sum(values[(p, q)] for p in range(1, q + 1)) - q * full for q in range(n))
    return _pattern_classes(n, top, sums, full)


@lru_cache(maxsize=FEASIBLE_CLASS_CACHE_SIZE)
def _pattern_classes(n: int, top: tuple, sums: tuple, full: int):
    """The class representatives of _feasible_classes, memoized per key."""
    raise_full = full * ExponentVector.unit(n, tuple(range(1, n + 1)))
    return tuple(
        shift_from_diagram(GTDiagram(rows)).gamma + raise_full
        for rows in _pattern_rows(top, sums)
    )


# Bounded memo size.  A cold (8,4,0) basis asks 350 times for the down shifts
# of 125 vectors; basis plus verify of all 17 n = 3, 4 weights with dimension
# <= 15 in one process asks 995 times for 232.  Such runs never evict, and a
# long-lived process holds at most this many entries.
FEASIBLE_SHIFT_CACHE_SIZE = 4096


def feasible_down_shifts(gamma):
    """All s >= 0 for which gamma - s.r + B contains a nonnegative point, sorted.

    The union of the r-routes up from every feasible class of the same top row
    and weight; gamma may be any integer vector, not only a diagram's shift.
    Read from a memo keyed on the vector (see FEASIBLE_SHIFT_CACHE_SIZE).
    """
    return _down_shifts(_gamma_of(gamma))


@lru_cache(maxsize=FEASIBLE_SHIFT_CACHE_SIZE)
def _down_shifts(vector: ExponentVector):
    """The shifts of feasible_down_shifts, memoized per vector."""
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
    terms = []
    for s in feasible_down_shifts(vector):
        sign = -1 if sum(s) % 2 else 1
        norm = multi_factorial(s)
        terms.extend(
            (x, Fraction(sign * weight, x_factorial * norm))
            for x, weight, x_factorial in _j_terms(vector - r_shift(n, s), s)
        )
    return Polynomial(n, terms)


def _multi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def j_pair_series(delta: ExponentVector, a, b) -> Polynomial:
    """Doubly weighted Horn-type series with both Pochhammer products.

    Coefficient of A^(delta + t.v) is (t+1)...(t+a) (t+1)...(t+b) divided by
    (delta + t.v)! a! b!; the factorial normalization lives here, not in the
    alternating sum built on top of it.
    """
    vector = _gamma_of(delta)
    return Polynomial(vector.n, _fractions(_j_pair_terms(vector, a, b)))


def _j_pair_terms(vector: ExponentVector, a, b):
    """The terms of j_pair_series(vector, a, b) as integers (x, numerator,
    denominator), one per coset point of nonzero weight."""
    a, b = tuple(a), tuple(b)
    k = len(lattice_basis(vector.n))
    if len(a) != k or len(b) != k or min(a + b, default=0) < 0:
        raise ValueError(f"a and b must be length-{k} nonnegative multi-indices")
    norm = multi_factorial(a) * multi_factorial(b)
    for x, t, x_factorial in _coset_table(vector):
        weight = 1
        for t_part, a_part, b_part in zip(t, a, b):
            weight *= rising(t_part, a_part) * rising(t_part, b_part)
            if weight == 0:
                break
        if weight:
            yield x, weight, x_factorial * norm


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
    return Polynomial(vector.n, _fractions(f_pair_terms(vector, l1, l2)))


def f_pair_terms(delta: ExponentVector, l1, l2):
    """The unmerged terms of f_pair_series(delta, l1, l2) as integers (x,
    numerator, denominator), coefficient numerator / denominator.

    Their sum, polyengine.rational_sum, is the value of the series at A = 1.
    """
    vector = _gamma_of(delta)
    n = vector.n
    l1, l2 = tuple(l1), tuple(l2)
    if any(min(x, y) != 0 for x, y in zip(l1, l2)):
        raise ValueError("need min(l1, l2) = 0 componentwise")
    sign = -1 if (sum(l1) + sum(l2)) % 2 else 1
    for u in feasible_down_shifts(vector):
        for x, num, den in _j_pair_terms(vector - r_shift(n, u), _multi_add(u, l1), _multi_add(u, l2)):
            yield x, sign * num, den
