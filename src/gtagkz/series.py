"""Hypergeometric-type constructors over shifted lattices.

All objects are finite polynomials: the plain lattice series (one term per
nonnegative point of gamma + B), its Horn-type generalization with a rising
Pochhammer weight, the irreducible solutions of the antisymmetrized GKZ
system built as alternating sums of Horn terms down the r direction, and the
paired series whose value at A = 1 reproduces scalar products of solutions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .combinatorics import GTDiagram, _pattern_rows, chi_pairs
from .lattice import (
    ExponentVector,
    _class_entry,
    chi_table,
    lattice_basis,
    multi_factorial,
    r_routes,
    shift_from_diagram,
)
from .polyengine import Polynomial, rational_sum


def rising(t: int, s: int) -> int:
    """(t+1)(t+2)...(t+s); equals 1 for s = 0."""
    if s < 0:
        raise ValueError("rising factorial needs s >= 0")
    result = 1
    for step in range(1, s + 1):
        result *= t + step
    return result


def _gamma_of(shift_or_vector) -> ExponentVector:
    return getattr(shift_or_vector, "gamma", shift_or_vector)


def _multi_index(n: int, s) -> tuple:
    """s as a tuple, checked to be a nonnegative multi-index over the lattice directions."""
    s = tuple(s)
    k = len(lattice_basis(n))
    if len(s) != k or min(s, default=0) < 0:
        raise ValueError(f"need a length-{k} nonnegative multi-index, got {s}")
    return s


def _horn_terms(vector: ExponentVector, *indices, down=None):
    """The Horn-type series at vector - down.r as integers (x, weight, x!),
    coefficient weight / x!, one per coset point of nonzero weight.

    The weight is the product over the multi-indices s of (t+1)...(t+s) per
    lattice direction, with t = T(x) - T(vector - down.r) the point's lattice
    coordinates; with no multi-index it is 1 and the series is the plain
    lattice series.  The representative vector - down.r is never built (see
    lattice._class_entry).
    """
    factors = [
        (b, part) for s in indices for b, part in enumerate(_multi_index(vector.n, s)) if part
    ]
    triples, origin = _class_entry(vector, down)
    for x, tx, x_factorial in triples:
        weight = 1
        for b, part in factors:
            weight *= rising(tx[b] - origin[b], part)
            if weight == 0:
                break
        if weight:
            yield x, weight, x_factorial


def gamma_series(gamma) -> Polynomial:
    """Sum of A^x / x! over the nonnegative points of gamma + B."""
    vector = _gamma_of(gamma)
    terms = [(x, Fraction(1, x_factorial)) for x, _, x_factorial in _horn_terms(vector)]
    return Polynomial(vector.n, terms)


def j_series(gamma: ExponentVector, s) -> Polynomial:
    """Horn-type series with Pochhammer weight (t+1)...(t+s) per lattice direction.

    Unlike the plain series this depends on the representative gamma, not
    only on its class mod B.
    """
    vector = _gamma_of(gamma)
    terms = [(x, Fraction(weight, x_factorial)) for x, weight, x_factorial in _horn_terms(vector, s)]
    return Polynomial(vector.n, terms)


def j_value(gamma, s, down=None) -> Fraction:
    """The value at A = 1 of j_series at the representative gamma - down.r
    (gamma itself when down is None), a hypergeometric constant.

    Sums the integer terms over one common denominator; builds neither a
    polynomial nor the representative (see lattice._class_entry).
    """
    terms = _horn_terms(_gamma_of(gamma), s, down=down)
    return rational_sum((weight, x_factorial) for _, weight, x_factorial in terms)


# Bounded memo size.  A cold (8,4,0) basis asks 125 times for the patterns of
# 61 keys; basis plus verify of all 17 n = 3, 4 weights with dimension <= 15
# in one process asks 387 times for 200; cold basis 2,1,1,0,0,0 and
# 2,1,0,0,0,0,0 ask 105 and 112 times for 75 and 77.  None of these runs
# evicts, and a long-lived process holds at most this many entries.
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
# <= 15 in one process asks 675 times for 232; cold basis 2,1,1,0,0,0 and
# 2,1,0,0,0,0,0 ask 255 and 259 times for 105 and 112.  None of these runs
# evicts, and a long-lived process holds at most this many entries.
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
            for x, weight, x_factorial in _horn_terms(vector, s, down=s)
        )
    return Polynomial(n, terms)


def j_pair_series(delta: ExponentVector, a, b) -> Polynomial:
    """Doubly weighted Horn-type series with both Pochhammer products.

    Coefficient of A^(delta + t.v) is (t+1)...(t+a) (t+1)...(t+b) divided by
    (delta + t.v)! a! b!; the factorial normalization lives here, not in the
    alternating sum built on top of it.
    """
    vector = _gamma_of(delta)
    a, b = _multi_index(vector.n, a), _multi_index(vector.n, b)
    norm = multi_factorial(a) * multi_factorial(b)
    terms = [
        (x, Fraction(weight, x_factorial * norm))
        for x, weight, x_factorial in _horn_terms(vector, a, b)
    ]
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
    terms = [(x, Fraction(num, den)) for x, num, den in f_pair_terms(vector, l1, l2)]
    return Polynomial(vector.n, terms)


def f_pair_terms(delta: ExponentVector, l1, l2):
    """The unmerged terms of f_pair_series(delta, l1, l2) as integers (x,
    numerator, denominator), coefficient numerator / denominator.

    Their sum, polyengine.rational_sum, is the value of the series at A = 1.
    """
    vector = _gamma_of(delta)
    n = vector.n
    l1, l2 = _multi_index(n, l1), _multi_index(n, l2)
    if any(min(x, y) != 0 for x, y in zip(l1, l2)):
        raise ValueError("need min(l1, l2) = 0 componentwise")
    sign = -1 if (sum(l1) + sum(l2)) % 2 else 1
    for u in feasible_down_shifts(vector):
        a = tuple(x + y for x, y in zip(u, l1))
        b = tuple(x + y for x, y in zip(u, l2))
        norm = multi_factorial(a) * multi_factorial(b)
        for x, weight, x_factorial in _horn_terms(vector, a, b, down=u):
            yield x, sign * weight, x_factorial * norm
