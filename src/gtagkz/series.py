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
from itertools import compress

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
    factors = []  # (direction, part) for the nonzero parts, most parts being zero
    for s in indices:
        s = _multi_index(vector.n, s)
        factors.extend(zip(compress(range(len(s)), s), filter(None, s)))
    triples, origin = _class_entry(vector, down)
    for x, tx, x_factorial in triples:
        weight = 1
        for b, part in factors:
            weight *= rising(tx[b] - origin[b], part)
            if weight == 0:
                break
        if weight:
            yield x, weight, x_factorial


def gamma_series(gamma: ExponentVector) -> Polynomial:
    """Sum of A^x / x! over the nonnegative points of gamma + B."""
    return Polynomial.from_triples(
        gamma.n, ((x, 1, x_factorial) for x, _, x_factorial in _horn_terms(gamma))
    )


def j_value(gamma: ExponentVector, s, down=None) -> Fraction:
    """The value at A = 1 of the Horn-type series with Pochhammer weight
    (t+1)...(t+s) per lattice direction at the representative gamma - down.r
    (gamma itself when down is None), a hypergeometric constant.

    Unlike the plain series it depends on the representative, not only on its
    class mod B.  Sums the integer terms over one common denominator; builds
    neither a polynomial nor the representative (see lattice._class_entry).
    """
    terms = _horn_terms(gamma, s, down=down)
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


@lru_cache(maxsize=FEASIBLE_SHIFT_CACHE_SIZE)
def feasible_down_shifts(gamma: ExponentVector):
    """All s >= 0 for which gamma - s.r + B contains a nonnegative point, sorted.

    The union of the r-routes up from every feasible class of the same top row
    and weight; gamma may be any integer vector, not only a diagram's shift.
    Memoized per vector (see FEASIBLE_SHIFT_CACHE_SIZE).
    """
    return tuple(sorted(s for low in _feasible_classes(gamma) for s in r_routes(low, gamma)))


def feasible_up_shifts(gamma: ExponentVector):
    """All s >= 0 for which gamma + s.r + B contains a nonnegative point, sorted.

    The union of the r-routes from gamma up to every feasible class of the
    same top row and weight.
    """
    return tuple(sorted(s for high in _feasible_classes(gamma) for s in r_routes(gamma, high)))


def agkz_solution(gamma: ExponentVector) -> Polynomial:
    """Irreducible polynomial solution of the antisymmetrized GKZ system.

    The alternating sum (-1)^|s| / s! times the Horn-type series at the
    representative gamma - s.r, over every s with a feasible class; the sum
    depends on the representative gamma, not only on gamma mod B.
    """
    terms = []
    for s in feasible_down_shifts(gamma):
        sign = -1 if sum(s) % 2 else 1
        norm = multi_factorial(s)
        terms.extend(
            (x, sign * weight, x_factorial * norm)
            for x, weight, x_factorial in _horn_terms(gamma, s, down=s)
        )
    return Polynomial.from_triples(gamma.n, terms)


def f_pair_terms(base: ExponentVector, l):
    """The terms of the paired series at base with gap l, as integers (x,
    numerator, denominator), coefficient numerator / denominator.

    Over every feasible down shift u of base, (-1)^|l| / ((u + l)! u!) times
    the Horn-type series at base - u.r with both Pochhammer weights u + l and
    u.  Their sum, polyengine.rational_sum, is the value of the series at
    A = 1, the coefficient gtbasis.coeff_C.
    """
    l = _multi_index(base.n, l)
    sign = -1 if sum(l) % 2 else 1
    for u in feasible_down_shifts(base):
        a = tuple(x + y for x, y in zip(u, l))
        norm = multi_factorial(a) * multi_factorial(u)
        for x, weight, x_factorial in _horn_terms(base, a, u, down=u):
            yield x, sign * weight, x_factorial * norm
