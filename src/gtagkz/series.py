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
from types import MappingProxyType

from .lattice import (
    ExponentVector,
    _class_entry,
    feasible_routes,
    lattice_basis,
    multi_factorial,
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


def _horn_weights(vector: ExponentVector, *indices, down=None):
    """The Horn-type series at vector - down.r as (triples, weights): the
    class-table triples (x, T(x), x!) of its coset points and, aligned with
    them, the integer weights, coefficient weight / x!, zero where a rising
    factor vanishes.

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
    weights = []
    for _, tx, _ in triples:
        weight = 1
        for b, part in factors:
            weight *= rising(tx[b] - origin[b], part)
            if weight == 0:
                break
        weights.append(weight)
    return triples, tuple(weights)


def gamma_series(gamma: ExponentVector) -> Polynomial:
    """Sum of A^x / x! over the nonnegative points of gamma + B."""
    triples, _ = _class_entry(gamma)
    return Polynomial.from_triples(gamma.n, ((x, 1, x_factorial) for x, _, x_factorial in triples))


def j_value(gamma: ExponentVector, s, down=None) -> Fraction:
    """The value at A = 1 of the Horn-type series with Pochhammer weight
    (t+1)...(t+s) per lattice direction at the representative gamma - down.r
    (gamma itself when down is None), a hypergeometric constant.

    Unlike the plain series it depends on the representative, not only on its
    class mod B.  Sums the integer terms over one common denominator; builds
    neither a polynomial nor the representative (see lattice._class_entry).
    """
    terms = zip(*_horn_weights(gamma, s, down=down))
    return rational_sum((weight, x_factorial) for (_, _, x_factorial), weight in terms if weight)


def feasible_down_shifts(gamma: ExponentVector):
    """All s >= 0 for which gamma - s.r + B contains a nonnegative point, sorted.

    The union of the r-routes up from every feasible class of the same top row
    and weight, walked on each call and kept nowhere; gamma may be any integer
    vector, not only a diagram's shift (see lattice.feasible_routes).  The
    build reads them once per vector, in _solution_parts.
    """
    return feasible_routes(gamma)


def feasible_up_shifts(gamma: ExponentVector):
    """All s >= 0 for which gamma + s.r + B contains a nonnegative point, sorted.

    The union of the r-routes from gamma up to every feasible class of the
    same top row and weight, walked on each call and kept nowhere.
    """
    return feasible_routes(gamma, up=True)


# Bounded memo size.  A cold (8,4,0) basis asks 575 times for the parts of
# 125 vectors; basis plus verify of all 17 n = 3, 4 weights with dimension
# <= 15 in one process asks 505 times for 157; cold basis 2,1,1,0,0,0 and
# 2,1,0,0,0,0,0 ask 405 and 406 times for 105 and 112.  None of these runs
# evicts, and a long-lived process holds at most this many entries.
SOLUTION_PARTS_CACHE_SIZE = 4096


@lru_cache(maxsize=SOLUTION_PARTS_CACHE_SIZE)
def _solution_parts(gamma: ExponentVector):
    """The nonzero parts of agkz_solution(gamma), a read-only map from each
    feasible down shift s whose part has a nonzero weight, in sorted order, to
    (triples, weights, s!) with the triples and weights of
    _horn_weights(gamma, s, down=s): part s is (-1)^|s| / s! times the
    Horn-type series with weight s at the representative gamma - s.r.

    Most parts vanish, every point's coordinate t lying in -s..-1 for some
    direction: 23,464 of the 24,097 parts of (2,2,1,1,0,0).
    """
    parts = {}
    for s in feasible_down_shifts(gamma):
        triples, weights = _horn_weights(gamma, s, down=s)
        if any(weights):
            parts[s] = (triples, weights, multi_factorial(s))
    return MappingProxyType(parts)


def agkz_solution(gamma: ExponentVector) -> Polynomial:
    """Irreducible polynomial solution of the antisymmetrized GKZ system.

    The alternating sum (-1)^|s| / s! times the Horn-type series at the
    representative gamma - s.r, over every s with a feasible class; the sum
    depends on the representative gamma, not only on gamma mod B.
    """
    terms = []
    for s, (triples, weights, norm) in _solution_parts(gamma).items():
        sign = -1 if sum(s) % 2 else 1
        terms.extend(
            (x, sign * weight, x_factorial * norm)
            for (x, _, x_factorial), weight in zip(triples, weights)
            if weight
        )
    return Polynomial.from_triples(gamma.n, terms)


def paired_value(upper: ExponentVector, lower: ExponentVector, l) -> Fraction:
    """The paired series at lower with gap l at A = 1, for upper = lower + l.r
    exactly: the sum over the feasible down shifts u of lower of the pairing
    of part u + l of agkz_solution(upper) with part u of agkz_solution(lower).

    upper - (u + l).r = lower - u.r, so both parts lie on one class and see
    the same coordinates t of each point x there, which contributes
    (-1)^|l| (t+1)...(t+u+l) (t+1)...(t+u) / ((u + l)! u! x!).  Pairings
    of parts at distinct u, the cross terms of parallel routes, are not
    summed.
    """
    sign = -1 if sum(l) % 2 else 1
    above = _solution_parts(upper)
    terms = []
    for u, (triples, weights, u_factorial) in _solution_parts(lower).items():
        part = above.get(tuple(x + y for x, y in zip(u, l)))
        if part is None:  # a vanishing part pairs to zero
            continue
        same_class, upper_weights, a_factorial = part
        assert same_class is triples or same_class == triples
        norm = a_factorial * u_factorial
        terms.extend(
            (sign * w_upper * w_lower, x_factorial * norm)
            for (_, _, x_factorial), w_upper, w_lower in zip(triples, upper_weights, weights)
            if w_upper and w_lower
        )
    return rational_sum(terms)
