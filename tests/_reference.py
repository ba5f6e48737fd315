"""Reference series, points, operators and polynomial arithmetic for the
tests, mostly assembled from the package's own pieces.

The package builds only what its pipeline reads: Horn-type series as integer
weights (series._horn_weights), the points of a class with their lattice
coordinates as class-table entries (lattice._class_entry), the shifts with
their witnesses (lattice.canonical_shift_table).  These helpers turn those
pieces into the polynomials, point lists and operators that the paper's
identities are stated in, so that the tests can check them.

The paper's closed-form coefficient is here too: coeff_C sums the paired
series of f_pair_terms from its own Horn-type pass, apart from the solutions'
parts that the coefficient table sums C from (series.paired_value), and
feasible_classes builds the feasible class representatives of a vector as
diagram shifts, apart from the class memo of the lattice module.

FractionPolynomial is the one piece built apart from the package: a plain
Fraction-per-term polynomial that the engine's integer-numerator arithmetic
is checked against.  SESSION_WEIGHTS are the weights of the benchmark's
verify session.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, prod

from gtagkz.combinatorics import GTDiagram, _pattern_rows, chi_pairs
from gtagkz.gtbasis import weyl_dimension
from gtagkz.lattice import (
    ExponentVector,
    _class_entry,
    canonical_shift_table,
    chi_table,
    lattice_basis,
    multi_factorial,
    r_shift,
    shift_from_diagram,
)
from gtagkz.polyengine import Polynomial, diff_apply, rational_sum
from gtagkz.series import _horn_weights, _multi_index, feasible_down_shifts

# The weights of the benchmark's verify session: every n = 3, 4 top row with
# last entry 0 and Weyl dimension at most 15.
SESSION_WEIGHTS = [
    top
    for n in (3, 4)
    for top in product(range(8, -1, -1), repeat=n)
    if top[-1] == 0 and top[0] > 0 and list(top) == sorted(top, reverse=True)
    and weyl_dimension(top) <= 15
]


def _horn_terms(vector, *indices, down=None):
    """The Horn-type series at vector - down.r as integer terms (x, weight, x!),
    one per coset point of nonzero weight."""
    triples, weights = _horn_weights(vector, *indices, down=down)
    return [(x, weight, x_factorial) for (x, _, x_factorial), weight in zip(triples, weights) if weight]


def canonical_shifts(diagrams):
    """The coherent shift vectors of canonical_shift_table, without their witnesses."""
    return [shift for shift, _ in canonical_shift_table(diagrams)[0]]


def coset_points(gamma):
    """Pairs (x, t) over the nonnegative points x of gamma + B, x = gamma + t.v
    exactly, with t = T(x) - T(gamma) read from the class entry."""
    triples, origin = _class_entry(gamma)
    return [(x, tuple(a - b for a, b in zip(tx, origin))) for x, tx, _ in triples]


def j_series(gamma, s) -> Polynomial:
    """Horn-type series with Pochhammer weight (t+1)...(t+s) per lattice direction."""
    terms = [(x, Fraction(weight, x_factorial)) for x, weight, x_factorial in _horn_terms(gamma, s)]
    return Polynomial(gamma.n, terms)


def j_pair_series(delta, a, b) -> Polynomial:
    """Horn-type series with both Pochhammer weights, divided by a! b!."""
    norm = multi_factorial(a) * multi_factorial(b)
    terms = [
        (x, Fraction(weight, x_factorial * norm))
        for x, weight, x_factorial in _horn_terms(delta, a, b)
    ]
    return Polynomial(delta.n, terms)


def f_pair_terms(base, l):
    """The terms of the paired series at base with gap l, as integers (x,
    numerator, denominator), coefficient numerator / denominator.

    Over every feasible down shift u of base, (-1)^|l| / ((u + l)! u!) times
    the Horn-type series at base - u.r with both Pochhammer weights u + l and
    u.  Their sum, polyengine.rational_sum, is the value of the series at
    A = 1, the coefficient coeff_C.
    """
    l = _multi_index(base.n, l)
    sign = -1 if sum(l) % 2 else 1
    for u in feasible_down_shifts(base):
        a = tuple(x + y for x, y in zip(u, l))
        norm = multi_factorial(a) * multi_factorial(u)
        for x, weight, x_factorial in _horn_terms(base, a, u, down=u):
            yield x, sign * weight, x_factorial * norm


def coeff_C(delta, l) -> Fraction:
    """Orthogonalization coefficient: the paired series at delta - l.r, at A = 1,
    summed from the terms of f_pair_terms over one common denominator."""
    l = tuple(l)
    base = delta - r_shift(delta.n, l)
    return rational_sum((num, den) for _, num, den in f_pair_terms(base, l))


def feasible_classes(vector):
    """Representatives of the classes with vector's top row and weight that hold a
    nonnegative point, as a tuple.

    A class holds one exactly when its chi array is a Gelfand-Tsetlin pattern,
    so the classes are the patterns with the normalized top row and row sums,
    each built as its diagram's staircase shift raised back by the full-set
    count; r preserves top row and weight.
    """
    n = vector.n
    values = dict(zip(chi_pairs(n), chi_table(vector)))
    full = values[(n, n)]
    if full < 0:
        return ()
    top = tuple(values[(p, n)] - full for p in range(1, n + 1))
    sums = tuple(sum(values[(p, q)] for p in range(1, q + 1)) - q * full for q in range(n))
    raise_full = full * ExponentVector.unit(n, tuple(range(1, n + 1)))
    return tuple(
        shift_from_diagram(GTDiagram(rows)).gamma + raise_full
        for rows in _pattern_rows(top, sums)
    )


def f_pair_series(base, l) -> Polynomial:
    """The paired series of f_pair_terms as a polynomial; its value at A = 1
    is the pairing of the solutions at base + l.r and base on chains."""
    return Polynomial(base.n, [(x, Fraction(num, den)) for x, num, den in f_pair_terms(base, l)])


def gkz_apply(alpha: int, f: Polynomial) -> Polynomial:
    """The GKZ operator of basis vector alpha: the difference of the second
    derivatives along its v_plus and v_minus."""
    vec = lattice_basis(f.n)[alpha]
    return diff_apply(Polynomial(f.n, [(vec.v_plus, 1), (vec.v_minus, -1)]), f)


class FractionPolynomial:
    """A dict exponent -> nonzero Fraction, with the engine's arithmetic done
    one Fraction per term."""

    def __init__(self, n, terms=()):
        self.n = n
        self.terms = {}
        for exponent, coefficient in terms:
            total = self.terms.get(exponent, Fraction(0)) + Fraction(coefficient)
            if total:
                self.terms[exponent] = total
            else:
                self.terms.pop(exponent, None)

    def __add__(self, other):
        return FractionPolynomial(self.n, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return FractionPolynomial(self.n, [(e, -c) for e, c in self.terms.items()])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        return FractionPolynomial(self.n, [(e, scalar * c) for e, c in self.terms.items()])

    def __mul__(self, other):
        return FractionPolynomial(self.n, [
            (e + f, c * d) for e, c in self.terms.items() for f, d in other.terms.items()
        ])

    def diff_apply(self, other):
        """self(d/dA) applied to other, one derivative power at a time."""
        terms = []
        for u, c in self.terms.items():
            for w, d in other.terms.items():
                if all(w[X] >= power for X, power in u.items()):
                    scale = prod(
                        factorial(w[X]) // factorial(w[X] - power) for X, power in u.items()
                    )
                    terms.append((w - u, c * d * scale))
        return FractionPolynomial(self.n, terms)

    def pair(self, other):
        return sum(
            (c * other.terms[e] * prod(factorial(v) for _, v in e.items())
             for e, c in self.terms.items() if e in other.terms),
            Fraction(0),
        )

    def evaluate(self, values):
        """The value at the minor values of polyengine.minor_values; at ones when None."""
        total = Fraction(0)
        for exponent, coefficient in self.terms.items():
            monomial = Fraction(1)
            if values is not None:
                for X, power in exponent.items():
                    monomial *= Fraction(values[X]) ** power
            total += coefficient * monomial
        return total
