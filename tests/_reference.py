"""Reference series, points, operators and polynomial arithmetic for the
tests, mostly assembled from the package's own pieces.

The package builds only what its pipeline reads: Horn-type series as integer
terms (series._horn_terms, series.f_pair_terms), the points of a class with
their lattice coordinates as class-table entries (lattice._class_entry), the
shifts with their witnesses (lattice.canonical_shift_table).  These helpers
turn those pieces into the polynomials, point lists and operators that the
paper's identities are stated in, so that the tests can check them.

FractionPolynomial is the one piece built apart from the package: a plain
Fraction-per-term polynomial that the engine's integer-numerator arithmetic
is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from gtagkz.lattice import _class_entry, canonical_shift_table, lattice_basis, multi_factorial
from gtagkz.polyengine import Polynomial, diff_apply
from gtagkz.series import _horn_terms, f_pair_terms


def canonical_shifts(diagrams):
    """The coherent shift vectors of canonical_shift_table, without their witnesses."""
    return [shift for shift, _ in canonical_shift_table(diagrams)]


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
