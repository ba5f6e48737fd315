"""Reference series, points and operators for the tests, assembled from the
package's own pieces.

The package builds only what its pipeline reads: Horn-type series as integer
terms (series._horn_terms, series.f_pair_terms), the points of a class with
their lattice coordinates as class-table entries (lattice._class_entry), the
shifts with their witnesses (lattice.canonical_shift_table).  These helpers
turn those pieces into the polynomials, point lists and operators that the
paper's identities are stated in, so that the tests can check them.
"""

from __future__ import annotations

from fractions import Fraction

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
