"""Construction of the orthogonal basis from the solution basis.

The solution polynomials F of the antisymmetrized GKZ system carry the
invariant pairing; the Gelfand-Tsetlin functions G are obtained by a
lower-triangular change of basis, computed by exact Gram-Schmidt over the
down-set of each solution from the pairings of the solutions.  The paper's
coefficients, values at A = 1 of the paired hypergeometric series
(hypergeometric constants), are kept beside the exact pairings as C, summed
from the parts of the solutions themselves (series.paired_value).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod
from types import MappingProxyType

from .combinatorics import GTDiagram, ValueRecord, enumerate_diagrams
from .lattice import (
    ExponentVector,
    ShiftVector,
    canonical_shift_table,
    lattice_basis,
    nonneg_points,
    r_shift,
)
from .polyengine import Polynomial, pair
from .series import (
    agkz_solution,
    feasible_down_shifts,
    feasible_up_shifts,
    gamma_series,
    j_value,
    multi_factorial,
    paired_value,
)


class DegenerateMetricError(ArithmeticError):
    """The pairing degenerates where the construction needs to divide."""


class AmbiguousSupportError(ValueError):
    """A class on the monomial ray has more than one nonnegative point."""


class BasisEntry(ValueRecord):
    __slots__ = ("diagram", "shift", "gamma_poly", "agkz_poly", "witness")

    def __init__(
        self,
        diagram: GTDiagram,
        shift: ShiftVector,
        gamma_poly: Polynomial,
        agkz_poly: Polynomial,
        witness: tuple,  # r-combination from the minimal diagram below
    ):
        self._fill(diagram, shift, gamma_poly, agkz_poly, witness)


class RepresentationBasis(ValueRecord):
    # lowers: per entry, the class_order pairs (jdx, l) of the entries below it
    __slots__ = ("top_row", "n", "entries", "lowers")

    def __init__(self, top_row: tuple, n: int, entries: tuple, lowers: tuple):
        self._fill(top_row, n, entries, lowers)

    def __len__(self):
        return len(self.entries)


def build_basis(top_row) -> RepresentationBasis:
    """Enumerate diagrams, fix coherent shifts, and build both polynomial families."""
    diagrams = enumerate_diagrams(top_row)
    rows, order = canonical_shift_table(diagrams)
    n = len(tuple(top_row))
    entries = []
    for diagram, (shift, witness) in zip(diagrams, rows):
        entries.append(
            BasisEntry(
                diagram=diagram,
                shift=shift,
                gamma_poly=gamma_series(shift.gamma),
                agkz_poly=agkz_solution(shift.gamma),
                witness=tuple(witness),
            )
        )
    return RepresentationBasis(tuple(top_row), n, tuple(entries), tuple(order))


def gram_matrix(basis: RepresentationBasis):
    """Exact pairing matrix of the solution polynomials."""
    polys = [entry.agkz_poly for entry in basis.entries]
    return [[pair(f, g) for g in polys] for f in polys]


@lru_cache(maxsize=None)
def _pochhammer_expansion(a: int, b: int):
    """Coefficients k_c with (t+1)..(t+a) (t+1)..(t+b) = sum_c k_c (t+1)..(t+c),
    as a read-only map c -> k_c.

    Closed form: k_(a+b-j) = (-1)^j C(a, j) C(b, j) j! for j = 0..min(a, b),
    so c runs over max(a,b)..a+b.
    """
    return MappingProxyType({
        a + b - j: (-1) ** j * comb(a, j) * comb(b, j) * factorial(j)
        for j in range(min(a, b) + 1)
    })


def coeff_C_alt(delta: ExponentVector, l) -> Fraction:
    """The coefficient C at entry delta and gap l, the paired series at
    delta - l.r at A = 1, through the expansion into plain Horn-type values.

    Expands each doubly weighted term into single Pochhammer series and
    evaluates those at 1: a computational route independent of the
    solutions' parts that CoefficientTable sums C from.  The expansion of a
    term is the product over the directions of their integer expansion
    tables, so each expanded term carries an integer weight.
    """
    l = tuple(l)
    base = delta - r_shift(delta.n, l)
    sign_l = -1 if sum(l) % 2 else 1
    total = Fraction(0)
    for u in feasible_down_shifts(base):
        a = tuple(x + y for x, y in zip(u, l))
        norm = multi_factorial(a) * multi_factorial(u)
        expansions = [
            _pochhammer_expansion(a_part, u_part).items() for a_part, u_part in zip(a, u)
        ]
        for choice in product(*expansions):
            value = j_value(base, tuple(c for c, _ in choice), down=u)
            if value:
                total += Fraction(sign_l * prod(k for _, k in choice), norm) * value
    return total


class CoefficientTable:
    """C and S tables over the pairs (entry, lower entry) of one basis.

    C holds the paired series values, the pairings of the two solutions'
    parts along matching routes (series.paired_value); C_exact holds the
    pairings of the actual solution polynomials.  The two coincide whenever
    no two distinct nonnegative r-combinations join the same pair of
    classes; when such parallel routes exist (possible from n = 4 on) C
    misses their cross terms, so S is always built from the exact pairings.

    All six tables (C, C_exact, S, norms, each G's <G, G>, lowers, the basis's
    class_order pairs (jdx, l) below each entry, and positions, each entry's
    index by its shift vector) are read-only mappings once the table is built.

    S[(idx, l)] is the coefficient of the solution at gap l below entry idx
    in its Gelfand-Tsetlin function G: exact Gram-Schmidt of F over the
    strict down-set of the entry, scaled so that S[(idx, 0)] = 1 / <F, F>.
    On chains of length at most two this is the first-order inversion
    -C / (d d') of the paired series values.
    """

    def __init__(self, basis: RepresentationBasis):
        self.C = {}
        self.C_exact = {}
        self.S = {}
        self.norms = {}
        self.lowers = dict(enumerate(basis.lowers))
        self.positions = {}
        for idx, entry in enumerate(basis.entries):
            self.positions.setdefault(entry.shift.gamma, idx)
        zero = (0,) * len(lattice_basis(basis.n))
        for idx, entry in enumerate(basis.entries):
            for jdx, l in self.lowers[idx]:
                lower = basis.entries[jdx]
                self.C[(idx, l)] = paired_value(entry.shift.gamma, lower.shift.gamma, l)
                self.C_exact[(idx, l)] = pair(entry.agkz_poly, lower.agkz_poly)
            if self.C_exact[(idx, zero)] == 0:
                raise DegenerateMetricError(
                    f"zero diagonal coefficient at diagram {entry.diagram.rows}"
                )
        # G_idx = (F_idx - sum_j <F_idx, G_j> / <G_j, G_j> G_j) / d_idx over the strict
        # down-set, so <G_idx, G_idx> = <G_idx, F_idx> / d_idx; a strictly lower entry has
        # a smaller witness sum, so bottom-up order finishes every G_j before G_idx needs it
        order = sorted(range(len(basis.entries)), key=lambda i: sum(basis.entries[i].witness))
        for idx in order:
            diagonal = self.C_exact[(idx, zero)]
            for _, l in self.lowers[idx]:
                self.S[(idx, l)] = 1 / diagonal if l == zero else Fraction(0)
            for jdx, l in self.lowers[idx]:
                if l == zero:
                    continue
                # G_j in the solutions below it, by their gaps from idx
                below = [
                    (tuple(a + b for a, b in zip(l, m)), self.S[(jdx, m)])
                    for _, m in self.lowers[jdx]
                ]
                overlap = sum(s * self.C_exact[(idx, gap)] for gap, s in below)
                factor = overlap / (diagonal * self.norms[jdx])
                for gap, s in below:
                    self.S[(idx, gap)] -= factor * s
            self.norms[idx] = sum(
                self.S[(idx, l)] * self.C_exact[(idx, l)] for _, l in self.lowers[idx]
            ) / diagonal
        # a built table is shared (see representation), so no caller may change it
        self.C = MappingProxyType(self.C)
        self.C_exact = MappingProxyType(self.C_exact)
        self.S = MappingProxyType(self.S)
        self.norms = MappingProxyType(self.norms)
        self.lowers = MappingProxyType(self.lowers)
        self.positions = MappingProxyType(self.positions)


def gt_function(
    delta: ExponentVector, basis: RepresentationBasis, table: CoefficientTable
) -> Polynomial:
    """The orthogonal basis function: sum of S coefficients of the basis's
    table times lower solutions."""
    idx = table.positions.get(delta)
    if idx is None:
        raise KeyError("shift vector not in basis")
    n = basis.n
    terms = []
    entry = basis.entries[idx]
    for jdx, l in table.lowers[idx]:
        lower = basis.entries[jdx]
        assert entry.shift.gamma - r_shift(n, l) == lower.shift.gamma
        terms.extend(lower.agkz_poly.scaled_triples(table.S[(idx, l)]))
    return Polynomial.from_triples(n, terms)


# Bounded memo size.  `basis W` and then `verify W` in one process read one
# representation, and a long-lived process holds at most this many (and as
# many bases); the largest n = 8 representations take hundreds of MB, so the
# memos stay small.
REPRESENTATION_CACHE_SIZE = 2


@lru_cache(maxsize=REPRESENTATION_CACHE_SIZE)
def solution_basis(top_row: tuple) -> RepresentationBasis:
    """build_basis(top_row), built once per process for the most recent top
    rows: `gram` reads it alone and representation builds on it."""
    return build_basis(top_row)


@lru_cache(maxsize=REPRESENTATION_CACHE_SIZE)
def representation(top_row: tuple):
    """(basis, coefficient table, G functions as a tuple) of a top row, built
    once per process for the most recent top rows and shared by every caller.

    The key is the top row as given; the command line passes the normalized
    one.  Everything returned is read-only.  Clearing this memo clears the
    basis memo under it too.
    """
    basis = solution_basis(top_row)
    table = CoefficientTable(basis)
    return basis, table, tuple(gt_function(e.shift.gamma, basis, table) for e in basis.entries)


def _clear_representations(clear=representation.cache_clear):
    """representation.cache_clear: the representations and the bases under them."""
    clear()
    solution_basis.cache_clear()


representation.cache_clear = _clear_representations


def canonical_form(gamma: ExponentVector) -> Polynomial:
    """Sparse polynomial congruent to the lattice series modulo the Plucker generators.

    One monomial per feasible class up the r direction, weighted by
    (-1)^s / s! times the value at 1 of the Horn-type series at gamma + sum
    of all basis vectors.  The monomial sits at the ray point gamma + s.r
    when that point is nonnegative, even if its class holds other nonnegative
    points; otherwise at the one nonnegative point of its class, and a class
    that does not hold exactly one raises AmbiguousSupportError.
    """
    n = gamma.n
    terms = []
    for s, constant in hypergeometric_constants(gamma, feasible_up_shifts(gamma)):
        ray_point = gamma + r_shift(n, s)
        if ray_point.is_nonnegative():
            exponent = ray_point
        else:
            points = nonneg_points(ray_point)
            if len(points) != 1:
                raise AmbiguousSupportError(
                    "canonical form needs a unique nonnegative point per class"
                )
            exponent = points[0]
        terms.append((exponent, constant))
    return Polynomial(n, terms)


def hypergeometric_constants(gamma: ExponentVector, shifts):
    """Pairs (s, (-1)^|s| / s! times the value at 1 of the Horn-type series at
    gamma + the sum of all lattice directions), for the shifts s where that
    value is nonzero."""
    for vec in lattice_basis(gamma.n):
        gamma = gamma + vec.v
    for s in shifts:
        constant = j_value(gamma, s)
        if constant:
            yield s, Fraction(-1 if sum(s) % 2 else 1, multi_factorial(s)) * constant


def weyl_dimension(top_row) -> int:
    """Product formula for the dimension of the highest-weight module."""
    values = list(top_row)
    n = len(values)
    numerator = 1
    denominator = 1
    for i in range(n):
        for j in range(i + 1, n):
            numerator *= values[i] - values[j] + j - i
            denominator *= j - i
    dimension = Fraction(numerator, denominator)
    if dimension.denominator != 1:
        raise ArithmeticError("Weyl dimension is not integral")
    return int(dimension)
