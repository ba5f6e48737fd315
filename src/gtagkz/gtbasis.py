"""Construction of the orthogonal basis from the solution basis.

The solution polynomials F of the antisymmetrized GKZ system carry the
invariant pairing; the Gelfand-Tsetlin functions G are obtained by a
lower-triangular change of basis whose coefficients are values at A = 1 of
the paired hypergeometric series (hypergeometric constants).  A generic
exact Lagrange/Gram-Schmidt diagonalization cross-validates the formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _linalg
from .combinatorics import GTDiagram, enumerate_diagrams
from .lattice import (
    ShiftVector,
    canonical_shift_table,
    coset_leq,
    lattice_basis,
    nonneg_points,
    r_shift,
)
from .polyengine import Polynomial, evaluate_at_ones, pair
from .series import (
    agkz_solution,
    f_pair_series,
    feasible_down_shifts,
    feasible_up_shifts,
    gamma_series,
    j_series,
    multi_factorial,
    rising,
)


class DegenerateMetricError(ArithmeticError):
    """The pairing degenerates where the construction needs to divide."""


class AmbiguousSupportError(ValueError):
    """A class on the monomial ray has more than one nonnegative point."""


@dataclass(frozen=True)
class BasisEntry:
    diagram: GTDiagram
    shift: ShiftVector
    gamma_poly: Polynomial
    agkz_poly: Polynomial
    witness: tuple  # r-combination from the component minimum


@dataclass(frozen=True)
class RepresentationBasis:
    top_row: tuple
    n: int
    entries: tuple

    def __len__(self):
        return len(self.entries)

    def index_of(self, diagram: GTDiagram) -> int:
        for idx, entry in enumerate(self.entries):
            if entry.diagram == diagram:
                return idx
        raise KeyError("diagram not in basis")


def build_basis(top_row) -> RepresentationBasis:
    """Enumerate diagrams, fix coherent shifts, and build both polynomial families."""
    diagrams = enumerate_diagrams(top_row)
    table = canonical_shift_table(diagrams)
    n = len(tuple(top_row))
    entries = []
    for diagram, (shift, witness) in zip(diagrams, table):
        entries.append(
            BasisEntry(
                diagram=diagram,
                shift=shift,
                gamma_poly=gamma_series(shift),
                agkz_poly=agkz_solution(shift),
                witness=tuple(witness),
            )
        )
    return RepresentationBasis(top_row=tuple(top_row), n=n, entries=tuple(entries))


def gram_matrix(basis: RepresentationBasis):
    """Exact pairing matrix of the solution polynomials."""
    polys = [entry.agkz_poly for entry in basis.entries]
    return [[pair(f, g) for g in polys] for f in polys]


def coeff_C(delta, l) -> Fraction:
    """Orthogonalization coefficient: the paired series at delta - l.r, at A = 1."""
    vector = getattr(delta, "gamma", delta)
    n = vector.n
    l = tuple(l)
    zero = (0,) * len(l)
    return evaluate_at_ones(f_pair_series(vector - r_shift(n, l), l, zero))


@lru_cache(maxsize=None)
def _pochhammer_expansion(a: int, b: int):
    """Coefficients k_c with (t+1)..(t+a) (t+1)..(t+b) = sum_c k_c (t+1)..(t+c).

    Solved exactly from enough sample points; c runs over max(a,b)..a+b.
    """
    top = a + b
    samples = list(range(top + 1))
    matrix = [[rising(t, c) for c in range(top + 1)] for t in samples]
    rhs = [rising(t, a) * rising(t, b) for t in samples]
    solution = _linalg.solve(matrix, rhs)
    table = {}
    for c, value in enumerate(solution):
        if value:
            if not (max(a, b) <= c <= a + b):
                raise ArithmeticError("expansion outside the expected range")
            table[c] = value
    return table


def coeff_C_alt(delta, l) -> Fraction:
    """The same coefficient through the expansion into plain Horn-type values.

    Expands each doubly weighted term into single Pochhammer series and
    evaluates those at 1: an independent computational route for coeff_C.
    """
    vector = getattr(delta, "gamma", delta)
    n = vector.n
    l = tuple(l)
    base = vector - r_shift(n, l)
    sign_l = -1 if sum(l) % 2 else 1
    total = Fraction(0)
    for u in feasible_down_shifts(base):
        a = tuple(x + y for x, y in zip(u, l))
        norm = Fraction(1, multi_factorial(a) * multi_factorial(u))
        expansions = [_pochhammer_expansion(a_part, u_part) for a_part, u_part in zip(a, u)]
        subscript = base - r_shift(n, u)
        for c, weight in _expansion_products(expansions):
            value = evaluate_at_ones(j_series(subscript, c))
            if value:
                total += sign_l * norm * weight * value
    return total


def _expansion_products(expansions):
    """Cartesian products of per-direction expansion tables."""
    if not expansions:
        yield (), Fraction(1)
        return
    head, *tail = expansions
    for c_head, w_head in head.items():
        for c_tail, w_tail in _expansion_products(tail):
            yield (c_head,) + c_tail, w_head * w_tail


class CoefficientTable:
    """C and S tables over the pairs (entry, lower entry) of one basis.

    C holds the closed-form series values; C_exact holds the pairings of
    the actual solution polynomials.  The two coincide whenever no two
    distinct nonnegative r-combinations join the same pair of classes; when
    such parallel routes exist (possible from n = 4 on) the closed form
    misses their cross terms, so the inversion S is always built from the
    exact pairings.
    """

    def __init__(self, basis: RepresentationBasis):
        self.basis = basis
        self.C = {}
        self.C_exact = {}
        self.S = {}
        self.lowers = {}
        n = basis.n
        zero = (0,) * len(lattice_basis(n))
        for idx, entry in enumerate(basis.entries):
            lowers = []
            for jdx, other in enumerate(basis.entries):
                l = _witness_gap(entry, other)
                if l is not None:
                    lowers.append((jdx, l))
                    self.C[(idx, l)] = coeff_C(entry.shift, l)
                    self.C_exact[(idx, l)] = pair(entry.agkz_poly, other.agkz_poly)
            self.lowers[idx] = lowers
            if self.C_exact[(idx, zero)] == 0:
                raise DegenerateMetricError(
                    f"zero diagonal coefficient at diagram {entry.diagram.rows}"
                )
        for (idx, l), value in self.C_exact.items():
            diagonal = self.C_exact[(idx, zero)]
            if all(part == 0 for part in l):
                self.S[(idx, l)] = 1 / diagonal
            else:
                jdx = self._lower_index(idx, l)
                lower_diagonal = self.C_exact[(jdx, zero)]
                if lower_diagonal == 0:
                    raise DegenerateMetricError("zero diagonal coefficient below")
                self.S[(idx, l)] = -value / (diagonal * lower_diagonal)

    def _lower_index(self, idx, l):
        for jdx, gap in self.lowers[idx]:
            if gap == l:
                return jdx
        raise KeyError((idx, l))


def _witness_gap(upper: BasisEntry, lower: BasisEntry):
    """The multi-index l with gamma(upper) - l.r = gamma(lower), if comparable."""
    if upper.diagram.weight() != lower.diagram.weight():
        return None
    if coset_leq(lower.shift.gamma, upper.shift.gamma, with_witness=False) is None:
        return None
    gap = tuple(a - b for a, b in zip(upper.witness, lower.witness))
    if any(part < 0 for part in gap):
        return None
    return gap


def coeff_S(delta, l, table: CoefficientTable) -> Fraction:
    """Inverse-transform coefficient from a prepared table."""
    basis = table.basis
    vector = getattr(delta, "gamma", delta)
    for idx, entry in enumerate(basis.entries):
        if entry.shift.gamma == vector:
            return table.S[(idx, tuple(l))]
    raise KeyError("shift vector not in basis")


def gt_function(delta, basis: RepresentationBasis, table: CoefficientTable | None = None) -> Polynomial:
    """The orthogonal basis function: sum of S coefficients times lower solutions."""
    if table is None:
        table = CoefficientTable(basis)
    vector = getattr(delta, "gamma", delta)
    idx = next(
        (i for i, e in enumerate(basis.entries) if e.shift.gamma == vector), None
    )
    if idx is None:
        raise KeyError("shift vector not in basis")
    n = basis.n
    total = Polynomial.zero(n)
    entry = basis.entries[idx]
    for jdx, l in table.lowers[idx]:
        lower = basis.entries[jdx]
        assert entry.shift.gamma - r_shift(n, l) == lower.shift.gamma
        total = total + lower.agkz_poly.scale(table.S[(idx, l)])
    return total


def gt_basis(basis: RepresentationBasis):
    """All orthogonal basis functions, aligned with basis.entries."""
    table = CoefficientTable(basis)
    return [gt_function(entry.shift, basis, table) for entry in basis.entries]


def canonical_form(gamma) -> Polynomial:
    """Sparse polynomial congruent to the lattice series modulo the Plucker generators.

    One monomial per feasible class up the r direction, placed at the unique
    nonnegative point of that class, weighted by (-1)^s / s! times the value
    at 1 of the Horn-type series at gamma + sum of all basis vectors.
    """
    vector = getattr(gamma, "gamma", gamma)
    n = vector.n
    basis = lattice_basis(n)
    v_total = vector
    for vec in basis:
        v_total = v_total + vec.v
    terms = []
    for s in feasible_up_shifts(vector):
        constant = evaluate_at_ones(j_series(v_total, s))
        if constant == 0:
            continue
        ray_point = vector + r_shift(n, s)
        if ray_point.is_nonnegative():
            exponent = ray_point
        else:
            points = nonneg_points(ray_point)
            if len(points) != 1:
                raise AmbiguousSupportError(
                    "canonical form needs a unique nonnegative point per class"
                )
            exponent = points[0]
        sign = -1 if sum(s) % 2 else 1
        terms.append((exponent, Fraction(sign, multi_factorial(s)) * constant))
    return Polynomial(n, terms)


def lagrange_orthogonalize(basis: RepresentationBasis):
    """Generic exact Gram-Schmidt in a total order refining the partial order.

    Independent of the coefficient formulas; output is aligned with
    basis.entries and spans the same flags as the gt functions.
    """
    order = sorted(
        range(len(basis.entries)),
        key=lambda i: (sum(basis.entries[i].witness), basis.entries[i].diagram.rows),
    )
    outputs = [None] * len(basis.entries)
    processed = []
    for idx in order:
        candidate = basis.entries[idx].agkz_poly
        for jdx in processed:
            previous = outputs[jdx]
            overlap = pair(candidate, previous)
            if overlap:
                candidate = candidate - previous.scale(overlap / pair(previous, previous))
        if pair(candidate, candidate) == 0:
            raise DegenerateMetricError("singular pairing during orthogonalization")
        outputs[idx] = candidate
        processed.append(idx)
    return outputs


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
