"""The exponent lattice, its deterministic basis, shifted lattices, and the order on cosets.

Exponent vectors live in Z^N with N = 2^n - 1 coordinates indexed by the
canonical subset order.  The lattice B is the set of vectors on which every
counting functional chi_p^q vanishes; a diagram determines the shifted
lattice {x : chi_p^q(x) = m_{p,q}}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import _linalg
from .combinatorics import (
    GTDiagram,
    chi,
    chi_apply,
    chi_pairs,
    enumerate_subsets,
    subset_position,
)


class ExponentVector:
    """Immutable sparse integer vector indexed by nonempty subsets of {1..n}."""

    __slots__ = ("n", "_entries", "_hash")

    def __init__(self, n, entries=()):
        positions = subset_position(n)
        merged = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for X, value in items:
            X = tuple(X)
            if X not in positions:
                raise ValueError(f"{X} is not a nonempty subset of 1..{n}")
            value = int(value)
            if value:
                merged[X] = merged.get(X, 0) + value
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self,
            "_entries",
            tuple(sorted(((X, v) for X, v in merged.items() if v), key=lambda t: positions[t[0]])),
        )
        object.__setattr__(self, "_hash", hash((n, self._entries)))

    def __setattr__(self, name, value):
        raise AttributeError("ExponentVector is immutable")

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def unit(cls, n, X):
        return cls(n, [(tuple(X), 1)])

    def items(self):
        return self._entries

    def __getitem__(self, X):
        X = tuple(X)
        for Y, value in self._entries:
            if Y == X:
                return value
        return 0

    def __add__(self, other):
        self._check(other)
        return ExponentVector(self.n, list(self._entries) + list(other._entries))

    def __sub__(self, other):
        self._check(other)
        return ExponentVector(
            self.n, list(self._entries) + [(X, -v) for X, v in other._entries]
        )

    def __neg__(self):
        return ExponentVector(self.n, [(X, -v) for X, v in self._entries])

    def __mul__(self, scalar):
        return ExponentVector(self.n, [(X, scalar * v) for X, v in self._entries])

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, ExponentVector) or other.n != self.n:
            raise ValueError("dimension mismatch")

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for _, v in self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def dense(self):
        values = [0] * len(enumerate_subsets(self.n))
        positions = subset_position(self.n)
        for X, v in self._entries:
            values[positions[X]] = v
        return tuple(values)

    sort_key = dense

    def __eq__(self, other):
        return (
            isinstance(other, ExponentVector)
            and self.n == other.n
            and self._entries == other._entries
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{'.'.join(map(str, X))}:{v}" for X, v in self._entries)
        return f"ExponentVector({self.n}; {body})"


def chi_table(v: ExponentVector):
    """Values of every chi_p^q on v, in chi_pairs order."""
    return tuple(chi_apply(p, q, v) for p, q in chi_pairs(v.n))


def in_lattice(v: ExponentVector) -> bool:
    """True iff every counting functional vanishes on v."""
    return all(chi_apply(p, q, v) == 0 for p, q in chi_pairs(v.n))


@dataclass(frozen=True)
class LatticeBasisVector:
    """Basis vector determined by i < j < x < X, with its split parts.

    v = v_plus - v_minus is the lattice vector; v_zero completes the three
    quadratic monomials of the attached Plucker relation, and r = v_zero -
    v_plus generates the order on shifted lattices.
    """

    i: int
    j: int
    x: int
    X: tuple
    v: ExponentVector
    v_plus: ExponentVector
    v_minus: ExponentVector
    v_zero: ExponentVector
    r: ExponentVector


def _basis_vector(n, i, j, x, X):
    prefix = tuple(range(1, i))
    rest = tuple(sorted(X))
    e = lambda *parts: ExponentVector.unit(n, tuple(sorted(sum(parts, ()))))
    plus = e(prefix, (i,), rest) + e(prefix, (j, x), rest)
    minus = e(prefix, (j,), rest) + e(prefix, (i, x), rest)
    zero = e(prefix, (x,), rest) + e(prefix, (i, j), rest)
    return LatticeBasisVector(
        i=i, j=j, x=x, X=rest,
        v=plus - minus, v_plus=plus, v_minus=minus, v_zero=zero, r=zero - plus,
    )


@lru_cache(maxsize=None)
def lattice_basis(n: int):
    """Deterministic basis of the lattice; empty for n <= 2.

    For each i < j and each nonempty Y inside {j+1..n} (canonical subset
    order) the emitted vector uses x = min Y and X = Y minus x; per (i, j)
    these edges form the spanning tree joining every Y to Y minus its
    minimum.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    vectors = []
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            tail = range(j + 1, n + 1)
            for size in range(1, len(tail) + 1):
                for Y in combinations(tail, size):
                    vectors.append(_basis_vector(n, i, j, Y[0], Y[1:]))
    return tuple(vectors)


def lattice_rank(n: int) -> int:
    return 2 ** n - 1 - n * (n + 1) // 2


@lru_cache(maxsize=None)
def _basis_index(n: int):
    return {(b.i, b.j, b.x, b.X): idx for idx, b in enumerate(lattice_basis(n))}


def combine(vectors, coefficients, n) -> ExponentVector:
    """Integer combination sum(c_alpha * vectors[alpha])."""
    total = ExponentVector.zero(n)
    for coeff, vec in zip(coefficients, vectors):
        if coeff:
            total = total + coeff * vec
    return total


def r_shift(n, s) -> ExponentVector:
    """The vector sum(s_alpha * r^alpha) for a multi-index s."""
    return combine([b.r for b in lattice_basis(n)], s, n)


def v_shift(n, t) -> ExponentVector:
    """The vector sum(t_alpha * v^alpha)."""
    return combine([b.v for b in lattice_basis(n)], t, n)


@dataclass(frozen=True)
class ShiftVector:
    """An integer solution of chi_p^q(gamma) = m_{p,q} for a diagram."""

    gamma: ExponentVector
    diagram: GTDiagram

    def __post_init__(self):
        d = self.diagram
        for p, q in chi_pairs(d.n):
            if chi_apply(p, q, self.gamma) != d.m(p, q):
                raise ValueError(f"chi_{p}^{q} mismatch for shift vector")


def shift_from_diagram(d: GTDiagram) -> ShiftVector:
    """Deterministic staircase solution of the chi system of a diagram.

    Places m_{p,q} - m_{p,q-1} on the coordinate {1..p-1, q} and
    m_{p,p} - m_{p+1,n} on {1..p}; a direct telescoping check shows all
    n(n+1)/2 equations hold.
    """
    n = d.n
    entries = []
    for p in range(1, n + 1):
        top_next = d.m(p + 1, n) if p < n else 0
        entries.append((tuple(range(1, p + 1)), d.m(p, p) - top_next))
        for q in range(p + 1, n + 1):
            coordinate = tuple(range(1, p)) + (q,)
            entries.append((coordinate, d.m(p, q) - d.m(p, q - 1)))
    return ShiftVector(ExponentVector(n, entries), d)


class AmbiguousMinimumError(ValueError):
    """A comparability component has no unique minimal diagram."""


def _window_defect(gamma: ExponentVector, delta: ExponentVector):
    """Unit-window amounts carrying the class of gamma up to that of delta, or None.

    The amount on the window (p, q, q+1) is the prefix sum over levels
    p' <= p of chi_{p'}^q(gamma) - chi_{p'}^q(delta), for p < q < n; the
    classes are comparable iff every amount is >= 0 and the same prefix
    sums vanish at q in {p, n} (equal weight and top row).
    """
    if gamma.n != delta.n:
        raise ValueError("dimension mismatch")
    n = gamma.n
    table_g = {pq: chi_apply(*pq, gamma) for pq in chi_pairs(n)}
    table_d = {pq: chi_apply(*pq, delta) for pq in chi_pairs(n)}
    defect = {}
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            prefix = sum(table_g[(p2, q)] - table_d[(p2, q)] for p2 in range(1, p + 1))
            if q in (p, n):
                if prefix != 0:
                    return None
            elif prefix < 0:
                return None
            else:
                defect[(p, q)] = prefix
    return defect


def coset_leq(gamma: ExponentVector, delta: ExponentVector, *, with_witness=True):
    """Witness s >= 0 with gamma + s.r congruent to delta mod B, or None.

    The witness places the window defect on the unit-window vectors
    (p, q, q+1, empty X).
    """
    defect = _window_defect(gamma, delta)
    if defect is None:
        return None
    if not with_witness:
        return ()
    n = gamma.n
    index = _basis_index(n)
    witness = [0] * len(lattice_basis(n))
    for (p, q), amount in defect.items():
        witness[index[(p, q, q + 1, ())]] = amount
    s = tuple(witness)
    assert chi_table(gamma + r_shift(n, s)) == chi_table(delta)
    return s


def r_routes(gamma: ExponentVector, delta: ExponentVector):
    """All u >= 0 with gamma + u.r congruent to delta mod B, in sorted order.

    r^(i, j, x, X) moves a class by the unit windows (i, q, q+1) for
    j <= q < x, so a route splits the window defect of each level i into
    intervals [j, x - 1].  Directions sharing (i, j, x) differ only in X and
    have the same effect: these parallel directions, possible from n = 4 on,
    are why distinct routes can join the same pair of classes.
    """
    defect = _window_defect(gamma, delta)
    if defect is None:
        return []
    n = gamma.n
    basis = lattice_basis(n)
    order = sorted(range(len(basis)), key=lambda a: (basis[a].i, basis[a].j, basis[a].x))
    routes = []
    current = [0] * len(basis)

    def search(position):
        if position == len(order):
            routes.append(tuple(current))
            return
        alpha = order[position]
        vec = basis[alpha]
        windows = [(vec.i, q) for q in range(vec.j, vec.x)]
        limit = min(defect[w] for w in windows)
        # (i, j, n, ()) is the last direction to cover window (i, j): it takes the rest
        counts = [defect[(vec.i, vec.j)]] if vec.x == n else range(limit + 1)
        for count in counts:
            if count > limit:
                break
            current[alpha] = count
            for w in windows:
                defect[w] -= count
            search(position + 1)
            for w in windows:
                defect[w] += count
        current[alpha] = 0

    search(0)
    return sorted(routes)


def comparability_components(shifts):
    """Partition shift vectors into connected components of the order."""
    count = len(shifts)
    parent = list(range(count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    related = [[False] * count for _ in range(count)]
    for a in range(count):
        for b in range(count):
            if a != b and coset_leq(shifts[a].gamma, shifts[b].gamma, with_witness=False) is not None:
                related[a][b] = True
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    components = {}
    for a in range(count):
        components.setdefault(find(a), []).append(a)
    return list(components.values()), related


def canonical_shift_table(diagrams):
    """Coherent shifts plus their witnesses from the component minima.

    Within each comparability component the unique minimal diagram keeps its
    staircase shift; every other member gets the minimum's shift plus the
    witness combination of r vectors, so comparable diagrams differ exactly
    (not only mod B) by a nonnegative combination of r's.
    """
    diagrams = list(diagrams)
    base = [shift_from_diagram(d) for d in diagrams]
    n = diagrams[0].n if diagrams else 0
    components, related = comparability_components(base)
    result = [None] * len(diagrams)
    for members in components:
        minima = [a for a in members if not any(related[b][a] for b in members if b != a)]
        if len(minima) != 1:
            raise AmbiguousMinimumError(
                f"component {[diagrams[a].rows for a in members]} has minima "
                f"{[diagrams[a].rows for a in minima]}"
            )
        bottom = minima[0]
        for a in members:
            witness = coset_leq(base[bottom].gamma, base[a].gamma)
            if witness is None:
                raise AmbiguousMinimumError(
                    f"minimum {diagrams[bottom].rows} is not below {diagrams[a].rows}"
                )
            shift = ShiftVector(base[bottom].gamma + r_shift(n, witness), diagrams[a])
            result[a] = (shift, witness)
    return result


def canonical_shifts(diagrams):
    """Coherent shift vectors for all diagrams of one representation."""
    return [shift for shift, _ in canonical_shift_table(diagrams)]


def nonneg_points(gamma: ExponentVector):
    """All nonnegative integer points of the shifted lattice gamma + B.

    Enumerated by depth-first search over the canonical coordinates with
    residual pruning on every chi constraint; output order is lexicographic
    in the dense coordinate vector.
    """
    n = gamma.n
    pairs = chi_pairs(n)
    target = [chi_apply(p, q, gamma) for p, q in pairs]
    if any(value < 0 for value in target):
        return []
    subsets = enumerate_subsets(n)
    incidence = [
        [c for c, (p, q) in enumerate(pairs) if chi(p, q, X)] for X in subsets
    ]
    last_touch = [max(pos for pos, inc in enumerate(incidence) if c in inc)
                  for c in range(len(pairs))]
    points = []
    values = [0] * len(subsets)

    def search(pos, residual):
        if pos == len(subsets):
            if all(x == 0 for x in residual):
                points.append(
                    ExponentVector(n, [(subsets[i], values[i]) for i in range(len(subsets))])
                )
            return
        for c in range(len(pairs)):
            if last_touch[c] < pos and residual[c] != 0:
                return
        bound = min(residual[c] for c in incidence[pos])
        forced = {residual[c] for c in incidence[pos] if last_touch[c] == pos}
        if len(forced) > 1:
            return
        candidates = sorted(forced) if forced else range(bound + 1)
        for value in candidates:
            if value > bound:
                break
            values[pos] = value
            next_residual = list(residual)
            for c in incidence[pos]:
                next_residual[c] -= value
            search(pos + 1, next_residual)
        values[pos] = 0

    search(0, target)
    return points


@lru_cache(maxsize=None)
def _coordinate_solver(n: int):
    """Pivot rows and inverted minor used to express x - gamma in the basis."""
    basis = lattice_basis(n)
    if not basis:
        return (), ()
    subsets = enumerate_subsets(n)
    matrix = [[vec.v[X] for vec in basis] for X in subsets]
    rows = _linalg.independent_rows(matrix, len(basis))
    minor = [matrix[r] for r in rows]
    return tuple(rows), tuple(tuple(row) for row in _linalg.inverse(minor))


def coset_points(gamma: ExponentVector):
    """Pairs (x, t) over nonneg_points(gamma) with x = gamma + t.v exactly."""
    n = gamma.n
    rows, inverse = _coordinate_solver(n)
    subsets = enumerate_subsets(n)
    result = []
    for x in nonneg_points(gamma):
        difference = x - gamma
        column = [difference[subsets[r]] for r in rows]
        t = tuple(sum(row[i] * column[i] for i in range(len(column))) for row in inverse)
        if any(value.denominator != 1 for value in t):
            raise ArithmeticError("non-integral lattice coordinates")
        t = tuple(int(value) for value in t)
        assert gamma + v_shift(n, t) == x
        result.append((x, t))
    return result
