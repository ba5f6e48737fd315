"""The exponent lattice, its deterministic basis, shifted lattices, and the order on cosets.

Exponent vectors live in Z^N with N = 2^n - 1 coordinates indexed by the
canonical subset order.  The lattice B is the set of vectors on which every
counting functional chi_p^q vanishes; a diagram determines the shifted
lattice {x : chi_p^q(x) = m_{p,q}}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from itertools import combinations
from math import factorial

from .combinatorics import (
    GTDiagram,
    chi_pairs,
    enumerate_subsets,
    subset_position,
)


class ExponentVector:
    """Immutable sparse integer vector indexed by nonempty subsets of {1..n}.

    Only the nonzero entries are stored, in canonical subset order.  Series
    exponents touch a handful of the 2^n - 1 coordinates and lattice basis
    vectors four, so memory stays linear in the support.  Dense per-n tuples,
    tried instead, made `lattice 12 --format json` take 9.1 s and 666 MB
    against 1.3 s and 45 MB, and the gl3 ladder only about 5% faster.

    The constructor validates, merges and sorts outside data.  Arithmetic
    (+, - and unary -) and unit keep canonical order instead: they merge
    entries that are already canonical by subset position and build their
    result without re-validating or re-sorting.
    """

    __slots__ = ("n", "_entries", "_hash", "_chi", "_maps")

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
        object.__setattr__(self, "_chi", None)  # chi_table(self), once asked for
        object.__setattr__(self, "_maps", None)  # (T, R) of _kept_maps(self), likewise

    @classmethod
    def _canonical(cls, n, entries):
        """The vector of entries that are nonzero and in canonical order, as given."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "n", n)
        object.__setattr__(vector, "_entries", entries)
        object.__setattr__(vector, "_hash", hash((n, entries)))
        object.__setattr__(vector, "_chi", None)
        object.__setattr__(vector, "_maps", None)
        return vector

    def __setattr__(self, name, value):
        raise AttributeError("ExponentVector is immutable")

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def unit(cls, n, X):
        X = tuple(X)
        if X not in subset_position(n):
            raise ValueError(f"{X} is not a nonempty subset of 1..{n}")
        return cls._canonical(n, ((X, 1),))

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
        return self._merge(other._entries, 1)

    def __sub__(self, other):
        self._check(other)
        return self._merge(other._entries, -1)

    def __neg__(self):
        return ExponentVector._canonical(self.n, tuple((X, -v) for X, v in self._entries))

    def _merge(self, right, sign):
        """self + sign * (the vector of the canonical entries right), merging the
        two entry lists by subset position."""
        left = self._entries
        if not right:
            return self
        positions = subset_position(self.n)
        merged = []
        i = j = 0
        while i < len(left) and j < len(right):
            X, a = left[i]
            Y, b = right[j]
            if X == Y:
                if a + sign * b:
                    merged.append((X, a + sign * b))
                i += 1
                j += 1
            elif positions[X] < positions[Y]:
                merged.append(left[i])
                i += 1
            else:
                merged.append((Y, sign * b))
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:] if sign == 1 else [(Y, -b) for Y, b in right[j:]])
        return ExponentVector._canonical(self.n, tuple(merged))

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


def multi_factorial(values) -> int:
    """The product of value! over nonnegative integers: s! of a multi-index s,
    x! of the entries of an exponent vector x."""
    product = 1
    for value in values:
        if value > 1:
            product *= factorial(value)
        elif value < 0:
            raise ValueError(f"factorial of the negative value {value}")
    return product


@lru_cache(maxsize=None)
def _chi_incidence(n: int):
    """Map subset -> the chi_pairs indices of the functionals counting it, ascending.

    chi_p^q counts X when X has at least p elements <= q.
    """
    index = {pair: c for c, pair in enumerate(chi_pairs(n))}
    return {
        X: tuple(sorted(
            index[(p, q)]
            for q in range(1, n + 1)
            for p in range(1, sum(1 for x in X if x <= q) + 1)
        ))
        for X in enumerate_subsets(n)
    }


def _chi_sums(v: ExponentVector):
    """Values of every chi_p^q on v, in chi_pairs order, summed over v's entries."""
    incidence = _chi_incidence(v.n)
    sums = [0] * len(chi_pairs(v.n))
    for X, value in v.items():
        for c in incidence[X]:
            sums[c] += value
    return sums


def chi_table(v: ExponentVector):
    """_chi_sums(v) as a tuple; v keeps it after the first call."""
    if v._chi is None:
        object.__setattr__(v, "_chi", tuple(_chi_sums(v)))
    return v._chi


def in_lattice(v: ExponentVector) -> bool:
    """True iff every counting functional vanishes on v; unlike chi_table, keeps
    nothing on v (a tuple on every basis vector is about 2 MB for n = 12), and
    it needs no lattice coordinates, so it builds no column table."""
    return not any(_chi_sums(v))


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
    return ExponentVector(
        n, [(X, coeff * value) for coeff, vec in zip(coefficients, vectors) if coeff for X, value in vec.items()]
    )


def r_shift(n, s) -> ExponentVector:
    """The vector sum(s_alpha * r^alpha) for a multi-index s."""
    return combine([b.r for b in lattice_basis(n)], s, n)


@dataclass(frozen=True)
class ShiftVector:
    """An integer solution of chi_p^q(gamma) = m_{p,q} for a diagram."""

    gamma: ExponentVector
    diagram: GTDiagram

    def __post_init__(self):
        d = self.diagram
        for (p, q), value in zip(chi_pairs(d.n), chi_table(self.gamma)):
            if value != d.m(p, q):
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
    prefixes = [0] * (n + 1)  # prefixes[q]: the sum over levels p' <= p so far
    defect = {}
    for (p, q), g, d in zip(chi_pairs(n), chi_table(gamma), chi_table(delta)):
        prefixes[q] += g - d
        prefix = prefixes[q]
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
    moved = list(chi_table(gamma))  # chi(gamma + s.r), chi being linear
    for vec, amount in zip(lattice_basis(n), s):
        if amount:
            for c, value in enumerate(chi_table(vec.r)):
                moved[c] += amount * value
    assert tuple(moved) == chi_table(delta)
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
    """Partition shift vectors into connected components of the order.

    Comparable classes have equal weight (the window defect is None across
    weights), so only shifts of one diagram weight are compared.
    """
    count = len(shifts)
    parent = list(range(count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    same_weight = {}
    for a, shift in enumerate(shifts):
        same_weight.setdefault(shift.diagram.weight(), []).append(a)
    related = [[False] * count for _ in range(count)]
    for group in same_weight.values():
        for a in group:
            for b in group:
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


@lru_cache(maxsize=None)
def _search_plan(n: int):
    """Coordinate order of the point search with, per step, its dense position,
    the chi_pairs indices counting its subset, and the one it is the last to
    count (or None).

    Subsets come largest first, colexicographic within a size: the full set is
    the only one counted by chi_n^n, and chi_p^q is last counted by {q-p+1..q},
    so every functional closes at its own step and forces that coordinate.
    """
    positions = subset_position(n)
    order = sorted(enumerate_subsets(n), key=lambda X: (-len(X), X[::-1]))
    incidence = [_chi_incidence(n)[X] for X in order]
    last = {c: step for step, counted in enumerate(incidence) for c in counted}
    closing = {step: c for c, step in last.items()}
    assert len(closing) == len(chi_pairs(n))  # no step closes two functionals
    return tuple(
        (positions[X], counted, closing.get(step))
        for step, (X, counted) in enumerate(zip(order, incidence))
    )


# Bounded memo size.  The class table is read once per series call and holds
# one entry per class: a cold (8,4,0) basis asks 721 times for 125 classes;
# basis plus verify of all 17 n = 3, 4 weights with dimension <= 15 in one
# process asks 1,148 times for 157; cold basis 2,1,1,0,0,0 and 2,1,0,0,0,0,0
# ask 9,732 and 10,849 times for 105 and 112.  None of these runs evicts, and
# a long-lived process holds at most this many entries.
CLASS_POINTS_CACHE_SIZE = 4096


@lru_cache(maxsize=CLASS_POINTS_CACHE_SIZE)
def _class_table(n: int, target: tuple):
    """The nonnegative points x with chi_table(x) == target, as (triples, R):
    the triples (x, T(x), x!) sorted by the dense x, and the residual R(x) of
    every point, asserted to be shared (None for a class without points); T
    and R come from _linear_maps.

    A depth-first search over the coordinates, largest subset first, with what
    remains of every chi constraint bounding each coordinate and forcing it
    where that constraint closes.
    """
    if any(value < 0 for value in target):
        return (), None
    plan = _search_plan(n)
    points = []
    values = [0] * len(plan)
    residual = list(target)

    def search(step):
        if step == len(plan):
            points.append(tuple(values))
            return
        position, counted, closes = plan[step]
        bound = min(residual[c] for c in counted)
        if closes is None:
            candidates = range(bound + 1)
        else:
            candidates = (bound,) if residual[closes] == bound else ()
        for value in candidates:
            values[position] = value
            for c in counted:
                residual[c] -= value
            search(step + 1)
            for c in counted:
                residual[c] += value

    search(0)
    subsets = enumerate_subsets(n)
    triples, shared = [], None
    for point in sorted(points):
        x = ExponentVector(n, zip(subsets, point))
        t, own = _linear_maps(n, x.items())
        assert shared is None or own == shared
        shared = own
        triples.append((x, t, multi_factorial(point)))
    return tuple(triples), shared


def nonneg_points(gamma: ExponentVector):
    """All nonnegative integer points of the shifted lattice gamma + B, a new
    list on each call, lexicographic in the dense coordinates (see _class_table)."""
    return [x for x, _, _ in _class_table(gamma.n, chi_table(gamma))[0]]


@lru_cache(maxsize=None)
def _coordinate_solver(n: int):
    """Back-substitution steps (b, pivot position, ((c, v_c[pivot]), ...)) for
    the lattice coordinates t of a vector y, those with y - sum t_b v_b zero
    at every pivot.

    Basis vector v^(i,j,x,X) has coefficient +1 on its pivot subset
    {1..i-1, j, x} + X, and the pivots are distinct, so t_b is y at b's pivot
    minus t_c v_c[pivot] over the other vectors c touching it.
    These dependencies are acyclic; the steps come in an order that finishes
    every t_c before a step reads it, and a cycle raises ArithmeticError.
    """
    basis = lattice_basis(n)
    positions = subset_position(n)
    directions = [{positions[X]: value for X, value in vec.v.items()} for vec in basis]
    pivots = [positions[(*range(1, vec.i), vec.j, vec.x, *vec.X)] for vec in basis]
    owner = {pivot: b for b, pivot in enumerate(pivots)}
    if len(owner) != len(basis) or any(d.get(pivot) != 1 for d, pivot in zip(directions, pivots)):
        raise ArithmeticError(f"lattice basis for n = {n} has no distinct unit pivots")
    needs = {b: [] for b in range(len(basis))}
    for c, direction in enumerate(directions):
        for position, value in direction.items():
            b = owner.get(position)
            if b is not None and b != c:
                needs[b].append((c, value))
    graph = TopologicalSorter({b: [c for c, _ in pairs] for b, pairs in needs.items()})
    try:
        order = tuple(graph.static_order())
    except CycleError:
        raise ArithmeticError(f"lattice coordinates for n = {n} are not triangular") from None
    return tuple((b, pivots[b], tuple(needs[b])) for b in order)


def _nonzero(values):
    """The (index, value) pairs of the nonzero values."""
    return tuple((index, value) for index, value in enumerate(values) if value)


@lru_cache(maxsize=None)
def _column_table(n: int):
    """Map subset X -> the nonzero (b, T_b) and (position, R) of the unit vector
    e_X: its lattice coordinates T(e_X) by back-substitution, and its residual
    R(e_X) = e_X - T(e_X).v, zero at every pivot.

    Two vectors differ by a lattice vector exactly when their residuals agree,
    and then by the difference of their coordinates.
    """
    directions = [vec.v for vec in lattice_basis(n)]
    steps = _coordinate_solver(n)
    positions = subset_position(n)
    columns = {}
    for X, position in positions.items():
        t = [0] * len(directions)
        for b, pivot, needs in steps:
            t[b] = (pivot == position) - sum(t[c] * value for c, value in needs)
        residual = ExponentVector.unit(n, X) - combine(directions, t, n)
        columns[X] = (_nonzero(t), tuple((positions[Y], value) for Y, value in residual.items()))
    return columns


def _linear_maps(n: int, entries):
    """(T(y), R(y)) as tuples for the vector y of the (X, value) entries: T and
    R are linear, so they are the columns of _column_table summed over them."""
    sums = ([0] * len(lattice_basis(n)), [0] * len(subset_position(n)))
    columns = _column_table(n)
    for X, value in entries:
        for values, column in zip(sums, columns[X]):
            for index, entry in column:
                values[index] += value * entry
    return tuple(sums[0]), tuple(sums[1])


def _kept_maps(v: ExponentVector):
    """_linear_maps of v's entries; v keeps them after the first call."""
    if v._maps is None:
        object.__setattr__(v, "_maps", _linear_maps(v.n, v.items()))
    return v._maps


@lru_cache(maxsize=None)
def _r_directions(n: int):
    """Per r direction r_a, its nonzero (c, chi_c(r_a)), (b, T_b(r_a)) and
    (position, R(r_a)[position]); chi, T and R are linear, so these give them
    at gamma - s.r from gamma's without building the vector."""
    return tuple(
        tuple(_nonzero(values) for values in (chi_table(vec.r), *_linear_maps(n, vec.r.items())))
        for vec in lattice_basis(n)
    )


def _class_entry(gamma: ExponentVector, down=None):
    """The triples of the class of gamma - down.r in _class_table and that
    representative's own T, for a multi-index down (gamma itself when None).

    The representative's chi, T and residual R are gamma's kept values minus
    the down-weighted r-direction columns; the residual must be the class's,
    so every point x of the class is the representative plus (T(x) - T).v
    exactly.
    """
    n = gamma.n
    target, t, residual = (list(values) for values in (chi_table(gamma), *_kept_maps(gamma)))
    for amount, parts in zip(down or (), _r_directions(n)):
        if amount:
            for values, column in zip((target, t, residual), parts):
                for index, value in column:
                    values[index] -= amount * value
    triples, shared = _class_table(n, tuple(target))
    assert not triples or tuple(residual) == shared
    return triples, t


def coset_points(gamma: ExponentVector):
    """Pairs (x, t) over nonneg_points(gamma) with x = gamma + t.v exactly.

    A new list on each call: t = T(x) - T(gamma), with T(x) read from the
    class table and T(gamma) kept on gamma (see _class_entry).
    """
    triples, origin = _class_entry(gamma)
    return [(x, tuple(a - b for a, b in zip(tx, origin))) for x, tx, _ in triples]
