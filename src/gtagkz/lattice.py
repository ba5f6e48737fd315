"""The exponent lattice, its deterministic basis, shifted lattices, and the order on cosets.

Exponent vectors live in Z^N with N = 2^n - 1 coordinates indexed by the
canonical subset order.  The lattice B is the set of vectors on which every
counting functional chi_p^q vanishes; a diagram determines the shifted
lattice {x : chi_p^q(x) = m_{p,q}}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, groupby, product
from math import factorial

from .combinatorics import (
    GTDiagram,
    ValueRecord,
    _pattern_rows,
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


class LatticeBasisVector(ValueRecord):
    """Basis vector determined by i < j < x < X, with its split parts.

    v = v_plus - v_minus is the lattice vector; v_zero completes the three
    quadratic monomials of the attached Plucker relation, and r = v_zero -
    v_plus generates the order on shifted lattices.
    """

    __slots__ = ("i", "j", "x", "X", "v", "v_plus", "v_minus", "v_zero", "r")

    def __init__(
        self,
        i: int,
        j: int,
        x: int,
        X: tuple,
        v: ExponentVector,
        v_plus: ExponentVector,
        v_minus: ExponentVector,
        v_zero: ExponentVector,
        r: ExponentVector,
    ):
        self._fill(i, j, x, X, v, v_plus, v_minus, v_zero, r)


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


def _pattern_chi(rows):
    """The entries m_{p,q} = rows[n - q][p - 1] of a diagram's rows, in
    chi_pairs order: the chi array of its shifted lattice."""
    n = len(rows)
    return tuple(rows[n - q][p - 1] for p, q in chi_pairs(n))


class ShiftVector(ValueRecord):
    """An integer solution of chi_p^q(gamma) = m_{p,q} for a diagram."""

    __slots__ = ("gamma", "diagram")

    def __init__(self, gamma: ExponentVector, diagram: GTDiagram):
        wanted = _pattern_chi(diagram.rows)
        if chi_table(gamma) != wanted:
            for (p, q), value, m in zip(chi_pairs(diagram.n), chi_table(gamma), wanted):
                if value != m:
                    raise ValueError(f"chi_{p}^{q} mismatch for shift vector")
        self._fill(gamma, diagram)


def shift_from_diagram(d: GTDiagram) -> ShiftVector:
    """Deterministic staircase solution of the chi system of a diagram.

    Places m_{p,q} - m_{p,q-1} on the coordinate {1..p-1, q} and
    m_{p,p} - m_{p+1,n} on {1..p}; a direct telescoping check shows all
    n(n+1)/2 equations hold.
    """
    n, rows = d.n, d.rows
    m = lambda p, q: rows[n - q][p - 1]
    entries = []
    for p in range(1, n + 1):
        top_next = m(p + 1, n) if p < n else 0
        entries.append((tuple(range(1, p + 1)), m(p, p) - top_next))
        for q in range(p + 1, n + 1):
            coordinate = tuple(range(1, p)) + (q,)
            entries.append((coordinate, m(p, q) - m(p, q - 1)))
    return ShiftVector(ExponentVector(n, entries), d)


class AmbiguousMinimumError(ValueError):
    """A diagram lies above no or several minimal diagrams of its weight."""


def _window_defect(n: int, low, high):
    """The _unit_windows amounts carrying the class of chi array low up to that
    of chi array high, or None.

    The amount on the window (p, q, q+1) is the prefix sum over levels
    p' <= p of chi_{p'}^q(low) - chi_{p'}^q(high), for p < q < n; the
    classes are comparable iff every amount is >= 0 and the same prefix
    sums vanish at q in {p, n} (equal weight and top row).
    """
    prefixes = [0] * (n + 1)  # prefixes[q]: the sum over levels p' <= p so far
    defect = []
    for (p, q), g, d in zip(chi_pairs(n), low, high):
        prefixes[q] += g - d
        prefix = prefixes[q]
        if q in (p, n):
            if prefix != 0:
                return None
        elif prefix < 0:
            return None
        else:
            defect.append(prefix)
    return tuple(defect)


@lru_cache(maxsize=None)
def _unit_windows(n: int):
    """The unit windows (p, q), p < q < n, in the chi_pairs order of _window_defect."""
    return tuple((p, q) for p, q in chi_pairs(n) if p < q < n)


def coset_leq(gamma: ExponentVector, delta: ExponentVector):
    """Witness s >= 0 with gamma + s.r congruent to delta mod B, or None.

    The witness places the window defect on the unit-window vectors
    (p, q, q+1, empty X), checked to carry gamma's chi array to delta's.
    """
    if gamma.n != delta.n:
        raise ValueError("dimension mismatch")
    n = gamma.n
    low, high = chi_table(gamma), chi_table(delta)
    defect = _window_defect(n, low, high)
    if defect is None:
        return None
    basis, index = lattice_basis(n), _basis_index(n)
    witness = [0] * len(basis)
    moved = list(low)  # chi(gamma + s.r), chi being linear
    for (p, q), amount in zip(_unit_windows(n), defect):
        if amount:
            b = index[(p, q, q + 1, ())]
            witness[b] = amount
            for c, value in enumerate(chi_table(basis[b].r)):
                moved[c] += amount * value
    assert tuple(moved) == tuple(high)
    return tuple(witness)


def _route_sums(n: int, low, high):
    """The routes joining chi arrays low and high (see r_routes), unordered.

    A direction moves only the windows of its own level i, so a route is one
    walk result per level, summed: each level is walked once, not once per
    route of the levels before it.  The first level is read as it is walked
    and the others are kept as their nonzero entries, so no level's results
    are held beside the routes built from them.
    """
    defect = _window_defect(n, low, high)
    if defect is None:
        return []
    k = len(lattice_basis(n))
    first, *rest = _level_plans(n) or ((),)  # n <= 2: no direction, one empty route
    rest = [[_nonzero(y) for y in _exact_sums(steps, defect, k)] for steps in rest]
    routes = []
    for y in _exact_sums(first, defect, k):
        for parts in product(*rest):
            route = list(y)
            for slot, value in chain.from_iterable(parts):
                route[slot] = value
            routes.append(tuple(route))
    return routes


def r_routes(gamma: ExponentVector, delta: ExponentVector):
    """All u >= 0 with gamma + u.r congruent to delta mod B, in sorted order.

    r^(i, j, x, X) moves a class by the unit windows (i, q, q+1) for
    j <= q < x, so a route splits the window defect of each level i into
    intervals [j, x - 1].  Directions sharing (i, j, x) differ only in X and
    have the same effect: these parallel directions, possible from n = 4 on,
    are why distinct routes can join the same pair of classes.
    """
    if gamma.n != delta.n:
        raise ValueError("dimension mismatch")
    return sorted(_route_sums(gamma.n, chi_table(gamma), chi_table(delta)))


def _order_key(gamma: ExponentVector):
    """(key, chi, full): gamma's full-set count full = chi_n^n(gamma), its chi
    array lowered by full, and the key (n, top row, row sums) of that array
    in _weight_classes.  r and the full-set unit, whose chi array is all ones,
    preserve the key, and neither changes the window defect."""
    n = gamma.n
    values = chi_table(gamma)
    full = values[-1]  # chi_pairs ends with (n, n)
    chi = tuple(value - full for value in values)
    top, sums = [], [0] * n  # sums[q]: the sum of chi_p^q over p <= q, for q < n
    for (_, q), value in zip(chi_pairs(n), chi):
        if q == n:
            top.append(value)
        else:
            sums[q] += value
    return (n, tuple(top), tuple(sums)), chi, full


# Bounded memo size.  A cold (8,4,0) basis asks 125 times for 61 keys; basis
# plus verify of all 17 n = 3, 4 weights with dimension <= 15 in one process
# asks 647 times for 200; cold basis 2,1,1,0,0,0 and 2,1,0,0,0,0,0 ask 105
# and 112 times for 75 and 77.  None of these runs evicts, and a long-lived
# process holds at most this many entries.
WEIGHT_CLASSES_CACHE_SIZE = 1024


@lru_cache(maxsize=WEIGHT_CLASSES_CACHE_SIZE)
def _weight_classes(n: int, top: tuple, sums: tuple):
    """The chi arrays, in pattern order, of the classes with full-set count 0,
    top row top and row sums sums that hold a nonnegative point.

    A class holds one exactly when its chi array is a Gelfand-Tsetlin
    pattern, so these are the patterns under top with those row sums.
    """
    return tuple(_pattern_chi(rows) for rows in _pattern_rows(top, sums))


def feasible_routes(gamma: ExponentVector, up=False):
    """All s >= 0 for which gamma - s.r + B (gamma + s.r + B when up)
    contains a nonnegative point, sorted: the r_routes from (to) every class
    of _weight_classes at gamma's key, joined from gamma's window defects."""
    key, chi, full = _order_key(gamma)
    if full < 0:  # chi_n^n counts the full set alone, so no point is nonnegative
        return ()
    n = gamma.n
    found = (
        _route_sums(n, chi, other) if up else _route_sums(n, other, chi)
        for other in _weight_classes(*key)
    )
    return tuple(sorted(s for routes in found for s in routes))


def class_order(shifts):
    """Per index, the pairs (jdx, l) with l = coset_leq(shifts[jdx].gamma,
    shifts[idx].gamma) not None, in index order, the index's own pair included.

    Comparable classes share top row and weight, the key of _order_key, so
    only shifts of one key are compared.
    """
    keys = [_order_key(shift.gamma)[0] for shift in shifts]
    same_key = {}
    for jdx, key in enumerate(keys):
        same_key.setdefault(key, []).append(jdx)
    order = []
    for high, key in zip(shifts, keys):
        pairs = ((jdx, coset_leq(shifts[jdx].gamma, high.gamma)) for jdx in same_key[key])
        order.append(tuple((jdx, l) for jdx, l in pairs if l is not None))
    return order


def canonical_shift_table(diagrams):
    """(rows, order): each diagram's coherent shift and witness, and their class_order.

    Every diagram must lie above exactly one minimal diagram of its weight,
    its bottom: that bottom keeps its staircase shift, and the diagram gets
    the bottom's shift plus the witness combination of r vectors, so
    comparable diagrams differ exactly (not only mod B) by a nonnegative
    combination of r's.  A diagram above no or several minimal diagrams of
    its weight raises AmbiguousMinimumError.  order is read from the
    staircase shifts, each congruent mod B to its diagram's coherent shift.
    """
    diagrams = list(diagrams)
    base = [shift_from_diagram(d) for d in diagrams]
    n = diagrams[0].n if diagrams else 0
    order = class_order(base)
    result = []
    for diagram, pairs in zip(diagrams, order):
        bottoms = [(b, l) for b, l in pairs if len(order[b]) == 1]
        if len(bottoms) != 1:
            raise AmbiguousMinimumError(
                f"diagram {diagram.rows} lies above the minimal diagrams "
                f"{[diagrams[b].rows for b, _ in bottoms]} of its weight"
            )
        ((bottom, witness),) = bottoms
        result.append((ShiftVector(base[bottom].gamma + r_shift(n, witness), diagram), witness))
    return result, order


def _plan(slots, counted, targets):
    """The steps (slot, counted, closes) of _exact_sums: closes is the one target
    that step is the last to count, or None; every target closes."""
    last = {c: step for step, indices in enumerate(counted) for c in indices}
    closing = {step: c for c, step in last.items()}
    assert len(closing) == targets  # no step closes two targets
    return tuple(zip(slots, counted, map(closing.get, range(len(counted)))))


@lru_cache(maxsize=None)
def _search_plan(n: int):
    """Steps of the point search: subsets largest first, colexicographic within
    a size, at their dense positions, counting their chi_pairs indices; chi_p^q
    is last counted by {q-p+1..q}, so each closes at its own step."""
    positions = subset_position(n)
    order = sorted(enumerate_subsets(n), key=lambda X: (-len(X), X[::-1]))
    counted = [_chi_incidence(n)[X] for X in order]
    return _plan([positions[X] for X in order], counted, len(chi_pairs(n)))


@lru_cache(maxsize=None)
def _route_plan(n: int):
    """Steps of the route search: r directions in (i, j, x) order, at their basis
    indices, counting the _unit_windows (i, q), j <= q < x, they move; (i, j, n,
    ()) is the last to move window (i, j), so it closes it."""
    basis = lattice_basis(n)
    window = {w: c for c, w in enumerate(_unit_windows(n))}
    order = sorted(range(len(basis)), key=lambda a: (basis[a].i, basis[a].j, basis[a].x))
    counted = [tuple(window[(basis[a].i, q)] for q in range(basis[a].j, basis[a].x)) for a in order]
    return _plan(order, counted, len(window))


@lru_cache(maxsize=None)
def _level_plans(n: int):
    """_route_plan cut into its runs of directions of one level i."""
    basis = lattice_basis(n)
    return tuple(tuple(run) for _, run in groupby(_route_plan(n), key=lambda step: basis[step[0]].i))


def _exact_sums(steps, target, size):
    """Yield every y >= 0 using up target exactly along the steps, as tuples of
    size entries indexed by slot, unordered: step (slot, counted, closes) sets
    y[slot] to at most what remains of each target it counts, and to all that
    remains of closes, the target it is the last to count.  A loop: plans run
    to 4,095 steps at n = 12.
    """
    y, remaining = [0] * size, list(target)
    depth = 0
    while depth >= 0:
        if depth == len(steps):
            yield tuple(y)
        else:  # take the most the step can
            slot, counted, closes = steps[depth]
            value = min(remaining[c] for c in counted)
            if closes is None or remaining[closes] == value:
                y[slot] = value
                for c in counted:
                    remaining[c] -= value
                depth += 1
                continue
        depth -= 1  # back up to the deepest step that can take one less
        while depth >= 0:
            slot, counted, closes = steps[depth]
            if closes is None and y[slot]:
                y[slot] -= 1
                for c in counted:
                    remaining[c] += 1
                depth += 1
                break
            for c in counted:
                remaining[c] += y[slot]
            y[slot] = 0
            depth -= 1


# Bounded memo size.  The class table is read once per series call and holds
# one entry per class: a cold (8,4,0) basis asks 350 times for 125 classes;
# basis plus verify of all 17 n = 3, 4 weights with dimension <= 15 in one
# process asks 950 times for 157; cold basis 2,1,1,0,0,0 and 2,1,0,0,0,0,0
# ask 4,782 and 5,463 times for 105 and 112.  None of these runs evicts, and
# a long-lived process holds at most this many entries.
CLASS_POINTS_CACHE_SIZE = 4096


@lru_cache(maxsize=CLASS_POINTS_CACHE_SIZE)
def _class_table(n: int, target: tuple):
    """The nonnegative points x with chi_table(x) == target, as (triples, R):
    the triples (x, T(x), x!) sorted by the dense x, and the residual R(x) of
    every point, asserted to be shared (None for a class without points); T
    and R come from _linear_maps.

    The points are the exact sums of _search_plan: what remains of every chi
    constraint bounds each coordinate and forces it where that constraint
    closes.
    """
    if any(value < 0 for value in target):
        return (), None
    points = _exact_sums(_search_plan(n), target, len(subset_position(n)))
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
    Every entry of v_c but its pivot sorts before that pivot in canonical
    subset order (the other entry of its size, {1..i-1, i, x} + X, comes first
    and the rest are smaller), so every c touching b's pivot has a later pivot
    and the steps run in descending pivot position; a step that would read a
    t_c not yet computed raises ArithmeticError.
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
    if any(pivots[c] < pivots[b] for b, pairs in needs.items() for c, _ in pairs):
        raise ArithmeticError(f"lattice coordinates for n = {n} are not triangular")
    order = sorted(range(len(basis)), key=lambda b: -pivots[b])
    return tuple((b, pivots[b], tuple(needs[b])) for b in order)


def _nonzero(values):
    """The (index, value) pairs of the nonzero values."""
    return tuple((index, value) for index, value in enumerate(values) if value)


@lru_cache(maxsize=None)
def _column_table(n: int):
    """Map subset X -> the nonzero (b, T_b) and (position, R) of the unit vector
    e_X: its lattice coordinates T(e_X) and its residual R(e_X) = e_X -
    T(e_X).v, zero at every pivot.

    T_b is linear, so one pass down the steps of _coordinate_solver gives it
    for every X at once: its row over the positions is e_pivot minus
    value * (row of c) over the step's needs (c, value).

    Two vectors differ by a lattice vector exactly when their residuals agree,
    and then by the difference of their coordinates.
    """
    basis = lattice_basis(n)
    positions = subset_position(n)
    rows = [None] * len(basis)
    for b, pivot, needs in _coordinate_solver(n):
        row = {pivot: 1}
        for c, value in needs:
            for position, entry in rows[c].items():
                row[position] = row.get(position, 0) - value * entry
        rows[b] = row
    coordinates = [[] for _ in positions]  # per position, the nonzero (b, T_b(e_X))
    for b, row in enumerate(rows):
        for position, entry in row.items():
            if entry:
                coordinates[position].append((b, entry))
    columns = {}
    for X, position in positions.items():
        residual = {position: 1}
        for b, t_b in coordinates[position]:
            for Y, value in basis[b].v.items():
                residual[positions[Y]] = residual.get(positions[Y], 0) - t_b * value
        columns[X] = (tuple(coordinates[position]), tuple(sorted((p, v) for p, v in residual.items() if v)))
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
    at gamma - s.r from gamma's without building the vector.

    T and R of r_a are the sparse columns of _column_table summed over r_a's
    four entries, never densified: at n = 12 a dense T and R hold 4,017 and
    4,095 entries per direction.
    """
    columns = _column_table(n)
    directions = []
    for vec in lattice_basis(n):
        sums = ({}, {})
        for X, value in vec.r.items():
            for total, column in zip(sums, columns[X]):
                for index, entry in column:
                    total[index] = total.get(index, 0) + value * entry
        maps = (tuple(sorted((index, v) for index, v in total.items() if v)) for total in sums)
        directions.append((_nonzero(chi_table(vec.r)), *maps))
    return tuple(directions)


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
