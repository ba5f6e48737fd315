"""Subsets of {1..n}, the counting functionals chi_p^q, and Gelfand-Tsetlin diagrams.

The coordinate universe for everything downstream is the list of all
2^n - 1 nonempty subsets of {1..n} in canonical order: by cardinality,
then lexicographically.  A subset X indexes the minor built from rows
1..|X| and columns X of a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

Subset = tuple  # sorted tuple of distinct ints in 1..n


@lru_cache(maxsize=None)
def enumerate_subsets(n: int):
    """All nonempty subsets of {1..n} ordered by (cardinality, lex)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(
        tuple(c)
        for size in range(1, n + 1)
        for c in combinations(range(1, n + 1), size)
    )


@lru_cache(maxsize=None)
def subset_position(n: int):
    """Map subset -> index into the canonical coordinate order."""
    return {X: i for i, X in enumerate(enumerate_subsets(n))}


@lru_cache(maxsize=None)
def chi_pairs(n: int):
    """All functional labels (p, q) with 1 <= p <= q <= n, in a fixed order."""
    return tuple((p, q) for p in range(1, n + 1) for q in range(p, n + 1))


def chi(p: int, q: int, X) -> int:
    """1 iff X contains at least p indices that are <= q, else 0."""
    if not (1 <= p <= q):
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    count = 0
    for element in X:
        if element <= q:
            count += 1
            if count >= p:
                return 1
    return 0


def chi_apply(p: int, q: int, v) -> int:
    """Sum of v's coordinates over subsets counted by chi_p^q."""
    if not (1 <= p <= q <= v.n):
        raise ValueError(f"need 1 <= p <= q <= {v.n}, got p={p}, q={q}")
    return sum(value for X, value in v.items() if chi(p, q, X))


@dataclass(frozen=True)
class GTDiagram:
    """Triangular array of integers satisfying the betweenness condition.

    rows[0] is the top row of length n, rows[-1] the single bottom entry.
    Entry m(i, j) is the i-th value of the row of length j (1-based, as in
    the classical labelling).
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n < 1 or [len(row) for row in rows] != list(range(n, 0, -1)):
            raise ValueError("rows must have lengths n, n-1, ..., 1")
        for upper, lower in zip(rows, rows[1:]):
            for i, value in enumerate(lower):
                if not (upper[i] >= value >= upper[i + 1]):
                    raise ValueError(
                        f"betweenness fails: {upper[i]} >= {value} >= {upper[i + 1]}"
                    )

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def top_row(self):
        return self.rows[0]

    def m(self, i: int, j: int) -> int:
        """Entry m_{i,j}: position i in the row of length j."""
        if not (1 <= i <= j <= self.n):
            raise ValueError(f"bad diagram index ({i}, {j})")
        return self.rows[self.n - j][i - 1]

    def row(self, j: int):
        """The row of length j."""
        return self.rows[self.n - j]

    def weight(self):
        """Eigenvalues of the diagonal generators: row-sum differences."""
        sums = [0] + [sum(self.row(j)) for j in range(1, self.n + 1)]
        return tuple(sums[i] - sums[i - 1] for i in range(1, self.n + 1))


def is_dominant(top_row) -> bool:
    values = list(top_row)
    return all(a >= b for a, b in zip(values, values[1:]))


def normalize_weight(top_row):
    """Split a dominant weight into (weight ending in 0, subtracted last part).

    The subtracted part is the exponent of the full-set minor that multiplies
    every basis function of the unnormalized representation.
    """
    values = [int(x) for x in top_row]
    if not is_dominant(values):
        raise ValueError(f"top row must be weakly decreasing, got {values}")
    shift = values[-1]
    return tuple(v - shift for v in values), shift


def enumerate_diagrams(top_row):
    """All diagrams with the given top row, in lexicographic row order.

    The top row must be weakly decreasing and end in 0.
    """
    values = tuple(int(x) for x in top_row)
    if not is_dominant(values):
        raise ValueError(f"top row must be weakly decreasing, got {list(values)}")
    if values[-1] != 0:
        raise ValueError(f"top row must end in 0, got {list(values)}")
    return [GTDiagram(rows) for rows in _pattern_rows(values)]


def _pattern_rows(top, sums=None):
    """Rows of the Gelfand-Tsetlin patterns under top, in lexicographic order.

    With sums, only the patterns whose row of length j sums to sums[j].
    There are none when top is not weakly decreasing.
    """
    if len(top) == 1:
        yield (top,)
        return
    for row in product(*(range(low, high + 1) for high, low in zip(top, top[1:]))):
        if sums is None or sum(row) == sums[len(row)]:
            for rest in _pattern_rows(row, sums):
                yield (top,) + rest


def highest_diagram(top_row) -> GTDiagram:
    """The diagram whose every row repeats the top row's leading entries."""
    values = tuple(int(x) for x in top_row)
    return GTDiagram(tuple(values[: n_row] for n_row in range(len(values), 0, -1)))
