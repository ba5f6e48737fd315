"""Small dense exact linear algebra over Fraction: determinant and rank.

Everything here works on lists of lists of Fraction (or int) and never
rounds; matrices are tiny (at most a few dozen rows), so plain Gaussian
elimination is fine.  A reference for the tests, independent of the
package's integer minor kernel.
"""

from __future__ import annotations

from fractions import Fraction


def _copy(rows):
    return [[Fraction(x) for x in row] for row in rows]


def det(rows) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination with pivoting."""
    a = _copy(rows)
    m = len(a)
    if any(len(row) != m for row in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, m):
            if a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                for c in range(col, m):
                    a[r][c] -= factor * a[col][c]
    result = Fraction(sign)
    for i in range(m):
        result *= a[i][i]
    return result


def rank(rows) -> int:
    """Rank over the rationals."""
    a = _copy(rows)
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(nrows):
            if i != r and a[i][col] != 0:
                factor = a[i][col] / a[r][col]
                for c in range(col, ncols):
                    a[i][c] -= factor * a[r][c]
        r += 1
        if r == nrows:
            break
    return r
