"""Exact sparse polynomials in the minor variables A_X.

A polynomial is a map from nonnegative exponent vectors to rational
coefficients; zero coefficients are never stored.  The module also
provides the differential action f(d/dA)g, the apolarity pairing
<f, g> = f(d/dA)g at A = 0, and exact evaluation at matrices (each
variable A_X becomes the minor with rows 1..|X| and columns X).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .combinatorics import enumerate_subsets
from .lattice import ExponentVector, multi_factorial


class Polynomial:
    """Sparse exact-rational polynomial over the subset-indexed variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=()):
        merged = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exponent, coefficient in items:
            if exponent.n != n:
                raise ValueError("dimension mismatch")
            if not exponent.is_nonnegative():
                raise ValueError(f"negative exponent in {exponent}")
            if type(coefficient) is not Fraction:
                coefficient = Fraction(coefficient)
            if coefficient:
                old = merged.get(exponent)
                new = coefficient if old is None else old + coefficient
                if new:
                    merged[exponent] = new
                else:
                    del merged[exponent]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", merged)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def monomial(cls, exponent: ExponentVector, coefficient=1):
        return cls(exponent.n, [(exponent, coefficient)])

    @classmethod
    def variable(cls, n, X):
        return cls.monomial(ExponentVector.unit(n, X))

    def _check(self, other):
        if not isinstance(other, Polynomial) or other.n != self.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        self._check(other)
        return Polynomial(self.n, list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.n, [(e, -c) for e, c in self.terms.items()])

    def scale(self, scalar):
        scalar = Fraction(scalar)
        return Polynomial(self.n, [(e, scalar * c) for e, c in self.terms.items()])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        product = []
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                product.append((e1 + e2, c1 * c2))
        return Polynomial(self.n, product)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent) -> Fraction:
        return self.terms.get(exponent, Fraction(0))

    def sorted_terms(self):
        """Terms in the canonical order (lex on the dense coordinate vector)."""
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for exponent, coefficient in self.sorted_terms():
            monomial = "*".join(
                f"A_{''.join(map(str, X))}" + (f"^{v}" if v != 1 else "")
                for X, v in exponent.items()
            ) or "1"
            parts.append(f"({coefficient})*{monomial}")
        return " + ".join(parts)


def _falling(base: int, count: int) -> int:
    result = 1
    for step in range(count):
        result *= base - step
    return result


def diff_apply(f: Polynomial, g: Polynomial) -> Polynomial:
    """Apply f with every variable replaced by the matching partial derivative to g."""
    f._check(g)
    result = []
    for u, cf in f.terms.items():
        for w, cg in g.terms.items():
            scale = 1
            for X, power in u.items():
                have = w[X]
                if have < power:  # w - u is negative at X
                    break
                scale *= _falling(have, power)
            else:
                result.append((w - u, cf * cg * scale))
    return Polynomial(f.n, result)


def exponent_factorial(exponent: ExponentVector) -> int:
    return multi_factorial(value for _, value in exponent.items())


def rational_sum(pairs) -> Fraction:
    """The exact sum of numerator / denominator over int pairs, as one Fraction.

    Denominators must be positive.  The running total is an integer over the
    lcm of the denominators seen so far: a term costs integer products and a
    remainder, a gcd only when its denominator brings a new factor, and only
    the result is reduced (a Fraction sum reduces after every addition).  The
    empty sum is Fraction(0).
    """
    total, common = 0, 1
    for numerator, denominator in pairs:
        if common % denominator:
            factor = denominator // gcd(common, denominator)
            total *= factor
            common *= factor
        total += numerator * (common // denominator)
    return Fraction(total, common)


def pair(f: Polynomial, g: Polynomial) -> Fraction:
    """Apolarity pairing: diff_apply(f, g) at A = 0, i.e. sum c_f(u) c_g(u) u!."""
    f._check(g)
    small, large = (f, g) if len(f.terms) <= len(g.terms) else (g, f)
    terms = []
    for exponent, coefficient in small.terms.items():
        other = large.terms.get(exponent)
        if other is not None:
            terms.append((
                coefficient.numerator * other.numerator * exponent_factorial(exponent),
                coefficient.denominator * other.denominator,
            ))
    return rational_sum(terms)


def evaluate_at_ones(f: Polynomial) -> Fraction:
    """Value after substituting 1 for every variable: the coefficient sum."""
    return sum(f.terms.values(), Fraction(0))


def _exact(entry):
    if type(entry) is int:
        return entry
    value = Fraction(entry)
    return value.numerator if value.denominator == 1 else value


def minor_values(matrix, n):
    """Exact minors det(rows 1..|X|, columns X) for every nonempty subset X.

    One pass over the subsets, smallest first, by Laplace expansion along the
    last row of the leading block: A_X = sum_j (-1)^(|X|-1-j) a[|X|-1][x_j - 1]
    A_{X minus x_j}, from A_{} = 1.  That is n 2^(n-1) products per matrix.
    Integral entries stay Python ints, so an integer matrix has integer minors;
    only non-integral entries (Fraction, float) become Fractions, exactly.
    """
    rows = [[_exact(x) for x in row] for row in matrix]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"expected a {n}x{n} matrix")
    values = {(): 1}
    for X in enumerate_subsets(n):
        row = rows[len(X) - 1]
        value = 0
        sign = 1 if len(X) % 2 else -1
        for j, x in enumerate(X):
            value += sign * row[x - 1] * values[X[:j] + X[j + 1 :]]
            sign = -sign
        values[X] = value
    del values[()]
    return values


def evaluate_minors(f: Polynomial, matrix) -> Fraction:
    """Evaluate f after substituting the minors of the given matrix."""
    return evaluate_at_minors(f, minor_values(matrix, f.n))


def evaluate_at_minors(f: Polynomial, values) -> Fraction:
    """Evaluate f at minor values computed once, as returned by minor_values.

    Each term is an integer (numerator, denominator) pair, and rational_sum
    adds them over one common denominator; a minor value is an int or a
    Fraction, and both carry numerator and denominator.
    """
    terms = []
    for exponent, coefficient in f.terms.items():
        monomial = 1
        for X, power in exponent.items():
            monomial *= values[X] ** power
        terms.append((
            coefficient.numerator * monomial.numerator,
            coefficient.denominator * monomial.denominator,
        ))
    return rational_sum(terms)


def subset_to_str(X) -> str:
    return ",".join(str(x) for x in X)


@lru_cache(maxsize=None)
def _subset_strings(n):
    return {X: subset_to_str(X) for X in enumerate_subsets(n)}


def exponent_to_json(exponent: ExponentVector):
    strings = _subset_strings(exponent.n)
    return {strings[X]: v for X, v in exponent.items()}


@lru_cache(maxsize=None)
def _subset_keys(n):
    return {key: X for X, key in _subset_strings(n).items()}


def exponent_from_json(n, data) -> ExponentVector:
    """Parse an object mapping subset keys of 1..n (as written by exponent_to_json) to ints."""
    keys = _subset_keys(n)
    if not isinstance(data, dict) or not all(
        key in keys and isinstance(value, int) and not isinstance(value, bool)
        for key, value in data.items()
    ):
        raise ValueError(f"exp must be an object of subsets of 1..{n} to ints, got {data!r}")
    return ExponentVector(n, [(keys[key], value) for key, value in data.items()])


def _coef_from_json(value) -> Fraction:
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"coef must be an int or a fraction string, got {value!r}")


def poly_to_json(f: Polynomial):
    """Serialize as a list of {exp, coef} objects in canonical term order."""
    return [
        {"exp": exponent_to_json(exponent), "coef": str(coefficient)}
        for exponent, coefficient in f.sorted_terms()
    ]


def poly_from_json(n, data) -> Polynomial:
    """Parse a list of {exp, coef} objects; raises ValueError on any other shape."""
    terms = []
    for item in data:
        if not isinstance(item, dict) or not {"exp", "coef"} <= item.keys():
            raise ValueError(f"each term must be an object with exp and coef, got {item!r}")
        terms.append((exponent_from_json(n, item["exp"]), _coef_from_json(item["coef"])))
    return Polynomial(n, terms)
