"""Exact sparse polynomials in the minor variables A_X.

A polynomial is a map from nonnegative exponent vectors to rational
coefficients; zero coefficients are never stored.  The module also
provides the differential action f(d/dA)g, the apolarity pairing
<f, g> = f(d/dA)g at A = 0, and exact evaluation at matrices (each
variable A_X becomes the minor with rows 1..|X| and columns X).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import _linalg
from .combinatorics import enumerate_subsets
from .lattice import ExponentVector


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
            coefficient = Fraction(coefficient)
            if coefficient:
                new = merged.get(exponent, 0) + coefficient
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
            shifted = w - u
            if not shifted.is_nonnegative():
                continue
            scale = 1
            for X, power in u.items():
                scale *= _falling(w[X], power)
                if scale == 0:
                    break
            if scale:
                result.append((shifted, cf * cg * scale))
    return Polynomial(f.n, result)


def exponent_factorial(exponent: ExponentVector) -> int:
    product = 1
    for _, value in exponent.items():
        product *= factorial(value)
    return product


def pair(f: Polynomial, g: Polynomial) -> Fraction:
    """Apolarity pairing: diff_apply(f, g) at A = 0, i.e. sum c_f(u) c_g(u) u!."""
    f._check(g)
    small, large = (f, g) if len(f.terms) <= len(g.terms) else (g, f)
    total = Fraction(0)
    for exponent, coefficient in small.terms.items():
        other = large.terms.get(exponent)
        if other is not None:
            total += coefficient * other * exponent_factorial(exponent)
    return total


def evaluate_at_ones(f: Polynomial) -> Fraction:
    """Value after substituting 1 for every variable: the coefficient sum."""
    return sum(f.terms.values(), Fraction(0))


def minor_values(matrix, n):
    """Exact minors det(rows 1..|X|, columns X) for every subset X."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"expected a {n}x{n} matrix")
    values = {}
    for X in enumerate_subsets(n):
        block = [[rows[r][c - 1] for c in X] for r in range(len(X))]
        values[X] = _linalg.det(block)
    return values


def evaluate_minors(f: Polynomial, matrix) -> Fraction:
    """Evaluate f after substituting the minors of the given matrix."""
    values = minor_values(matrix, f.n)
    total = Fraction(0)
    for exponent, coefficient in f.terms.items():
        term = coefficient
        for X, power in exponent.items():
            term *= values[X] ** power
        total += term
    return total


def subset_to_str(X) -> str:
    return ",".join(str(x) for x in X)


def str_to_subset(text: str):
    return tuple(int(part) for part in text.split(","))


def exponent_to_json(exponent: ExponentVector):
    return {subset_to_str(X): v for X, v in exponent.items()}


def exponent_from_json(n, data) -> ExponentVector:
    return ExponentVector(n, [(str_to_subset(key), value) for key, value in data.items()])


def poly_to_json(f: Polynomial):
    """Serialize as a list of {exp, coef} objects in canonical term order."""
    return [
        {"exp": exponent_to_json(exponent), "coef": str(coefficient)}
        for exponent, coefficient in f.sorted_terms()
    ]


def poly_from_json(n, data) -> Polynomial:
    terms = [
        (exponent_from_json(n, item["exp"]), Fraction(item["coef"])) for item in data
    ]
    return Polynomial(n, terms)
