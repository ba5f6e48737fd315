"""Exact sparse polynomials in the minor variables A_X.

A polynomial is a map from nonnegative exponent vectors to rational
coefficients; zero coefficients are never stored.  The coefficients are kept
as integer numerators over one common denominator: every coefficient the
construction makes has a product of factorials as its denominator, so the
arithmetic runs on Python ints and reduces once per polynomial, not once per
term.  The module also provides the differential action f(d/dA)g, the
apolarity pairing <f, g> = f(d/dA)g at A = 0, and exact evaluation at
matrices (each variable A_X becomes the minor with rows 1..|X| and columns X).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .combinatorics import enumerate_subsets
from .lattice import ExponentVector, multi_factorial


def _checked(n, exponent):
    """exponent, if it is a nonnegative vector of dimension n; else ValueError."""
    if exponent.n != n:
        raise ValueError("dimension mismatch")
    if not exponent.is_nonnegative():
        raise ValueError(f"negative exponent in {exponent}")
    return exponent


def _merged(triples):
    """(numerators by exponent, common denominator) of a list of int triples
    (exponent, numerator, denominator): the numerators over the lcm of the
    denominators, a gcd only where a denominator brings a new factor."""
    common = 1
    for _, _, denominator in triples:
        if common % denominator:
            common *= denominator // gcd(common, denominator)
    numerators = {}
    for exponent, numerator, denominator in triples:
        if numerator:
            numerator *= common // denominator
            old = numerators.get(exponent)
            numerators[exponent] = numerator if old is None else old + numerator
    return numerators, common


class Polynomial:
    """Sparse exact-rational polynomial over the subset-indexed variables.

    Stored as a dict exponent -> nonzero int numerator and one positive int
    denominator, kept reduced: the gcd of the denominator and all numerators
    is 1, and the zero polynomial has denominator 1.  So equal polynomials
    store equal numerators and denominators, and equality and hashing are
    structural.  `terms` is a read-only exponent -> Fraction view for outside
    readers, which makes each Fraction when it is read; the arithmetic of the
    package reads the numerators and the denominator.
    """

    __slots__ = ("n", "_num", "_den")

    def __init__(self, n, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        triples = []
        for exponent, coefficient in items:
            _checked(n, exponent)
            if type(coefficient) is not Fraction:
                coefficient = Fraction(coefficient)
            triples.append((exponent, coefficient.numerator, coefficient.denominator))
        object.__setattr__(self, "n", n)
        self._fill_reduced(*_merged(triples))

    @classmethod
    def from_triples(cls, n, triples):
        """The polynomial sum of numerator / denominator * A^exponent over
        integer triples (exponent, numerator, denominator), denominators
        positive; exponents are checked as by the constructor.

        The numerators are summed over the lcm of the denominators, as
        rational_sum does, and reduced once; no Fraction is made per term.
        """
        return cls._reduced(n, *_merged([(_checked(n, x), c, d) for x, c, d in triples]))

    @classmethod
    def _reduced(cls, n, numerators, denominator):
        """The polynomial of the int numerators (a new dict, which it takes over)
        over the positive denominator, with zeros dropped and the common gcd
        divided out.  Trusts the exponents: only arithmetic on valid polynomials,
        which keeps exponents nonnegative, builds polynomials this way."""
        polynomial = object.__new__(cls)
        object.__setattr__(polynomial, "n", n)
        polynomial._fill_reduced(numerators, denominator)
        return polynomial

    def _fill_reduced(self, numerators, denominator):
        if 0 in numerators.values():
            numerators = {e: c for e, c in numerators.items() if c}
        divisor = gcd(denominator, *numerators.values())
        if divisor != 1:
            numerators = {e: c // divisor for e, c in numerators.items()}
            denominator //= divisor
        object.__setattr__(self, "_num", numerators)
        object.__setattr__(self, "_den", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self):
        """Read-only exponent -> Fraction view of the nonzero terms."""
        return _CoefficientView(self._num, self._den)

    def exponents(self):
        """The exponents of the nonzero terms."""
        return self._num.keys()

    def scaled_triples(self, scalar):
        """The terms of scalar * self, for an int or Fraction scalar, as the
        int triples (exponent, numerator, denominator) of from_triples."""
        numerator, denominator = scalar.numerator, scalar.denominator * self._den
        return ((e, numerator * c, denominator) for e, c in self._num.items())

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

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        self._check(other)
        divisor = gcd(self._den, other._den)
        left, right = other._den // divisor, sign * (self._den // divisor)
        numerators = {e: c * left for e, c in self._num.items()}
        for exponent, numerator in other._num.items():
            numerators[exponent] = numerators.get(exponent, 0) + numerator * right
        return Polynomial._reduced(self.n, numerators, self._den * left)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return Polynomial._reduced(self.n, {e: -c for e, c in self._num.items()}, self._den)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        factor = scalar.numerator
        return Polynomial._reduced(
            self.n,
            {e: c * factor for e, c in self._num.items()},
            self._den * scalar.denominator,
        )

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        product = {}
        for e1, c1 in self._num.items():
            for e2, c2 in other._num.items():
                exponent = e1 + e2
                product[exponent] = product.get(exponent, 0) + c1 * c2
        return Polynomial._reduced(self.n, product, self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.n, self._den, frozenset(self._num.items())))

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, exponent) -> Fraction:
        return Fraction(self._num.get(exponent, 0), self._den)

    def _sorted_numerators(self):
        """(exponent, numerator) in the canonical order (lex on the dense coordinate vector)."""
        return sorted(self._num.items(), key=lambda item: item[0].sort_key())

    def __repr__(self):
        if not self._num:
            return "Polynomial(0)"
        parts = []
        for exponent, numerator in self._sorted_numerators():
            monomial = "*".join(
                f"A_{''.join(map(str, X))}" + (f"^{v}" if v != 1 else "")
                for X, v in exponent.items()
            ) or "1"
            parts.append(f"({_fraction_str(numerator, self._den)})*{monomial}")
        return " + ".join(parts)


class _CoefficientView(Mapping):
    """Read-only exponent -> Fraction view of a polynomial's numerators over
    its denominator; each Fraction is made when it is read."""

    __slots__ = ("_num", "_den")

    def __init__(self, numerators, denominator):
        self._num = numerators
        self._den = denominator

    def __getitem__(self, exponent):
        return Fraction(self._num[exponent], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)

    def __contains__(self, exponent):
        return exponent in self._num


def _fraction_str(numerator: int, denominator: int) -> str:
    """str(Fraction(numerator, denominator)) for a positive denominator, with one gcd."""
    divisor = gcd(numerator, denominator)
    if divisor == denominator:
        return str(numerator // divisor)
    return f"{numerator // divisor}/{denominator // divisor}"


def _falling(base: int, count: int) -> int:
    result = 1
    for step in range(count):
        result *= base - step
    return result


def diff_apply(f: Polynomial, g: Polynomial) -> Polynomial:
    """Apply f with every variable replaced by the matching partial derivative to g."""
    f._check(g)
    result = {}
    for u, cf in f._num.items():
        for w, cg in g._num.items():
            scale = 1
            for X, power in u.items():
                have = w[X]
                if have < power:  # w - u is negative at X
                    break
                scale *= _falling(have, power)
            else:
                exponent = w - u
                result[exponent] = result.get(exponent, 0) + cf * cg * scale
    return Polynomial._reduced(f.n, result, f._den * g._den)


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
    """Apolarity pairing: diff_apply(f, g) at A = 0, i.e. sum c_f(u) c_g(u) u!,
    summed over the numerators and divided by the two denominators once."""
    f._check(g)
    small, large = sorted((f._num, g._num), key=len)
    total = 0
    for exponent, numerator in small.items():
        other = large.get(exponent)
        if other is not None:
            total += numerator * other * exponent_factorial(exponent)
    return Fraction(total, f._den * g._den)


def evaluate_at_ones(f: Polynomial) -> Fraction:
    """Value after substituting 1 for every variable: the coefficient sum."""
    return Fraction(sum(f._num.values()), f._den)


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

    Each term is an integer (numerator, denominator) pair over f's
    denominator times the monomial's, and rational_sum adds them over one
    common denominator, f's own at integral minors; a minor value is an int or
    a Fraction, and both carry numerator and denominator.
    """
    terms = []
    for exponent, numerator in f._num.items():
        monomial = 1
        for X, power in exponent.items():
            monomial *= values[X] ** power
        terms.append((numerator * monomial.numerator, f._den * monomial.denominator))
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
    """Serialize as a list of {exp, coef} objects in canonical term order; each
    coef is the text of str(Fraction) of the term's coefficient."""
    return [
        {"exp": exponent_to_json(exponent), "coef": _fraction_str(numerator, f._den)}
        for exponent, numerator in f._sorted_numerators()
    ]


def poly_from_json(n, data) -> Polynomial:
    """Parse a list of {exp, coef} objects; raises ValueError on any other shape."""
    terms = []
    for item in data:
        if not isinstance(item, dict) or not {"exp", "coef"} <= item.keys():
            raise ValueError(f"each term must be an object with exp and coef, got {item!r}")
        terms.append((exponent_from_json(n, item["exp"]), _coef_from_json(item["coef"])))
    return Polynomial(n, terms)
