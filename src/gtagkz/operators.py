"""Lie algebra generator actions, (A-)GKZ operators, and Plucker generators.

The generator E_{i,j} acts on a polynomial in minor variables by replacing
column j with column i in every variable that contains j but not i; the
sign is the parity of re-sorting the column list.  The antisymmetrized GKZ
operator of a lattice basis vector is its Plucker generator applied as a
differential operator: the difference of the two second-order derivatives
along the vector's positive and negative parts plus the derivative along the
third Plucker monomial.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import lattice_basis
from .polyengine import Polynomial, diff_apply


def _substitution_sign(i: int, j: int, others) -> int:
    low, high = min(i, j), max(i, j)
    between = sum(1 for y in others if low < y < high)
    return -1 if between % 2 else 1


def e_action(i: int, j: int, f: Polynomial) -> Polynomial:
    """Apply the generator E_{i,j} as a differential operator.

    Works on f's integer numerators over its denominator; the unit move from
    X to target acts only where X has power at least 1, so the exponents stay
    nonnegative."""
    n = f.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"generator indices must lie in 1..{n}")
    result = {}
    if i == j:
        for exponent, numerator in f._num.items():
            count = sum(v for X, v in exponent.items() if i in X)
            if count:
                result[exponent] = numerator * count
        return Polynomial._reduced(n, result, f._den)
    for exponent, numerator in f._num.items():
        for X, power in exponent.items():
            if j not in X or i in X:
                continue
            others = tuple(y for y in X if y != j)
            target = tuple(sorted(others + (i,)))
            sign = _substitution_sign(i, j, others)
            # X and target have one size, so lex order is canonical order
            shifted = exponent._merge(tuple(sorted(((X, -1), (target, 1)))), 1)
            result[shifted] = result.get(shifted, 0) + numerator * power * sign
    return Polynomial._reduced(n, result, f._den)


def agkz_apply(alpha: int, f: Polynomial) -> Polynomial:
    """The antisymmetrized operator: GKZ part plus the v_zero second derivative,
    that is the Plucker generator of alpha applied as a differential operator."""
    return diff_apply(plucker_generators(f.n)[alpha], f)


@lru_cache(maxsize=None)
def plucker_generators(n: int):
    """The Plucker relations of all lattice basis vectors, in their order,
    built once per n."""
    return tuple(
        Polynomial(n, [(vec.v_plus, 1), (vec.v_minus, -1), (vec.v_zero, 1)])
        for vec in lattice_basis(n)
    )


def euler_weighted(p: int, q: int, f: Polynomial) -> Polynomial:
    """The homogeneity operator sum_X chi_p^q(X) A_X d/dA_X applied to f.

    On a monomial this multiplies by the chi_p^q value of its exponent.
    """
    from .combinatorics import chi_apply

    result = {}
    for exponent, numerator in f._num.items():
        value = chi_apply(p, q, exponent)
        if value:
            result[exponent] = numerator * value
    return Polynomial._reduced(f.n, result, f._den)

