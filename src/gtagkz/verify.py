"""Named exact verification suites over one representation.

Each check recomputes an identity from first principles (independent
oracles, random seeded matrices, or dual computational routes) and reports
pass/fail.  All arithmetic is exact, so every comparison is literal
equality.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from types import MappingProxyType

from .combinatorics import ValueRecord, chi_apply, chi_pairs
from .gtbasis import (
    AmbiguousSupportError,
    CoefficientTable,
    RepresentationBasis,
    canonical_form,
    coeff_C_alt,
    hypergeometric_constants,
    representation,
)
from .lattice import lattice_basis, r_routes, r_shift
from .operators import agkz_apply, e_action, plucker_generators
from .polyengine import (
    Polynomial,
    diff_apply,
    evaluate_at_minors,
    minor_values,
    pair,
)
from .series import (
    agkz_solution,
    feasible_down_shifts,
    j_value,
    multi_factorial,
    rising,
)


class CheckResult(ValueRecord):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self._fill(name, passed, detail)


def seeded_matrices(n, seed, count):
    """Deterministic nonsingular integer matrices with entries in [-5, 5].

    A candidate is kept when its full-set minor, its determinant, is nonzero.
    Returns new lists, read from the memo of _seeded_matrices.
    """
    matrices, _ = _seeded_matrices(n, seed, count)
    return [[list(row) for row in matrix] for matrix in matrices]


# Bounded memo size, keyed by n, seed and count.  Every weight of one n
# shares the matrices of a seed and count (verify's defaults are seed 0 and
# 20 matrices), so verifying the weights of a few n needs one entry each; a
# long-lived process holds at most this many.
MATRIX_CACHE_SIZE = 8


@lru_cache(maxsize=MATRIX_CACHE_SIZE)
def _seeded_matrices(n, seed, count):
    """(matrices, minors) of seeded_matrices: the matrices as tuples of rows and
    the read-only minor_values of each, which the nonsingularity filter computes."""
    rng = random.Random(seed)
    full = tuple(range(1, n + 1))
    matrices = []
    minors = []
    while len(matrices) < count:
        candidate = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        values = minor_values(candidate, n)
        if values[full] != 0:
            matrices.append(candidate)
            minors.append(MappingProxyType(values))
    return tuple(matrices), tuple(minors)


class VerifyContext:
    """Lazily built shared state for the checks over one representation.

    The basis, coefficient table and G functions are those of `basis`
    (gtbasis.representation), and the matrices and their minors are shared by
    every context of the same n, seed and count: all of them read-only.
    """

    def __init__(self, top_row, seed=0, matrix_count=20):
        if matrix_count < 1:
            raise ValueError(f"the number of matrices must be at least 1, got {matrix_count}")
        self.top_row = tuple(top_row)
        self.n = len(self.top_row)
        self.seed = seed
        self.matrix_count = matrix_count
        self._plucker_nonzero = None

    @property
    def basis(self) -> RepresentationBasis:
        return representation(self.top_row)[0]

    @property
    def table(self) -> CoefficientTable:
        return representation(self.top_row)[1]

    @property
    def gt_polys(self):
        return representation(self.top_row)[2]

    @property
    def matrices(self):
        return self._seeded()[0]

    @property
    def minors(self):
        """minor_values of each matrix, as the nonsingularity filter computed them."""
        return self._seeded()[1]

    def _seeded(self):
        """(matrices, minors) of the context's seed and count."""
        return _seeded_matrices(self.n, self.seed, self.matrix_count)

    @property
    def plucker_nonzero(self):
        """The pairs (solution index, alpha) with agkz_apply(alpha, F) nonzero: each
        Plucker generator applied to each solution once, for both checks that
        read it, and only whether the product vanishes kept."""
        if self._plucker_nonzero is None:
            k = len(lattice_basis(self.n))
            self._plucker_nonzero = frozenset(
                (idx, alpha)
                for idx, entry in enumerate(self.basis.entries)
                for alpha in range(k)
                if not agkz_apply(alpha, entry.agkz_poly).is_zero()
            )
        return self._plucker_nonzero


def check_agkz_annihilation(ctx: VerifyContext) -> CheckResult:
    failures = []
    k = len(lattice_basis(ctx.n))
    nonzero = ctx.plucker_nonzero
    for idx, entry in enumerate(ctx.basis.entries):
        for alpha in range(k):
            if (idx, alpha) in nonzero:
                failures.append((entry.diagram.rows, alpha))
    return CheckResult(
        "agkz-annihilation",
        not failures,
        f"{len(ctx.basis.entries)} solutions x {k} operators" + _failure_note(failures),
    )


def check_plucker_annihilation(ctx: VerifyContext) -> CheckResult:
    """Each Plucker generator vanishes at the minors of every matrix and, as a
    differential operator, on every solution (the products of agkz-annihilation)."""
    failures = []
    generators = plucker_generators(ctx.n)
    nonzero = ctx.plucker_nonzero
    for alpha, generator in enumerate(generators):
        for values in ctx.minors:
            if evaluate_at_minors(generator, values) != 0:
                failures.append(("minors", alpha))
        for idx, entry in enumerate(ctx.basis.entries):
            if (idx, alpha) in nonzero:
                failures.append((entry.diagram.rows, alpha))
    return CheckResult(
        "plucker-annihilation",
        not failures,
        f"{len(generators)} generators, {len(ctx.matrices)} matrices" + _failure_note(failures),
    )


def check_gkz_homogeneity(ctx: VerifyContext) -> CheckResult:
    """Each lattice series is an eigenvector of every homogeneity operator
    euler_weighted(p, q, .) with eigenvalue m_{p,q} of its diagram.  That
    operator multiplies each term by the chi_p^q value of its exponent, and
    no stored coefficient is zero, so this holds exactly when every exponent
    of the series has chi_p^q value m_{p,q}; the check tests that."""
    failures = []
    for entry in ctx.basis.entries:
        exponents = entry.gamma_poly.exponents()
        for p, q in chi_pairs(ctx.n):
            expected = entry.diagram.m(p, q)
            if any(chi_apply(p, q, x) != expected for x in exponents):
                failures.append((entry.diagram.rows, (p, q)))
    return CheckResult(
        "gkz-homogeneity", not failures, "all (p, q)" + _failure_note(failures)
    )


def check_pairing_invariance(ctx: VerifyContext) -> CheckResult:
    rng = random.Random(ctx.seed + 1)
    polys = [entry.agkz_poly for entry in ctx.basis.entries]
    failures = 0
    for _ in range(10):
        f = _random_combination(polys, rng)
        g = _random_combination(polys, rng)
        i = rng.randint(1, ctx.n)
        j = rng.randint(1, ctx.n)
        if pair(e_action(i, j, f), g) != pair(f, e_action(j, i, g)):
            failures += 1
    return CheckResult(
        "pairing-invariance", failures == 0, f"10 random trials, {failures} failed"
    )


def _random_combination(polys, rng):
    """Sum of the polys with coefficients rng.randint(-3, 3), drawn in order."""
    terms = []
    for poly in polys:
        coefficient = rng.randint(-3, 3)
        if coefficient:
            terms.extend(poly.scaled_triples(coefficient))
    return Polynomial.from_triples(polys[0].n, terms)


def check_orthogonality(ctx: VerifyContext) -> CheckResult:
    polys = ctx.gt_polys
    failures = []
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            if pair(polys[a], polys[b]) != 0:
                failures.append((a, b))
    return CheckResult(
        "orthogonality",
        not failures,
        f"{len(polys)} functions" + _failure_note(failures),
    )


def check_triangularity(ctx: VerifyContext) -> CheckResult:
    """Pairing of a lattice series against a solution vanishes unless the
    series' class sits below the solution's, where it equals the signed
    Horn-type values at 1 summed over every r-route joining the classes."""
    basis = ctx.basis
    failures = []
    for a, ea in enumerate(basis.entries):
        for b, eb in enumerate(basis.entries):
            value = pair(ea.gamma_poly, eb.agkz_poly)
            routes = r_routes(ea.shift.gamma, eb.shift.gamma)
            if not routes:
                if value != 0:
                    failures.append((a, b, "expected 0"))
                continue
            expected = Fraction(0)
            for u in routes:
                sign = -1 if sum(u) % 2 else 1
                expected += Fraction(sign, multi_factorial(u)) * j_value(eb.shift.gamma, u, down=u)
            if value != expected:
                failures.append((a, b, f"{value} != {expected}"))
    return CheckResult(
        "triangularity", not failures, "all ordered pairs" + _failure_note(failures)
    )


def check_canf_minor_identity(ctx: VerifyContext) -> CheckResult:
    failures = []
    skipped = 0
    for entry in ctx.basis.entries:
        try:
            reduced = canonical_form(entry.shift.gamma)
        except AmbiguousSupportError:
            skipped += 1
            continue
        difference = entry.gamma_poly - reduced
        for values in ctx.minors:
            if evaluate_at_minors(difference, values) != 0:
                failures.append(entry.diagram.rows)
                break
    note = f", {skipped} skipped (no unique support point)" if skipped else ""
    return CheckResult(
        "canf-minor-identity",
        not failures,
        f"{len(ctx.basis.entries) - skipped} diagrams x {len(ctx.matrices)} matrices"
        + note
        + _failure_note(failures),
    )


def osnf_rhs(gamma, omega) -> Polynomial:
    """Right side of the operator action identity, summed over feasible shifts."""
    n = gamma.n
    base = omega - gamma
    terms = []
    for s, scale in hypergeometric_constants(gamma, osnf_shifts(base)):
        terms.extend(agkz_solution(base - r_shift(n, s)).scaled_triples(scale))
    return Polynomial.from_triples(n, terms)


def osnf_shifts(base):
    """All s >= 0 that can leave a nonzero solution at base - s.r, sorted.

    The solution at base - s.r sums over the t with s + t a feasible down
    shift of base, so s runs over the down-closure of those shifts.
    """
    closure = set()
    for u in feasible_down_shifts(base):
        closure.update(product(*(range(part + 1) for part in u)))
    return sorted(closure)


def check_osnf_identity(ctx: VerifyContext) -> CheckResult:
    rng = random.Random(ctx.seed + 2)
    entries = ctx.basis.entries
    failures = 0
    for _ in range(10):
        ea = entries[rng.randrange(len(entries))]
        eb = entries[rng.randrange(len(entries))]
        lhs = diff_apply(ea.gamma_poly, eb.agkz_poly)
        rhs = osnf_rhs(ea.shift.gamma, eb.shift.gamma)
        if lhs != rhs:
            failures += 1
    return CheckResult(
        "osnf-identity", failures == 0, f"10 random pairs, {failures} failed"
    )


def check_coeff_crosscheck(ctx: VerifyContext) -> CheckResult:
    failures = []
    table = ctx.table
    for (idx, l), value in table.C.items():
        entry = ctx.basis.entries[idx]
        alternative = coeff_C_alt(entry.shift.gamma, l)
        if alternative != value:
            failures.append((entry.diagram.rows, l, str(value), str(alternative)))
    return CheckResult(
        "coeff-crosscheck",
        not failures,
        f"{len(table.C)} coefficients" + _failure_note(failures),
    )


def gauss_2f1_term(a1, a2, b1, order) -> Fraction:
    """Term `order` of the Gauss series: (a1)_n (a2)_n / ((b1)_n n!)."""
    numerator = rising(a1 - 1, order) * rising(a2 - 1, order)
    denominator = rising(b1 - 1, order) * factorial(order)
    return Fraction(numerator, denominator)


def check_gl3_closed_form(ctx: VerifyContext) -> CheckResult:
    """Coefficient-by-coefficient match with the classical Gauss expansion."""
    if ctx.n != 3:
        raise ValueError("gl3-closed-form requires n = 3")
    failures = []
    neg1, neg2 = (2,), (1, 3)  # coordinates moving against the lattice direction
    pos1, pos2 = (1,), (2, 3)
    direction = lattice_basis(3)[0].v
    for entry in ctx.basis.entries:
        series = entry.gamma_poly
        base = min(series.exponents(), key=lambda e: e[pos1])
        if base[pos2] == 0:
            b_anchor = pos1
        elif base[pos1] == 0:
            b_anchor = pos2
        else:
            failures.append((entry.diagram.rows, "no Gauss anchor"))
            continue
        a1 = -base[neg1]
        a2 = -base[neg2]
        b1 = base[b_anchor] + 1
        scale = Fraction(1)
        for _, value in base.items():
            scale /= factorial(value)
        order = 0
        point = base
        while point.is_nonnegative():
            expected = scale * gauss_2f1_term(a1, a2, b1, order)
            if series.coefficient(point) != expected:
                failures.append((entry.diagram.rows, order))
                break
            order += 1
            point = point + direction
    total_terms = sum(len(entry.gamma_poly.exponents()) for entry in ctx.basis.entries)
    return CheckResult(
        "gl3-closed-form",
        not failures,
        f"{total_terms} coefficients" + _failure_note(failures),
    )


def _failure_note(failures):
    if not failures:
        return ""
    preview = "; ".join(str(item) for item in list(failures)[:4])
    return f" -- FAILED: {preview}" + (" ..." if len(failures) > 4 else "")


CHECKS = {
    "agkz-annihilation": check_agkz_annihilation,
    "plucker-annihilation": check_plucker_annihilation,
    "gkz-homogeneity": check_gkz_homogeneity,
    "pairing-invariance": check_pairing_invariance,
    "orthogonality": check_orthogonality,
    "triangularity": check_triangularity,
    "canf-minor-identity": check_canf_minor_identity,
    "osnf-identity": check_osnf_identity,
    "coeff-crosscheck": check_coeff_crosscheck,
    "gl3-closed-form": check_gl3_closed_form,
}


def default_checks(n: int):
    names = [name for name in CHECKS if name != "gl3-closed-form"]
    if n == 3:
        names.append("gl3-closed-form")
    return names


def run_checks(top_row, names=None, seed=0, matrix_count=20):
    """Run the selected suites.  Before anything is built, an unknown name, or
    gl3-closed-form for a weight whose length is not 3, raises ValueError."""
    n = len(top_row)
    if names is None:
        names = default_checks(n)
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
    if "gl3-closed-form" in names and n != 3:
        raise ValueError("gl3-closed-form requires a length-3 weight")
    ctx = VerifyContext(top_row, seed=seed, matrix_count=matrix_count)
    return [CHECKS[name](ctx) for name in names]
