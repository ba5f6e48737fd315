"""Acceptance suite: one test per criterion, all comparisons exact.

Each test prints a single pass line; timing limits are asserted where the
criterion states one.
"""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

from gtagkz.gtbasis import (
    CoefficientTable,
    build_basis,
    canonical_form,
    coeff_C,
    coeff_C_alt,
    gram_matrix,
    representation,
)
from gtagkz.lattice import coset_leq, lattice_basis, r_shift
from gtagkz.operators import agkz_apply, e_action, plucker_generator
from gtagkz.polyengine import (
    Polynomial,
    diff_apply,
    evaluate_at_ones,
    evaluate_minors,
    pair,
)
from gtagkz.series import j_series, multi_factorial, rising
from gtagkz.verify import osnf_rhs, seeded_matrices
import _linalg

SEED = 0


def _weyl_oracle(top_row):
    n = len(top_row)
    numerator, denominator = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            numerator *= top_row[i] - top_row[j] + j - i
            denominator *= j - i
    assert numerator % denominator == 0
    return numerator // denominator


def test_criterion_01_lattice_rank():
    start = time.perf_counter()
    lattice_basis.cache_clear()
    for n in (3, 4, 5, 6):
        expected = 2 ** n - 1 - n * (n + 1) // 2
        assert len(lattice_basis(n)) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: lattice rank for n=3..6 exact ({elapsed:.3f}s < 1s)")


def test_criterion_02_gl3_closed_form():
    start = time.perf_counter()
    checked = 0
    for top in ((2, 1, 0), (3, 1, 0)):
        basis = build_basis(top)
        direction = lattice_basis(3)[0].v
        for entry in basis.entries:
            series = entry.gamma_poly
            base = min(series.terms, key=lambda e: e[(1,)])
            # at the lowest lattice point one of the ascending coordinates is 0
            if base[(2, 3)] == 0:
                anchor = (1,)
            else:
                assert base[(1,)] == 0
                anchor = (2, 3)
            a1, a2, b1 = -base[(2,)], -base[(1, 3)], base[anchor] + 1
            scale = Fraction(1)
            for _, value in base.items():
                scale /= factorial(value)
            order, point = 0, base
            while point.is_nonnegative():
                gauss = Fraction(
                    rising(a1 - 1, order) * rising(a2 - 1, order),
                    rising(b1 - 1, order) * factorial(order),
                )
                assert series.coefficient(point) == scale * gauss
                checked += 1
                order += 1
                point = point + direction
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"PASS criterion 2: gl3 closed form, {checked} coefficients vs Gauss series "
        f"({elapsed:.3f}s < 1s)"
    )


def test_criterion_03_agkz_annihilation():
    start = time.perf_counter()
    count = 0
    for top in ((3, 1, 0), (2, 1, 0, 0)):
        basis = build_basis(top)
        k = len(lattice_basis(len(top)))
        for entry in basis.entries:
            for alpha in range(k):
                assert agkz_apply(alpha, entry.agkz_poly).is_zero()
                count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 3: A-GKZ annihilation, {count} operator states ({elapsed:.2f}s < 60s)")


def test_criterion_04_plucker_compatibility():
    start = time.perf_counter()
    for top in ((3, 1, 0), (2, 1, 0, 0)):
        n = len(top)
        basis = build_basis(top)
        matrices = seeded_matrices(n, SEED, 20)
        for alpha in range(len(lattice_basis(n))):
            generator = plucker_generator(n, alpha)
            for matrix in matrices:
                assert evaluate_minors(generator, matrix) == 0
            for entry in basis.entries:
                assert diff_apply(generator, entry.agkz_poly).is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 4: Plucker compatibility, both reps x 20 matrices ({elapsed:.2f}s < 60s)")


def test_criterion_05_basis_completeness():
    start = time.perf_counter()
    expected = {(2, 1, 0): 8, (1, 1, 0, 0): 6, (2, 1, 0, 0): 20}
    for top, count in expected.items():
        basis = build_basis(top)
        assert len(basis.entries) == count == _weyl_oracle(top)
    gram = gram_matrix(build_basis((2, 1, 0, 0)))
    determinant = _linalg.det(gram)
    assert determinant != 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"PASS criterion 5: dimensions 8/6/20 match the Weyl oracle, Gram det = "
        f"{determinant} != 0 ({elapsed:.2f}s < 300s)"
    )


def test_criterion_06_triangularity():
    basis = build_basis((1, 1, 0, 0))
    k = len(lattice_basis(4))
    pairs = 0
    for ea in basis.entries:
        for eb in basis.entries:
            value = pair(ea.gamma_poly, eb.agkz_poly)
            witness = coset_leq(eb.shift.gamma, ea.shift.gamma)
            if witness is None:
                assert value == 0
            else:
                assert eb.shift.gamma + r_shift(4, witness) == ea.shift.gamma
                sign = -1 if sum(witness) % 2 else 1
                expected = Fraction(sign, multi_factorial(witness)) * evaluate_at_ones(
                    j_series(eb.shift.gamma, witness)
                )
                assert value == expected
            pairs += 1
    print(f"PASS criterion 6: triangular pairing on all {pairs} ordered pairs, exact")


def test_criterion_07_orthogonality():
    start = time.perf_counter()
    total = 0
    for top in ((2, 1, 0), (1, 1, 0, 0), (2, 1, 0, 0)):
        _, _, polys = representation(top)
        for a in range(len(polys)):
            for b in range(a + 1, len(polys)):
                assert pair(polys[a], polys[b]) == 0
                total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"PASS criterion 7: orthogonality, {total} distinct pairs exact ({elapsed:.2f}s < 600s)")


def test_criterion_08_coefficient_crosscheck():
    checked = 0
    for top in ((2, 1, 0), (1, 1, 0, 0), (2, 1, 0, 0)):
        basis = build_basis(top)
        table = CoefficientTable(basis)
        for (idx, l), value in table.C.items():
            assert coeff_C_alt(basis.entries[idx].shift, l) == value
            assert coeff_C(basis.entries[idx].shift, l) == value
            checked += 1
    print(f"PASS criterion 8: dual-route coefficients agree on {checked} pairs, exact")


def test_criterion_09_canonical_form():
    basis = build_basis((1, 1, 0, 0))
    matrices = seeded_matrices(4, SEED, 20)
    for entry in basis.entries:
        difference = entry.gamma_poly - canonical_form(entry.shift)
        for matrix in matrices:
            assert evaluate_minors(difference, matrix) == 0
    print("PASS criterion 9: canonical form matches modulo minors, 6 diagrams x 20 matrices")


def test_criterion_10_operator_identities():
    rng = random.Random(SEED)
    basis = build_basis((2, 1, 0))
    entries = basis.entries
    for _ in range(10):
        ea = entries[rng.randrange(len(entries))]
        eb = entries[rng.randrange(len(entries))]
        lhs = diff_apply(ea.gamma_poly, eb.agkz_poly)
        assert lhs == osnf_rhs(ea.shift.gamma, eb.shift.gamma)

    polys = [e.agkz_poly for e in entries]

    def random_element():
        out = Polynomial.zero(3)
        for p in polys:
            c = rng.randint(-3, 3)
            if c:
                out = out + p.scale(c)
        return out

    for _ in range(10):
        f, g = random_element(), random_element()
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        assert pair(e_action(i, j, f), g) == pair(f, e_action(j, i, g))

    f = random_element()
    for i, j, k, l in itertools.product(range(1, 4), repeat=4):
        lhs = e_action(i, j, e_action(k, l, f)) - e_action(k, l, e_action(i, j, f))
        rhs = Polynomial.zero(3)
        if j == k:
            rhs = rhs + e_action(i, l, f)
        if l == i:
            rhs = rhs - e_action(k, j, f)
        assert lhs == rhs
    print("PASS criterion 10: operator action, pairing invariance, commutation, exact")


def test_criterion_11_gl3_coincidence():
    basis, _, polys = representation((2, 1, 0))
    matrices = seeded_matrices(3, SEED, 20)
    for idx, entry in enumerate(basis.entries):
        scalar = pair(polys[idx], entry.agkz_poly) / pair(
            entry.gamma_poly, entry.agkz_poly
        )
        difference = polys[idx] - entry.gamma_poly.scale(scalar)
        for matrix in matrices:
            assert evaluate_minors(difference, matrix) == 0
    print("PASS criterion 11: gl3 coincidence with the lattice series modulo minors, exact")
