"""Exact Gelfand-Tsetlin bases from hypergeometric lattice series.

Constructs, in exact rational arithmetic, the canonical functional model of
an irreducible finite-dimensional gl(n) representation: lattice series in
matrix minors, the polynomial solutions of the antisymmetrized GKZ system,
and the orthogonal Gelfand-Tsetlin functions obtained from them by a
triangular change of basis with hypergeometric-constant coefficients.
"""

from .combinatorics import (
    GTDiagram,
    chi,
    chi_apply,
    enumerate_diagrams,
    enumerate_subsets,
    highest_diagram,
)
from .gtbasis import (
    CoefficientTable,
    RepresentationBasis,
    build_basis,
    canonical_form,
    coeff_C,
    coeff_C_alt,
    gram_matrix,
    gt_function,
    representation,
    weyl_dimension,
)
from .lattice import (
    AmbiguousMinimumError,
    ExponentVector,
    LatticeBasisVector,
    ShiftVector,
    canonical_shifts,
    coset_leq,
    in_lattice,
    lattice_basis,
    lattice_rank,
    nonneg_points,
    shift_from_diagram,
)
from .operators import (
    agkz_apply,
    e_action,
    euler_weighted,
    gkz_apply,
    membership_check,
    plucker_generator,
)
from .polyengine import (
    Polynomial,
    diff_apply,
    evaluate_at_ones,
    evaluate_minors,
    pair,
    poly_from_json,
    poly_to_json,
)
from .series import (
    agkz_solution,
    f_pair_series,
    gamma_series,
    j_pair_series,
    j_series,
)

__version__ = "1.0.0"
