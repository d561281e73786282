"""Exact-arithmetic toolkit for Riordan arrays.

Builds lower-triangular arrays from coefficient-array characterizations,
computes production matrices and A/Z-sequences, takes exact Hankel
transforms, fits and verifies Somos-4 relations, and extracts J-fractions
from moment sequences.  Everything runs over arbitrary-precision rationals;
every comparison in the bundled verification corpus is exact.
"""

from .series import (
    CompositionRequiresZeroConstantTerm,
    DivisionByNonUnit,
    InsufficientTerms,
    NonSquareConstantTerm,
    NotRevertible,
    PowerSeries,
    Sequence,
    SeriesError,
    binomial_transform,
    catalan,
    catalan_of,
    rational,
    rational_series,
)
from .core import (
    InsufficientOrder,
    LowerTriangle,
    NotRiordanBand,
    ProductionData,
    RiordanPair,
    a_sequence,
    bell_from_f,
    diagonal_sums,
    production_matrix,
    quasi_involution_check,
    reconstruct_from_AZ,
    riordan_inverse,
    riordan_mul,
    riordan_triangle,
    z_sequence,
)
from .amatrix import (
    AMatrixSpec,
    InvalidSpec,
    NonConvergence,
    SolveReport,
    asequence_by_substitution,
    binomial_transform_equation_check,
    closed_form_f_general,
    direct_triangle,
    functional_equation_residual,
    narayana_poly_coeffs,
    orthogonal_poly_coeffs,
    perturbed_f,
    solve_f,
)
from .hankel import (
    JFraction,
    SomosFitResult,
    exact_det,
    hankel_transform,
    jfraction,
    jfraction_series,
    somos_fit,
    somos_verify,
)
from .verify import (
    FixtureNotFound,
    MalformedLine,
    NonConsecutiveIndices,
    SweepReport,
    check_conjecture_point,
    conjectured_somos_rho0,
    conjectured_somos_rho_delta,
    load_bfile,
    run_fixtures,
    sweep_conjecture_rho0,
    sweep_conjecture_rho_delta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
