"""Operator calculus induced by a positive-semidefinite weight on matrix algebras.

The numerical side computes weighted seminorms, adjoints, invertibility,
spectra, and numerical ranges for dense complex matrices; the symbolic side
models the commutative sequence algebra where spectral permanence fails.
"""

from .douglas import NotMajorizedError, douglas_solve, power_factorize
from .invert import (
    AInverseResult,
    ConvergenceError,
    ThvnCertificate,
    a_invertible,
    neumann_a_inverse,
    thvn_certificate,
)
from .linalg import (
    DEFAULT_TOL,
    ComplexMatrix,
    MatrixFormatError,
    ShapeError,
    ToleranceConfig,
    approx_equal,
    read_matrix,
    write_matrix,
)
from .omega import (
    InverseClassification,
    Limit,
    OmegaElement,
    RationalExpr,
    Verdict,
    a_inverse_classify,
    demo_function,
    demo_weight,
    diagonal_truncation,
    is_well_supported,
    limit_at_infinity,
    parse_element,
    parse_rational,
)
from .psd import NotPsdError, PsdDecomposition, fractional_power, psd_decompose
from .seminorm import (
    ASeminormValue,
    NotMemberError,
    VectorState,
    a_adjoint,
    a_membership,
    a_seminorm,
    a_seminorm_oracle,
    is_a_selfadjoint,
    membership_certificate,
    random_member,
)
from .spectrum import (
    ASpectrumResult,
    MollifierStep,
    NumericalRangePolygon,
    SpectrumPointError,
    a_numerical_range,
    a_spectral_radius,
    a_spectrum,
    boundary_mollifier,
    gelfand_sequence,
    spectrum_witness,
)

__version__ = "0.1.0"
