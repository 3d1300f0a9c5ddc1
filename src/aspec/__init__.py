"""Operator calculus induced by a positive-semidefinite weight on matrix algebras.

The numerical side computes weighted seminorms, adjoints, invertibility,
spectra, and numerical ranges for dense complex matrices; the symbolic side
models the commutative sequence algebra where spectral permanence fails.

Importing the package loads none of its modules, and not numpy either.  Each
public name below is imported from its home module on first access (PEP 562),
so ``from aspec import a_seminorm`` loads linalg, psd and seminorm only, and
the exact sequence-space algebra (``parse_element``, ``a_inverse_classify``,
...) loads omega alone, without numpy.  ``from aspec import *`` loads every
module.
"""

import importlib

# home module -> the public names it defines; each is imported on first access
_EXPORTS = {
    "douglas": ("NotMajorizedError", "douglas_solve", "power_factorize"),
    "invert": (
        "AInverseResult", "ConvergenceError", "ThvnCertificate", "a_invertible", "neumann_a_inverse",
        "thvn_certificate",
    ),
    "linalg": (
        "DEFAULT_TOL", "ComplexMatrix", "MatrixFormatError", "ShapeError", "ToleranceConfig", "approx_equal",
        "read_matrix", "write_matrix",
    ),
    "omega": (
        "InverseClassification", "Limit", "OmegaElement", "RationalExpr", "Verdict", "a_inverse_classify",
        "demo_function", "demo_weight", "diagonal_truncation", "is_well_supported", "limit_at_infinity",
        "parse_element", "parse_rational",
    ),
    "psd": ("NotPsdError", "PsdDecomposition", "fractional_power", "psd_decompose"),
    "seminorm": (
        "ASeminormValue", "NotMemberError", "VectorState", "a_adjoint", "a_membership", "a_seminorm",
        "a_seminorm_oracle", "is_a_selfadjoint", "membership_certificate", "random_member",
    ),
    "spectrum": (
        "ASpectrumResult", "MollifierStep", "NumericalRangePolygon", "SpectrumPointError", "a_numerical_range",
        "a_spectral_radius", "a_spectrum", "boundary_mollifier", "gelfand_sequence", "spectrum_witness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
