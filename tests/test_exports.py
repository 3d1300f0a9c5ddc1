"""The package namespace: every public name loads from its home module on first access."""

import importlib
import json
import subprocess
import sys

import pytest

import aspec

# the names ``from aspec import ...`` has always offered; removing one breaks users
PUBLIC_API = frozenset(
    {
        "AInverseResult", "ASeminormValue", "ASpectrumResult", "ComplexMatrix", "ConvergenceError", "DEFAULT_TOL",
        "InverseClassification", "Limit", "MatrixFormatError", "MollifierStep", "NotMajorizedError", "NotMemberError",
        "NotPsdError", "NumericalRangePolygon", "OmegaElement", "PsdDecomposition", "RationalExpr", "ShapeError",
        "SpectrumPointError", "ThvnCertificate", "ToleranceConfig", "VectorState", "Verdict", "a_adjoint",
        "a_inverse_classify", "a_invertible", "a_membership", "a_numerical_range", "a_seminorm", "a_seminorm_oracle",
        "a_spectral_radius", "a_spectrum", "approx_equal", "boundary_mollifier", "demo_function", "demo_weight",
        "diagonal_truncation", "douglas_solve", "fractional_power", "gelfand_sequence", "is_a_selfadjoint",
        "is_well_supported", "limit_at_infinity", "membership_certificate", "neumann_a_inverse", "parse_element",
        "parse_rational", "power_factorize", "psd_decompose", "random_member", "read_matrix", "spectrum_witness",
        "thvn_certificate", "write_matrix",
    }
)


def test_every_export_is_its_home_modules_object():
    # each name once, in one home module
    assert sorted(aspec.__all__) == sorted(PUBLIC_API) == sorted(n for names in aspec._EXPORTS.values() for n in names)
    for module, names in aspec._EXPORTS.items():
        home = importlib.import_module(f"aspec.{module}")
        for name in names:
            assert getattr(aspec, name) is getattr(home, name), name


def test_unknown_names_raise():
    with pytest.raises(AttributeError):
        aspec.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from aspec import no_such_name  # noqa: F401


def test_star_import_and_submodule_imports():
    namespace: dict = {}
    exec("from aspec import *", namespace)
    assert all(namespace[name] is getattr(aspec, name) for name in aspec.__all__)
    from aspec import invert, seminorm, spectrum

    assert (invert.__name__, seminorm.__name__, spectrum.__name__) == ("aspec.invert", "aspec.seminorm", "aspec.spectrum")


def test_package_import_loads_no_module_and_dir_lists_every_export():
    # a fresh interpreter, so that no name has been resolved yet
    probe = (
        "import json, sys, aspec; print(json.dumps(["
        "sorted(m for m in sys.modules if m.startswith(('aspec.', 'numpy'))), sorted(set(aspec.__all__) - set(dir(aspec)))]))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]
