"""Dense complex matrices, tolerance policy, and the JSON wire format.

Every operation in this package works on square complex128 arrays.  The
helpers here validate shapes and entries once at the boundary so the
numerical modules can assume well-formed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

ComplexMatrix = np.ndarray


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class MatrixFormatError(ValueError):
    """A matrix document is malformed: bad JSON, shape mismatch, or non-finite entry."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Single tolerance policy threaded through all modules.

    Each yes/no decision compares a defect with a unitarily invariant scale
    of its own operand, so rescaling the operands never changes an answer.
    rtol: a defect is negligible when at most rtol times that scale.
    rank_rtol: singular values and eigenvalues at most rank_rtol times the
        largest are exactly zero everywhere; lam is a spectrum point iff
        sigma_min(C - lam) is at most rank_rtol times sigma_max(C).
    atol: no decision about an operand uses it; it is the accuracy target
        of approx_equal, the property checks and the Neumann series.  Witness
        bounds are relative to their terms' own size, and the hull's eps is
        rtol times the spread of its points; neither has an absolute floor.
    """

    atol: float = 1e-10
    rtol: float = 1e-8
    rank_rtol: float = 1e-10

    def __post_init__(self):
        for name in ("atol", "rtol", "rank_rtol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def negligible(self, defect: float, scale: float) -> bool:
        """True iff the defect is at most rtol times its operand's scale."""
        return defect <= self.rtol * scale

    def cutoff(self, scale: float) -> float:
        """Largest magnitude counted as zero among values whose largest is ``scale``."""
        return self.rank_rtol * scale


DEFAULT_TOL = ToleranceConfig()


def as_matrix(values) -> ComplexMatrix:
    """Coerce to a 2-D complex128 array and validate entries are finite."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise MatrixFormatError("matrix contains a non-finite entry")
    return m


def check_square(m: ComplexMatrix, name: str = "matrix") -> ComplexMatrix:
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    return m


def check_same_shape(m: ComplexMatrix, n: ComplexMatrix) -> None:
    if m.shape != n.shape:
        raise ShapeError(f"shape mismatch: {m.shape} vs {n.shape}")


def read_matrix(source: Union[bytes, str, IO]) -> ComplexMatrix:
    """Parse a matrix from the JSON wire format.

    The document is ``{"rows": R, "cols": C, "data": [[[re, im], ...], ...]}``
    with ``data`` holding R rows of C entries each.  Entries are read literally
    as float64 pairs; no rounding beyond the JSON float parse.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MatrixFormatError("top-level JSON value must be an object")
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except KeyError as exc:
        raise MatrixFormatError(f"missing field: {exc}") from exc
    if any(not isinstance(n, int) or isinstance(n, bool) or n < 1 for n in (rows, cols)):
        raise MatrixFormatError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixFormatError(f"declared {rows} rows, data has {len(data) if isinstance(data, list) else 'no'} rows")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFormatError(f"row {i}: declared {cols} cols, got {len(row) if isinstance(row, list) else 'no list'}")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise MatrixFormatError(f"entry ({i},{j}): expected [re, im] pair")
            re, im = entry
            if not isinstance(re, (int, float)) or not isinstance(im, (int, float)) or isinstance(re, bool) or isinstance(im, bool):
                raise MatrixFormatError(f"entry ({i},{j}): components must be numbers")
            out[i, j] = complex(re, im)
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise MatrixFormatError("matrix contains a non-finite entry")
    return out


def matrix_to_obj(m: ComplexMatrix) -> dict:
    """Matrix as a JSON-serializable object in the wire format."""
    m = np.asarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.stack((m.real, m.imag), axis=-1).tolist(),
    }


def write_matrix(m: ComplexMatrix) -> str:
    """Serialize to the JSON wire format.  Round-trips bit-exactly through read_matrix."""
    return json.dumps(matrix_to_obj(m))


def max_abs(m: ComplexMatrix) -> float:
    """Largest entry modulus (max-norm)."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def approx_equal(m: ComplexMatrix, n: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Entrywise closeness: max |M-N| <= atol + rtol * max(|M|_max, |N|_max)."""
    check_same_shape(m, n)
    bound = tol.atol + tol.rtol * max(max_abs(m), max_abs(n))
    return max_abs(m - n) <= bound
