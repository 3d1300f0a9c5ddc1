"""Dense complex matrices, tolerance policy, and the JSON wire format.

Every operation in this package works on square complex128 arrays.  Each
matrix operand passes ``operand`` once at the boundary: it must be a
non-empty square 2-D array of finite entries, so the numerical modules can
assume well-formed input.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Union

import numpy as np

ComplexMatrix = np.ndarray


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class MatrixFormatError(ValueError):
    """A matrix document or operand is malformed: bad JSON, data that misses its declared shape, or a non-finite
    or out-of-range entry.  ``operand`` raises it for a non-finite entry, and ShapeError for an empty or
    non-square operand; ``psd_decompose`` raises it for a weight with an eigenvalue past float max."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Single tolerance policy threaded through all modules, set by one number t (default 1e-10).

    t fixes three derived values: atol = t, rtol = 100 t and rank_rtol = t.  t must be finite and
    nonnegative with 100 t finite, else ValueError.
    Each yes/no decision compares a defect with a unitarily invariant scale of
    its own operand, both read on unit_scaled(operand).  Entries more than about
    2^1000 below an operand's largest entry underflow to zero; nothing else changes with scale.
    rtol: a defect is negligible when at most rtol times that scale.
    rank_rtol: singular values and eigenvalues at most rank_rtol times the
        largest are exactly zero everywhere; lam is a spectrum point iff
        sigma_min(C - lam) is at most rank_rtol times sigma_max(C), or at most
        sigma_max(C) itself when that is within rounding(dim, ||X||_F), the
        rounding of forming C (C is then 0).  rounding(n, scale) is the one
        margin for floating-point error, a formula that no setting changes.
    atol: no decision about an operand uses it; it is the accuracy target
        of approx_equal, the property checks and the Neumann series.  Witness
        bounds are rtol ||X||_A on f(AX) - lam and rtol (||X||_A + |lam|) on
        the annihilation supremum, and the hull's eps is rtol times the spread
        of its points; neither has an absolute floor.
    """

    t: float = 1e-10
    atol: float = field(init=False)
    rtol: float = field(init=False)
    rank_rtol: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t >= 0 and math.isfinite(100 * self.t)):
            raise ValueError(f"tolerance t must be finite and nonnegative, with 100 t finite, got {self.t}")
        for name, value in (("atol", self.t), ("rtol", 100 * self.t), ("rank_rtol", self.t)):
            object.__setattr__(self, name, value)  # frozen: the derived values are set once, here

    def negligible(self, defect: float, scale: float) -> bool:
        """True iff the defect is at most rtol times its operand's scale."""
        return bool(defect <= self.rtol * scale)

    def cutoff(self, scale: float) -> float:
        """Largest magnitude counted as zero among values whose largest is ``scale``."""
        return self.rank_rtol * scale

    def rounding(self, n: int, scale: float = 1.0) -> float:
        """8 n eps scale: the rounding error allowed a value formed by n-term sums of operands of size ``scale``."""
        return 8 * n * np.finfo(float).eps * scale


DEFAULT_TOL = ToleranceConfig()


def operand(m: ComplexMatrix, name: str, like: ComplexMatrix | None = None) -> ComplexMatrix:
    """The one check every matrix operand passes: m as a non-empty square complex128 array of finite entries,
    of the shape of ``like`` when given."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    if not m.size:
        raise ShapeError(f"{name} must have at least one row, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise MatrixFormatError(f"{name} contains a non-finite entry")
    if like is not None and m.shape != like.shape:
        raise ShapeError(f"shape mismatch: {m.shape} vs {like.shape}")
    return m


def read_matrix(source: Union[bytes, str, IO]) -> ComplexMatrix:
    """Parse a matrix from the JSON wire format.

    The document is ``{"rows": R, "cols": C, "data": [[[re, im], ...], ...]}``
    with ``data`` holding R rows of C entries each.  Entries are read literally
    as float64 pairs; no rounding beyond the JSON float parse.
    """
    if hasattr(source, "read"):
        source = source.read()
    try:
        doc = json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # nesting too deep to decode
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
    for i, row in enumerate(data):  # every row's length before the declared shape is allocated
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFormatError(f"row {i}: declared {cols} cols, got {len(row) if isinstance(row, list) else 'no list'}")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise MatrixFormatError(f"entry ({i},{j}): expected [re, im] pair")
            re, im = entry
            if not isinstance(re, (int, float)) or not isinstance(im, (int, float)) or isinstance(re, bool) or isinstance(im, bool):
                raise MatrixFormatError(f"entry ({i},{j}): components must be numbers")
            try:
                out[i, j] = complex(re, im)
            except OverflowError as exc:
                raise MatrixFormatError(f"entry ({i},{j}): integer out of float64 range") from exc
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


def unit_scaled(m: ComplexMatrix) -> tuple[ComplexMatrix, int]:
    """(m 2^-k, k) for the frexp exponent k of max|m|, so that max|m 2^-k| lies in [1/2, 1) (k = 0 for m = 0)."""
    top = max_abs(m)  # inf for a finite complex entry of modulus past float max: k is then read on m/2
    k = math.frexp(top)[1] if top < math.inf else math.frexp(max_abs(m * 0.5))[1] + 1
    return times_pow2(m, -k), k


def times_pow2(v, k: int):
    """v 2^k, exact or inf or subnormal; in three parts, as 2^1024 overflows and alpha (degree -2) takes |k| to 2146.

    A numpy value past float max reads inf without a RuntimeWarning, as a Python float does; only a positive k or
    an array of exponents (gelfand_sequence's) can overflow, so no other call enters the errstate."""
    third, rest = 2.0 ** (k // 3), 2.0 ** (k - 2 * (k // 3))
    if not (isinstance(k, int) and k <= 0) and isinstance(v, (np.ndarray, np.generic)):
        with np.errstate(over="ignore"):
            return v * third * third * rest
    return v * third * third * rest


def pow2_text(v: float, k: int) -> str:
    """v 2^k for a message: in %.3e form, or as a mantissa in [1, 2) times 2^e where that float would overflow."""
    m, e = math.frexp(v)
    return f"{math.ldexp(v, k):.3e}" if e + k <= 1024 else f"{2 * m:.3f} * 2^{e + k - 1}"


def approx_equal(m: ComplexMatrix, n: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Entrywise closeness: max |M-N| <= atol + rtol * max(|M|_max, |N|_max)."""
    if m.shape != n.shape:
        raise ShapeError(f"shape mismatch: {m.shape} vs {n.shape}")
    bound = tol.atol + tol.rtol * max(max_abs(m), max_abs(n))
    return max_abs(m - n) <= bound
