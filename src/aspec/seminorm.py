"""Membership, seminorm, and adjoint calculus induced by the weight.

A square matrix X has a finite weighted seminorm exactly when it leaves the
null space of the weight invariant.  A member is known through its
compression to the range: with Q an orthonormal range basis and L the
retained eigenvalues, C = Q* X Q, and its similar form M = L^(1/2) C L^(-1/2)
is A^(1/2) X (A^(1/2))^dagger on the range.  Every member-assuming core reads
one of the two, built by range_compression and compressed; the seminorm is
sigma_max(M), which range_seminorm reads off C alone.  An independent route to the same number goes through the
supremum of the state functionals f(X*AX)/f(A) in the full space; both are
exposed so they can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ComplexMatrix,
    ToleranceConfig,
    check_same_shape,
    check_square,
    frobenius_norm,
)
from .psd import PsdDecomposition


class NotMemberError(ValueError):
    """X has infinite seminorm: it moves the weight's null space."""


@dataclass(frozen=True)
class ASeminormValue:
    """Seminorm outcome; ``value`` is meaningful only when ``finite``."""

    finite: bool
    value: float | None = None


@dataclass(frozen=True)
class VectorState:
    """State f(Z) = <Z h, h> / <A h, h> for a unit vector h with <A h, h> > 0."""

    h: np.ndarray
    weight: float

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError("vector state needs <A h, h> > 0")

    def __call__(self, z: ComplexMatrix) -> complex:
        return complex(self.h.conj() @ (z @ self.h)) / self.weight


def a_membership(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff X maps the null space of the weight into itself.

    With Q and N orthonormal bases of the range and the null space, the
    defect ||Q* X N||_F, which equals ||P X (I - P)||_F for the range
    projection P, must be negligible against ||X||_F; the answer is invariant
    under A -> cA, X -> cX and unitary conjugation of (A, X).  Both norms are
    taken by frobenius_norm, so neither underflows nor overflows at extreme
    scales of X.
    """
    x = np.asarray(x, dtype=np.complex128)
    check_square(x, "X")
    check_same_shape(x, d.a)
    defect = frobenius_norm(d.range_basis.conj().T @ x @ d.null_basis)
    return tol.negligible(defect, frobenius_norm(x))


def _require_member(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig) -> ComplexMatrix:
    """X as complex128, after the one membership decision of a public call.

    Raises NotMemberError for non-members.  What follows runs member-assuming
    cores and decides nothing again for matrices that are members by
    construction: shifts lam - X, canonical inverses, products of members.
    """
    x = np.asarray(x, dtype=np.complex128)
    if not a_membership(d, x, tol):
        raise NotMemberError("operation requires a member, but X moves the null space of the weight")
    return x


def membership_certificate(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Certificate U with A^(1/2) X = U A^(1/4) and U*U <= c A^(1/2), c the squared seminorm.

    Raises NotMemberError when X is not a member.
    """
    x = _require_member(d, x, tol)
    return d.sqrt @ x @ d.pinv_power(0.25)


def range_compression(d: PsdDecomposition, x: ComplexMatrix) -> ComplexMatrix:
    """C = Q* X Q in an orthonormal basis Q of the range of the weight (rank x rank)."""
    q = d.range_basis
    return q.conj().T @ np.asarray(x, dtype=np.complex128) @ q


def _is_point(svals: np.ndarray, cut: float) -> bool:
    """The one rank test of a compression, from the singular values of C - lam and the cutoff of sigma_max(C):
    lam is a point of the spectrum iff sigma_min(C - lam) <= cut.  Never at rank 0; at lam = 0 it is the
    test that X fails to be invertible."""
    return svals.size > 0 and bool(svals[-1] <= cut)


def _similar_form(d: PsdDecomposition, c: ComplexMatrix) -> ComplexMatrix:
    """L^(1/2) C L^(-1/2) for a rank x rank C."""
    s = np.sqrt(d.range_eigvals)
    return c * s[:, None] / s[None, :]


def compressed(d: PsdDecomposition, x: ComplexMatrix) -> ComplexMatrix:
    """M = L^(1/2) C L^(-1/2), which is A^(1/2) X (A^(1/2))^dagger on the range (rank x rank)."""
    return _similar_form(d, range_compression(d, x))


def range_seminorm(d: PsdDecomposition, c: ComplexMatrix) -> float:
    """Seminorm of the member whose compression is C: sigma_max(L^(1/2) C L^(-1/2)), 0 at rank 0."""
    return float(np.linalg.svd(_similar_form(d, c), compute_uv=False).max(initial=0.0))


def _seminorm(d: PsdDecomposition, x: ComplexMatrix) -> float:
    """Seminorm of a member: sigma_max(M), 0 at rank 0."""
    return range_seminorm(d, range_compression(d, x))


def a_seminorm(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ASeminormValue:
    """Weighted seminorm of X: infinite for non-members, else the norm of the compression."""
    try:
        x = _require_member(d, x, tol)
    except NotMemberError:
        return ASeminormValue(finite=False)
    return ASeminormValue(finite=True, value=_seminorm(d, x))


def a_seminorm_oracle(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """State-supremum route to the seminorm.

    sqrt of the largest generalized eigenvalue of the pencil (X*AX, A) on the
    range of the weight, evaluated as the top eigenvalue of
    (A^(1/2))^dagger X*AX (A^(1/2))^dagger.  The supremum over all states is
    attained at a vector state, so this equals the seminorm for members.
    """
    x = _require_member(d, x, tol)
    gram = d.sqrt_pinv @ (x.conj().T @ d.a @ x) @ d.sqrt_pinv
    gram = (gram + gram.conj().T) / 2
    mu_max = float(np.max(np.linalg.eigvalsh(gram)))
    return float(np.sqrt(max(mu_max, 0.0)))


def a_adjoint(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Canonical weighted adjoint A^dagger X* A, satisfying A X = (adjoint)* A.

    Weighted adjoints are not unique; this pins the representative supported
    on the range of the weight.  Raises NotMemberError for non-members.
    """
    x = _require_member(d, x, tol)
    return d.pinv @ x.conj().T @ d.a


def _complex_gaussian(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    """Standard complex Gaussian entries times scale: real and imaginary parts each of variance scale^2 / 2."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (scale / np.sqrt(2))


def random_member(d: PsdDecomposition, rng: np.random.Generator, scale: float = 1.0) -> ComplexMatrix:
    """Random member for the given weight: P M P + (1-P) M' (1-P) with Gaussian M, M'.

    The construction keeps the null space of the weight invariant, so
    membership holds by design (up to rounding).
    """
    m = _complex_gaussian(rng, (d.dim, d.dim), scale)
    m2 = _complex_gaussian(rng, (d.dim, d.dim), scale)
    return d.proj @ m @ d.proj + d.null_proj @ m2 @ d.null_proj


def is_a_selfadjoint(a: ComplexMatrix, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff A X = X* A: ||AX - (AX)*||_F is negligible against ||AX||_F."""
    a = np.asarray(a, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    check_square(a, "A")
    check_same_shape(a, x)
    ax = a @ x
    return tol.negligible(frobenius_norm(ax - ax.conj().T), frobenius_norm(ax))
