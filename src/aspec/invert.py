"""Weighted invertibility: decisions, canonical inverses, and certificates.

X is invertible relative to the weight exactly when its compression C to the
range of the weight is invertible as an ordinary r x r matrix: the rank test
of seminorm.Member at 0.  The canonical inverse inverts C and is zero on the
null space; the invertible form completes it by the identity on the null
space, giving an inverse that is also invertible in the ordinary sense.  The
certificate constants of the two-sided inequalities are read off the
singular values of the member's C and M.  For a range vector
h = Q L^(-1/2) u the state ratio f(X*AX) / f(A) is |M u|^2 / |u|^2, so the
pencil (X*AX, A) has the eigenvalues sigma(M)^2 and
c = max(sigma_max(M), 1 / sigma_min(M))^2.  The pencil (A^2, A X X* A) reads
L^2 v = mu L C C* L v, which u = L v turns into u = mu C C* u, so
alpha = 1 / sigma_min(C)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, ComplexMatrix, ToleranceConfig, times_pow2
from .psd import PsdDecomposition
from .seminorm import NotMemberError, _require_member


# terms neumann_a_inverse sums at most before it raises ConvergenceError
_MAX_TERMS = 10_000


class ConvergenceError(RuntimeError):
    """The inverse series still had a term above atol after its cap of 10 000 terms (_MAX_TERMS)."""


@dataclass(frozen=True)
class AInverseResult:
    """Outcome of the invertibility decision.

    ``canonical`` inverts the compression on the range and vanishes on the
    null space; ``invertible_form`` extends it by the identity on the null
    space and has full ordinary rank.  Both are present iff ``invertible``.
    """

    invertible: bool
    canonical: ComplexMatrix | None = None
    invertible_form: ComplexMatrix | None = None


@dataclass(frozen=True)
class ThvnCertificate:
    """Constants witnessing two-sided invertibility.

    c bounds the state ratios: (1/c) f(A) <= f(X*AX) <= c f(A) for every
    state; alpha bounds A^2 <= alpha A X X* A and equals 1 / sigma_min(C)^2
    for the range compression C = Q* X Q.  Both are inflated by (1 + rtol)
    so the inequalities hold strictly under floating point.
    """

    c: float
    alpha: float


def a_invertible(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> AInverseResult:
    """Decide weighted invertibility and build the canonical and invertible inverses.

    Non-members are reported as not invertible.  The decision threshold ties
    to the same rank policy as the weight decomposition: the compression is
    deemed invertible when its smallest singular value exceeds the cutoff
    of its largest.
    """
    try:
        member = _require_member(d, x, tol)
    except NotMemberError:
        return AInverseResult(invertible=False)
    if member.singular:
        return AInverseResult(invertible=False)
    q = d.range_basis
    canonical = times_pow2(q @ np.linalg.inv(member.c) @ q.conj().T, -member.k)
    return AInverseResult(invertible=True, canonical=canonical, invertible_form=canonical + (np.eye(d.dim) - d.power(0)))


def neumann_a_inverse(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Weighted inverse of (1 - X) by geometric series, for seminorm of X below 1.

    Sums the powers of the member's M in rank x rank, lifts the sum
    once as Q L^(-1/2) (sum M^k) L^(1/2) Q*, and completes by the identity on
    the null space.  Truncates at the first term whose Frobenius norm, and so
    whose seminorm sigma_max(M^k) <= ||M^k||_F, is at most atol (a zero term
    at atol = 0); raises ConvergenceError if the cap of 10 000 terms is hit first.
    """
    member = _require_member(d, x, tol)
    norm, m = times_pow2(member.norm, member.k), times_pow2(member.m, member.k)
    if norm >= 1:
        raise ValueError(f"seminorm {norm:.6g} is not below 1; the series diverges")
    total = np.eye(d.rank, dtype=np.complex128)
    term = total
    for _ in range(_MAX_TERMS):
        term = term @ m
        if np.linalg.norm(term) <= tol.atol:
            break
        total = total + term
    else:
        raise ConvergenceError(f"series still above atol after {_MAX_TERMS} terms")
    return d.lift(total) + (np.eye(d.dim) - d.power(0))


def thvn_certificate(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ThvnCertificate | None:
    """Certificate constants for weighted invertibility, or None when not invertible.

    c = max(sigma_max(M), 1 / sigma_min(M))^2 holds the extreme eigenvalues of
    the pencil (X*AX, A) on the range, in closed form.  alpha =
    1 / sigma_min(C)^2, from the singular values that also decide
    invertibility; it is the top eigenvalue of the pencil (A^2, A X X* A).
    c and alpha are degree +-2 in X, so outside about 1e+-154 they leave float
    range: c reads inf, alpha inf or 0.  That is their size, not a defect.
    c squares sigma_max(M) and 1 / sigma_min(M), each scaled back from the
    member's S; alpha is scaled back once, by 2^(-2k).
    Raises NotMemberError for non-members.
    """
    member = _require_member(d, x, tol)
    if member.singular:
        return None
    inflate = 1.0 + tol.rtol
    if d.rank == 0:
        return ThvnCertificate(c=inflate, alpha=inflate)
    # squares by multiplication, which reads inf past float max where ** raises OverflowError
    k, bottom = member.k, float(member.svals[-1])
    top = max(times_pow2(float(member.m_svals[0]), k), times_pow2(1.0 / float(member.m_svals[-1]), -k))
    alpha = times_pow2(inflate / (bottom * bottom), -2 * k) if bottom * bottom else math.inf
    return ThvnCertificate(c=top * top * inflate, alpha=alpha)
