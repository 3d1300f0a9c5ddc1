"""Membership, seminorm, and adjoint calculus induced by the weight.

A square matrix X has a finite weighted seminorm exactly when it leaves the
null space of the weight invariant.  Each public call that needs a member
decides that once, in _require_member, and hands its cores a Member, which
holds the compression C of X to the range and its similar form M, each once
and unit-scaled, with their singular values, and the rank cutoff (see its
docstring).  A Member is built once on S = X 2^-k, (S, k) = unit_scaled(X),
and keeps M as W = M 2^-e.  Each public output of degree deg in X leaves it
scaled back once, by 2^(deg k) when read on C and by 2^(deg e) when read on
W, so the outputs at 2^j X are those at X times 2^(deg j), bit for bit.  An
independent route to the seminorm goes through the supremum of the state
functionals f(X*AX)/f(A) in the full space; both are exposed so they can be
cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ComplexMatrix,
    ToleranceConfig,
    operand,
    times_pow2,
    unit_scaled,
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
    taken on X scaled by unit_scaled, so neither underflows nor overflows.
    """
    x, _ = unit_scaled(operand(x, "X", d.a))
    return tol.negligible(np.linalg.norm(d.range_basis.conj().T @ x @ d.null_basis), np.linalg.norm(x))


def _is_point(svals: np.ndarray, cut: float) -> bool:
    """The rank test on the descending singular values of C - lam: sigma_min <= cut, never at rank 0."""
    return svals.size > 0 and bool(svals[-1] <= cut)


@dataclass(frozen=True)
class Member:
    """A member X of the weight d and the values the member-assuming cores read, each built on first use.

    It holds two matrices, each once and unit-scaled, with their descending
    singular values.  With Q the orthonormal range basis of d and L its
    retained eigenvalues, c is the compression C = Q* S Q of the S of
    (S, k) = unit_scaled(X), whose largest entry modulus lies in [1/2, 1), and
    svals are its singular values.  w is (W, e) for the similar form
    M = L^(1/2) (Q* X Q) L^(-1/2), which is A^(1/2) X (A^(1/2))^dagger on the
    range, kept as W = M 2^-e, built from C, for the e that brings W's largest
    entry modulus into [1/2, 1); w_svals are W's singular values, so the
    seminorm of X is sigma_max(W) 2^e (0 at rank 0).  A value of degree deg
    in X read on C is scaled back by 2^(deg k), and one read on W by
    2^(deg e).  cut is the one rank test: lam is a point of the weighted
    spectrum iff sigma_min(C - lam 2^-k) <= cut, and X is invertible iff 0 is
    not a point.  It is tol.cutoff(sigma_max(C)), or sigma_max(C) itself when
    that is at most rounding = tol.rounding(dim, ||S||_F), the rounding of
    forming C from S: C is then zero to rounding, as when A X = 0, and every
    singular value is cut.  C decides the cut, the points, the witness
    candidates and the canonical inverse; every measurement, the witness
    checks and the mollifier included, runs on W.
    """

    d: PsdDecomposition
    s: ComplexMatrix
    k: int
    tol: ToleranceConfig

    @cached_property
    def rounding(self) -> float:
        return self.tol.rounding(self.d.dim, float(np.linalg.norm(self.s)))

    @cached_property
    def c(self) -> ComplexMatrix:
        q = self.d.range_basis
        return q.conj().T @ self.s @ q

    @cached_property
    def svals(self) -> np.ndarray:
        return np.linalg.svd(self.c, compute_uv=False)

    @cached_property
    def cut(self) -> float:
        top = float(self.svals.max(initial=0.0))
        return top if top <= self.rounding else self.tol.cutoff(top)

    @cached_property
    def w(self) -> tuple[ComplexMatrix, int]:
        w, j = unit_scaled(self.c * self.d.range_sqrt[:, None] / self.d.range_sqrt[None, :])
        return w, j + self.k

    @cached_property
    def w_svals(self) -> np.ndarray:
        return np.linalg.svd(self.w[0], compute_uv=False)

    @property
    def singular(self) -> bool:
        """True iff 0 is a point of the spectrum, so X is not invertible."""
        return _is_point(self.svals, self.cut)

    def shift(self, lam: complex) -> ComplexMatrix:
        """C - lam 2^-k, the compression of X - lam in units of S, for lam in units of X.

        The one check of a spectral parameter: ValueError, naming lam, unless lam 2^-k is finite.
        """
        mu = times_pow2(complex(lam), -self.k)
        if not np.isfinite(mu):
            raise ValueError(f"spectral parameter {lam} is not finite at the scale 2^{self.k} of X")
        return self.c - mu * np.eye(len(self.c))

    def is_point(self, lam: complex) -> bool:
        """True iff lam, in units of X, is a point of the weighted spectrum: the rank test of shift(lam)."""
        return _is_point(np.linalg.svd(self.shift(lam), compute_uv=False), self.cut)


def _require_member(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig) -> Member:
    """X as a Member on (S, k) = unit_scaled(X), after the one membership decision of a public call, on S.

    Raises NotMemberError for non-members.  What follows runs member-assuming
    cores and decides nothing again for matrices that are members by
    construction: shifts lam - X, canonical inverses, products of members.
    """
    s, k = unit_scaled(operand(x, "X", d.a))
    if not a_membership(d, s, tol):
        raise NotMemberError("operation requires a member, but X moves the null space of the weight")
    return Member(d, s, k, tol)


def membership_certificate(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Certificate U with A^(1/2) X = U A^(1/4) and U*U <= c A^(1/2), c the squared seminorm.

    U = Q (L^(1/2) C L^(-1/4)) Q*, from the member's C.  Raises NotMemberError when X is not a member.
    """
    q, s, member = d.range_basis, d.range_sqrt, _require_member(d, x, tol)
    return times_pow2((q * s) @ member.c @ (q / np.sqrt(s)).conj().T, member.k)


def a_seminorm(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ASeminormValue:
    """Weighted seminorm of X: infinite for non-members, else the norm of the compression."""
    try:
        member = _require_member(d, x, tol)
    except NotMemberError:
        return ASeminormValue(finite=False)
    return ASeminormValue(finite=True, value=times_pow2(float(member.w_svals.max(initial=0.0)), member.w[1]))


def a_seminorm_oracle(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """State-supremum route to the seminorm.

    sqrt of the largest generalized eigenvalue of the pencil (X*AX, A) on the
    range of the weight, evaluated as the top eigenvalue of
    (A^(1/2))^dagger X*AX (A^(1/2))^dagger.  The supremum over all states is
    attained at a vector state, so this equals the seminorm for members.
    X*AX is degree 2 in X: it is formed on the member's S, and the root scaled back, so nothing overflows.
    """
    member, r = _require_member(d, x, tol), d.power(-0.5)
    gram = r @ (member.s.conj().T @ d.a @ member.s) @ r
    gram = (gram + gram.conj().T) / 2
    mu_max = float(np.max(np.linalg.eigvalsh(gram)))
    return float(times_pow2(np.sqrt(max(mu_max, 0.0)), member.k))


def a_adjoint(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Canonical weighted adjoint A^dagger X* A, satisfying A X = (adjoint)* A.

    Weighted adjoints are not unique; this pins the representative supported on the range of the
    weight, lift(M*) = Q L^-1 C* L Q*, read as lift(W*) 2^e from the member's W.  Raises NotMemberError for non-members.
    """
    w, e = _require_member(d, x, tol).w
    return times_pow2(d.lift(w.conj().T), e)


def _complex_gaussian(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    """Standard complex Gaussian entries times scale: real and imaginary parts each of variance scale^2 / 2."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (scale / np.sqrt(2))


def random_member(d: PsdDecomposition, rng: np.random.Generator) -> ComplexMatrix:
    """Random member for the given weight: P M P + (1-P) M' (1-P) with Gaussian M, M'.

    The construction keeps the null space of the weight invariant, so
    membership holds by design (up to rounding).
    """
    m, m2 = (_complex_gaussian(rng, (d.dim, d.dim)) for _ in range(2))
    p = d.power(0)
    n = np.eye(d.dim) - p
    return p @ m @ p + n @ m2 @ n


def is_a_selfadjoint(a: ComplexMatrix, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff A X = X* A: ||AX - (AX)*||_F is negligible against ||AX||_F, degree 0 in A and in X, so both norms
    read AX formed from unit_scaled A and X and then unit_scaled itself: none overflows or underflows to 0 <= 0."""
    x = operand(x, "X")
    ax = unit_scaled(unit_scaled(operand(a, "A", x))[0] @ unit_scaled(x)[0])[0]  # a mismatch reads "A's shape vs X's"
    return tol.negligible(np.linalg.norm(ax - ax.conj().T), np.linalg.norm(ax))
