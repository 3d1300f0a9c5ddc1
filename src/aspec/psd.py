"""Validation of the PSD weight and its spectral calculus.

One eigendecomposition of the weight is computed and kept, with its
rank-sized views: the range and null bases and the retained eigenvalues.  No
n x n matrix is cached.  power(s) forms A^s from the eigenpairs, so A^0 is the
range projection, A^-1 the pseudoinverse and I - A^0 the null projection, and
Moore-Penrose identities hold to rounding error rather than to a tolerance
stack; lift(R) carries a rank x rank form back to n x n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_TOL, ComplexMatrix, MatrixFormatError, ToleranceConfig, operand, times_pow2, unit_scaled


class NotPsdError(ValueError):
    """The weight is not positive semidefinite (or not Hermitian) within tolerance."""


@dataclass(frozen=True)
class PsdDecomposition:
    """The eigenpairs of a PSD weight and their rank-sized views.

    Eigenvalues below the rank cutoff are hard-zeroed, so ``rank``, ``gap``
    and every derived matrix agree on which directions count as the range.
    power(s) and lift(R) are the two routes to an n x n matrix; each forms
    it anew from the eigenpairs.
    """

    a: ComplexMatrix
    # eigendecomposition of ``a``; eigvals within the rank cutoff already hard-zeroed
    eigvals: np.ndarray = field(repr=False)
    eigvecs: np.ndarray = field(repr=False)
    rank: int
    gap: float

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @cached_property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis Q of the range, shape (dim, rank)."""
        return self.eigvecs[:, self.eigvals > 0]

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal basis N of the null space, shape (dim, dim - rank)."""
        return self.eigvecs[:, self.eigvals == 0]

    @cached_property
    def range_eigvals(self) -> np.ndarray:
        """Retained (positive) eigenvalues L, shape (rank,)."""
        return self.eigvals[self.eigvals > 0]

    @cached_property
    def range_sqrt(self) -> np.ndarray:
        """L^(1/2), shape (rank,)."""
        return np.sqrt(self.range_eigvals)

    def power(self, s: float) -> ComplexMatrix:
        """A^s by spectral calculus on the retained eigenvalues, for every real s: (A^-s)^dagger at s < 0."""
        ws = np.zeros(self.dim)
        ws[self.eigvals > 0] = self.range_eigvals**s
        return (self.eigvecs * ws) @ self.eigvecs.conj().T

    def lift(self, r: ComplexMatrix) -> ComplexMatrix:
        """Q L^(-1/2) R L^(1/2) Q*: the n x n matrix, zero on the null space, whose similar form is R."""
        q, s = self.range_basis, self.range_sqrt
        return (q / s) @ r @ (s[:, None] * q.conj().T)


def psd_decompose(a: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> PsdDecomposition:
    """Validate the weight and compute its eigendecomposition.

    operand rejects an empty, non-square or non-finite ``a``; NotPsdError is
    raised if ||A - A*||_F is not negligible against ||A||_F or an eigenvalue
    lies below -cut, cut = rank_rtol * max|eigenvalue|.  Eigenvalues in
    [-cut, cut] are hard-zeroed; all decisions are invariant under A -> cA.
    All is read on (S, k) = unit_scaled(A): eigh solves S/2 + S*/2, and its eigenvalues and ``a`` are scaled
    back by 2^k.  So LAPACK never rescales, and under A -> 4^j A the eigenvectors keep their bits.
    MatrixFormatError is raised, before that, if an eigenvalue's modulus is past float max.
    """
    s, k = unit_scaled(operand(a, "weight"))
    herm_gap = float(np.linalg.norm(s - s.conj().T))
    if not tol.negligible(herm_gap, np.linalg.norm(s)):
        raise NotPsdError(f"weight is not Hermitian within tolerance (defect {times_pow2(herm_gap, k):.3e})")
    h = s / 2 + s.conj().T / 2
    w, u = np.linalg.eigh(h)
    top = float(np.max(np.abs(w)))
    if math.frexp(top)[1] + k > 1024:  # top 2^k >= 2^1024
        raise MatrixFormatError(f"weight eigenvalue overflow: a modulus of about 2^{math.log2(top) + k:.1f}, past float max")
    cut = tol.cutoff(top)
    if w[0] < -cut:
        raise NotPsdError(f"weight has negative eigenvalue {times_pow2(w[0], k):.3e}")
    w = times_pow2(np.where(w > cut, w, 0.0), k)
    retained = w > 0
    rank = int(np.count_nonzero(retained))
    gap = float(np.min(w[retained])) if rank else 0.0
    return PsdDecomposition(a=times_pow2(h, k), eigvals=w, eigvecs=u, rank=rank, gap=gap)


def fractional_power(d: PsdDecomposition, s: float) -> ComplexMatrix:
    """A^s for s > 0, with the hard-zeroed small eigenvalues kept at zero."""
    if not 0 < s < np.inf:
        raise ValueError(f"exponent must be positive and finite, got {s}")
    return d.power(s)
