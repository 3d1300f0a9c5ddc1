"""Validation of the PSD weight and its derived spectral objects.

One eigendecomposition of the weight is computed and cached; every derived
matrix (fractional powers, pseudoinverse, range projection) comes from the
same eigenpairs, so Moore-Penrose identities hold to rounding error rather
than to a tolerance stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_TOL, ComplexMatrix, ToleranceConfig, check_square


class NotPsdError(ValueError):
    """The weight is not positive semidefinite (or not Hermitian) within tolerance."""


@dataclass(frozen=True)
class PsdDecomposition:
    """Cached spectral data of a PSD weight.

    Eigenvalues below the rank cutoff are hard-zeroed, so ``rank``, ``gap``
    and every derived matrix agree on which directions count as the range.
    The derived matrices are built from the eigenpairs on first use.
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

    @property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis Q of the range, shape (dim, rank)."""
        return self.eigvecs[:, self.eigvals > 0]

    @property
    def null_basis(self) -> np.ndarray:
        """Orthonormal basis N of the null space, shape (dim, dim - rank)."""
        return self.eigvecs[:, self.eigvals == 0]

    @property
    def range_eigvals(self) -> np.ndarray:
        """Retained (positive) eigenvalues, shape (rank,)."""
        return self.eigvals[self.eigvals > 0]

    def power(self, s: float) -> ComplexMatrix:
        """A^s by spectral calculus on the retained eigenvalues."""
        ws = np.where(self.eigvals > 0, self.eigvals**s, 0.0)
        return (self.eigvecs * ws) @ self.eigvecs.conj().T

    def pinv_power(self, s: float) -> ComplexMatrix:
        """(A^s)^dagger = pseudoinverse of the s-th power, same eigenbasis."""
        safe = np.where(self.eigvals > 0, self.eigvals, 1.0)
        ws = np.where(self.eigvals > 0, safe ** (-s), 0.0)
        return (self.eigvecs * ws) @ self.eigvecs.conj().T

    @cached_property
    def sqrt(self) -> ComplexMatrix:
        """A^(1/2)."""
        return self.power(0.5)

    @cached_property
    def quarter(self) -> ComplexMatrix:
        """A^(1/4)."""
        return self.power(0.25)

    @cached_property
    def pinv(self) -> ComplexMatrix:
        """Moore-Penrose pseudoinverse A^dagger."""
        return self.pinv_power(1)

    @cached_property
    def sqrt_pinv(self) -> ComplexMatrix:
        """(A^(1/2))^dagger."""
        return self.pinv_power(0.5)

    @cached_property
    def proj(self) -> ComplexMatrix:
        """Orthogonal projection onto the range."""
        return self.power(0)


def psd_decompose(a: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> PsdDecomposition:
    """Validate the weight and compute its eigendecomposition.

    Raises NotPsdError if ``a`` is not square, if its Hermitian defect
    ||A - A*||_F is not negligible against ||A||_F, or if an eigenvalue lies
    below -cut, where cut = rank_rtol * max|eigenvalue|.  Eigenvalues in
    [-cut, cut] are hard-zeroed; all decisions are invariant under A -> cA.
    """
    a = np.asarray(a, dtype=np.complex128)
    check_square(a, "weight")
    herm_gap = float(np.linalg.norm(a - a.conj().T))
    if not tol.negligible(herm_gap, float(np.linalg.norm(a))):
        raise NotPsdError(f"weight is not Hermitian within tolerance (defect {herm_gap:.3e})")
    h = (a + a.conj().T) / 2
    w, u = np.linalg.eigh(h)
    cut = tol.cutoff(float(np.max(np.abs(w))))
    if w[0] < -cut:
        raise NotPsdError(f"weight has negative eigenvalue {w[0]:.3e}")
    w = np.where(w > cut, w, 0.0)
    retained = w > 0
    rank = int(np.count_nonzero(retained))
    gap = float(np.min(w[retained])) if rank else 0.0
    return PsdDecomposition(a=h, eigvals=w, eigvecs=u, rank=rank, gap=gap)


def fractional_power(d: PsdDecomposition, s: float) -> ComplexMatrix:
    """A^s for s > 0, with the hard-zeroed small eigenvalues kept at zero."""
    if s <= 0:
        raise ValueError(f"exponent must be positive, got {s}")
    return d.power(s)
