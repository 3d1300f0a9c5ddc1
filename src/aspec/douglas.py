"""Factorization solvers for operator equations of majorization type.

``douglas_solve`` answers "is X*X dominated by a multiple of Y*Y, and if so
produce Z with X = Z*Y"; in finite dimensions the domination question is
exactly null-space containment N(Y) <= N(X), which is decided via the SVD of
Y instead of searching for a scale factor.  ``power_factorize`` peels a
fractional power off a dominating PSD matrix: X = V B^alpha with both
operator inequalities on V checked by the caller's tests.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, ComplexMatrix, ToleranceConfig, operand, pow2_text, times_pow2, unit_scaled
from .psd import PsdDecomposition


class NotMajorizedError(ValueError):
    """No finite scale alpha gives X*X <= alpha Y*Y (null spaces incompatible)."""


def douglas_solve(x: ComplexMatrix, y: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Solve X = Z*Y for the minimal-norm Z, or raise NotMajorizedError.

    Solvability holds iff N(Y) is contained in N(X), decided by ||X N||_F for
    a basis N of N(Y) against ||X||_F, both taken on X scaled by unit_scaled;
    the returned canonical solution is Z = (X Y^dagger)*.  One SVD
    Y = U S V* gives both N and Y^dagger = V S^dagger U*, so the decision and
    the solution cut the same singular values of Y.
    """
    y = operand(y, "Y")
    x = operand(x, "X", y)  # a mismatch reads "X's shape vs Y's"
    u, svals, vh = np.linalg.svd(y)
    kept = svals > tol.cutoff(svals[0])
    null_basis = vh[~kept].conj().T  # columns span N(Y)
    if null_basis.shape[1]:
        xs, k = unit_scaled(x)
        defect = float(np.linalg.norm(xs @ null_basis))
        if not tol.negligible(defect, np.linalg.norm(xs)):
            raise NotMajorizedError(f"N(Y) is not contained in N(X) (defect {pow2_text(defect, k)}); "
                                    "no finite majorization constant exists")
    return (u[:, kept] / svals[kept]) @ (vh[kept] @ x.conj().T)


def power_factorize(
    x: ComplexMatrix,
    b: PsdDecomposition,
    alpha: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ComplexMatrix:
    """Factor X = V B^alpha for 0 < alpha < 1/2, given X*X <= B.

    Returns V = X (B^alpha)^dagger.  The factor satisfies V*V <= B^(1-2 alpha)
    and V V* <= (X X*)^(1-2 alpha), up to the absolute tolerance.
    """
    if not 0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    x = operand(x, "X", b.a)
    j = max(unit_scaled(x)[1], (unit_scaled(b.a)[1] + 1) // 2)  # X*X scales as B: X 2^-j and B 4^-j, both below 1
    xs, bs = times_pow2(x, -j), times_pow2(b.a, -2 * j)
    gram_gap = float(np.min(np.linalg.eigvalsh(bs - xs.conj().T @ xs)))
    if not tol.negligible(-gram_gap, np.linalg.norm(bs)):
        raise ValueError(f"X*X is not dominated by B (eigenvalue defect {pow2_text(gram_gap, 2 * j)})")
    return x @ b.power(-alpha)
