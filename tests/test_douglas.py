"""Majorization-driven factorization solvers."""

import numpy as np
import pytest

from aspec.douglas import NotMajorizedError, douglas_solve, power_factorize
from aspec.linalg import DEFAULT_TOL, approx_equal, frobenius_norm
from aspec.psd import psd_decompose

from conftest import cdiag, cmat


def test_diagonal_solve():
    # diagonal oracle: z_i = x_i / y_i on the support of y
    z = douglas_solve(cdiag(1, 0), cdiag(2, 0))
    assert approx_equal(z, cdiag(0.5, 0))
    assert approx_equal(z.conj().T @ cdiag(2, 0), cdiag(1, 0))


def test_identity_right_factor_forces_adjoint():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    z = douglas_solve(x, np.eye(3, dtype=complex))
    assert approx_equal(z, x.conj().T)


def test_incompatible_null_spaces_rejected():
    with pytest.raises(NotMajorizedError):
        douglas_solve(cdiag(0, 1), cdiag(1, 0))


def test_solution_is_minimal_norm_and_majorized():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z = douglas_solve(x, y)
        assert approx_equal(z.conj().T @ y, x)
        alpha = np.linalg.norm(x @ np.linalg.pinv(y), 2) ** 2
        gap = np.min(np.linalg.eigvalsh(alpha * y.conj().T @ y - x.conj().T @ x))
        assert gap >= -1e-8 * max(1.0, alpha)


def test_power_factorize_identity_weight():
    x = cmat([[0.3, 0.1], [0.0, -0.2j]])
    v = power_factorize(x, psd_decompose(np.eye(2, dtype=complex)), 0.25)
    assert approx_equal(v, x)


def test_power_factorize_diagonal():
    # diagonal oracle: v_i = x_i * b_i^(-1/4); 1 * 4^(-1/4) = 1/sqrt(2)
    x = cdiag(1, 0)
    b = psd_decompose(cdiag(4, 0))
    v = power_factorize(x, b, 0.25)
    assert approx_equal(v, cdiag(1 / np.sqrt(2), 0))
    assert approx_equal(v @ b.power(0.25), x)


def test_power_factorize_rejects_undominated():
    with pytest.raises(ValueError):
        power_factorize(cdiag(2, 0), psd_decompose(cdiag(1, 0)), 0.25)


def test_power_factorize_rejects_bad_alpha():
    b = psd_decompose(np.eye(2, dtype=complex))
    for alpha in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            power_factorize(np.eye(2, dtype=complex) * 0.5, b, alpha)


def test_power_factorize_operator_inequalities():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        x = 0.6 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        pad = 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        b = psd_decompose(x.conj().T @ x + pad.conj().T @ pad)
        alpha = float(rng.uniform(0.05, 0.45))
        v = power_factorize(x, b, alpha)
        assert approx_equal(v @ b.power(alpha), x)
        gap1 = np.min(np.linalg.eigvalsh(b.power(1 - 2 * alpha) - v.conj().T @ v))
        assert gap1 >= -1e-9
        xxs = psd_decompose(x @ x.conj().T)
        gap2 = np.min(np.linalg.eigvalsh(xxs.power(1 - 2 * alpha) - v @ v.conj().T))
        assert gap2 >= -1e-9


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_douglas_decides_at_every_scale(scale):
    # the defect and its scale are Frobenius norms whose squares would underflow at 1e-170 and overflow at 1e160
    with pytest.raises(NotMajorizedError):
        douglas_solve(cdiag(0, 1) * scale, cdiag(1, 0) * scale)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    z = douglas_solve(x * scale, y * scale)
    assert approx_equal(z.conj().T @ y, x)


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_power_factorize_decides_at_every_scale(scale):
    # B = diag(4, 1) scale dominates X*X for X = diag(1, 1/2) sqrt(scale), and not for 3 X
    b = psd_decompose(cdiag(4, 1) * scale)
    x = cdiag(1, 0.5) * np.sqrt(scale)
    v = power_factorize(x, b, 0.25)
    assert approx_equal(v @ b.power(0.25) / np.sqrt(scale), x / np.sqrt(scale))
    with pytest.raises(ValueError):
        power_factorize(3 * x, b, 0.25)


def test_douglas_decides_and_solves_from_one_svd(monkeypatch):
    # the null-space decision and Y^dagger come from one SVD, so they agree on the rank of Y; the reference is
    # Z = (X pinv(Y))* with pinv cutting at the same rank_rtol, and NotMajorizedError is raised exactly when
    # a rank-deficient Y meets an X that is not W* Y
    pinv = np.linalg.pinv

    def no_pinv(*args, **kwargs):
        raise AssertionError("douglas_solve called np.linalg.pinv")

    monkeypatch.setattr(np.linalg, "pinv", no_pinv)
    rng = np.random.default_rng(18)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    for n in range(1, 9):
        for rank in (n, int(rng.integers(0, n))):
            y = gauss(n, rank) @ gauss(rank, n)
            for majorized in (True, False):
                x = gauss(n, n).conj().T @ y if majorized else gauss(n, n)
                for sx, sy in ((1.0, 1.0), (1e150, 1e150), (1e-150, 1e-150), (1e150, 1e-150), (1e-150, 1e150)):
                    if rank < n and not majorized:
                        with pytest.raises(NotMajorizedError):
                            douglas_solve(x * sx, y * sy)
                        continue
                    z = douglas_solve(x * sx, y * sy)
                    ref = (x * sx @ pinv(y * sy, rcond=DEFAULT_TOL.rank_rtol)).conj().T
                    assert frobenius_norm(z - ref) <= 1e-12 * frobenius_norm(ref)
