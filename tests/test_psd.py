"""Weight validation and spectral calculus."""

import warnings

import numpy as np
import pytest

from aspec.linalg import MatrixFormatError, approx_equal
from aspec.psd import NotPsdError, fractional_power, psd_decompose

from conftest import cdiag, cmat


def test_diagonal_weight():
    d = psd_decompose(cdiag(2, 0))
    assert approx_equal(d.power(0.5), cdiag(np.sqrt(2), 0))
    assert approx_equal(d.power(-1), cdiag(0.5, 0))
    assert approx_equal(d.power(0), cdiag(1, 0))
    assert d.rank == 1
    assert d.gap == pytest.approx(2.0)


def test_rank_one_projector_weight():
    # independent oracle: the only nonzero eigenpair is (2, (1,1)/sqrt(2))
    a = cmat([[1, 1], [1, 1]])
    v = cmat([[1], [1]]) / np.sqrt(2)
    rank_one = v @ v.conj().T
    d = psd_decompose(a)
    assert approx_equal(d.power(0.5), np.sqrt(2) * rank_one)
    assert approx_equal(d.power(-1), rank_one / 2)
    assert approx_equal(d.power(0), rank_one)
    assert d.rank == 1
    assert d.gap == pytest.approx(2.0)


def test_identity_weight():
    d = psd_decompose(np.eye(3, dtype=complex))
    for derived in (d.power(0.5), d.power(0.25), d.power(-1), d.power(-0.5), d.power(0)):
        assert approx_equal(derived, np.eye(3, dtype=complex))
    assert d.rank == 3
    assert d.gap == pytest.approx(1.0)


def test_zero_weight():
    d = psd_decompose(np.zeros((2, 2), dtype=complex))
    assert d.rank == 0
    assert d.gap == 0.0
    assert approx_equal(d.power(0), np.zeros((2, 2), dtype=complex))


def test_null_projection_is_identity_minus_range_projection():
    rng = np.random.default_rng(5)
    for dim, rank in ((1, 0), (1, 1), (3, 1), (5, 3), (4, 4)):
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        d = psd_decompose((g * np.r_[rng.uniform(0.5, 1.5, rank), np.zeros(dim - rank)]) @ g.conj().T)
        assert d.rank == rank
        assert approx_equal((np.eye(dim) - d.power(0)) @ d.a, np.zeros((dim, dim), dtype=complex))


def test_rejects_non_square():
    with pytest.raises(Exception):
        psd_decompose(np.zeros((2, 3), dtype=complex))


def test_rejects_non_hermitian():
    with pytest.raises(NotPsdError):
        psd_decompose(cmat([[0, 1], [0, 0]]))


def test_rejects_negative_eigenvalue():
    with pytest.raises(NotPsdError):
        psd_decompose(cdiag(1, -1))
    with pytest.raises(NotPsdError):
        psd_decompose(1e-12 * cdiag(1, -1))


def test_rank_is_invariant_under_large_scale():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        vals = np.zeros(8)
        vals[:4] = rng.uniform(0.5, 2.0, 4)
        assert psd_decompose(1e12 * ((g * vals) @ g.conj().T)).rank == 4


def test_clamps_slightly_negative_eigenvalue():
    d = psd_decompose(cdiag(1, -1e-12))
    assert d.rank == 1


def test_fractional_power_examples():
    assert approx_equal(fractional_power(psd_decompose(cdiag(4, 0)), 0.5), cdiag(2, 0))
    d_eye = psd_decompose(np.eye(2, dtype=complex))
    for s in (0.3, 1.0, 2.5):
        assert approx_equal(fractional_power(d_eye, s), np.eye(2, dtype=complex))
    # oracle: direct multiplication of the rank-one weight
    a = cmat([[1, 1], [1, 1]])
    assert approx_equal(fractional_power(psd_decompose(a), 2), a @ a)


def test_fractional_power_rejects_nonpositive_exponent():
    d = psd_decompose(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        fractional_power(d, 0.0)
    with pytest.raises(ValueError):
        fractional_power(d, -1.0)


def test_fractional_power_rejects_non_finite_exponent():
    d = psd_decompose(np.eye(2, dtype=complex))
    for s in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^exponent must be positive"):
            fractional_power(d, s)


@pytest.mark.parametrize("a", [[[1e308, 0], [0, 1e308]], [[1e308, 1e307], [1e307, 1e308]]], ids=["diagonal", "full"])
def test_full_rank_weight_near_float_max_keeps_its_rank(a):
    # (A + A*)/2 overflows here; A/2 + A*/2 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = psd_decompose(cmat(a))
    assert d.rank == 2
    assert np.isfinite(d.a).all() and np.isfinite(d.eigvals).all()


@pytest.mark.parametrize("c", [1e308, -1e308], ids=["positive", "negative"])
def test_weight_with_an_eigenvalue_past_float_max_is_refused_without_a_warning(c):
    # every entry is finite, but the eigenvalue 2c is not: refused before it is scaled back to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFormatError, match="eigenvalue overflow"):
            psd_decompose(cmat(c * np.ones((2, 2))))


def test_hermitian_part_has_the_bits_of_the_halved_sum_at_moderate_scales():
    # halving is exact while nothing overflows or turns subnormal, so the weights of every earlier result keep their bits
    rng = np.random.default_rng(21)
    for _ in range(200):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = g @ g.conj().T + 1e-12 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        a *= 10.0 ** rng.uniform(-280, 280)
        assert np.array_equal(psd_decompose(a).a, (a + a.conj().T) / 2)


def test_power_addition_and_null_space_stability():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        rank = int(rng.integers(0, dim + 1))
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        vals[:rank] = rng.uniform(0.5, 2.0, rank)
        a = (g * vals) @ g.conj().T
        d = psd_decompose((a + a.conj().T) / 2)
        assert approx_equal(fractional_power(d, 0.5) @ fractional_power(d, 0.5), d.a)
        for s in (0.25, 0.5, 2.0):
            again = psd_decompose(fractional_power(d, s))
            assert approx_equal(again.power(0), d.power(0))


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_non_hermitian_weight_rejected_where_squares_underflow_or_overflow(scale):
    # unscaled squares make both the Hermitian gap and ||A||_F 0 at 1e-170 and inf at 1e160
    with pytest.raises(NotPsdError, match="not Hermitian"):
        psd_decompose(scale * cmat([[1, 1], [0, 1]]))
    assert psd_decompose(scale * cdiag(1, 0)).rank == 1
