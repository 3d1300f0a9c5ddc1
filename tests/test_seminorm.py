"""Membership, seminorm routes, and adjoints."""

import numpy as np
import pytest

from aspec.harness import generate_instance
from aspec.linalg import approx_equal
from aspec.psd import psd_decompose
from aspec.seminorm import (
    NotMemberError,
    VectorState,
    a_adjoint,
    a_membership,
    a_seminorm,
    a_seminorm_oracle,
    is_a_selfadjoint,
    membership_certificate,
    random_member,
)

from conftest import cdiag, cmat


@pytest.fixture
def d_rank1():
    return psd_decompose(cdiag(1, 0))


def test_membership_diagonal(d_rank1):
    assert a_membership(d_rank1, cdiag(2, 3))


def test_membership_rejects_null_space_mover(d_rank1):
    x = cmat([[0, 1], [0, 0]])
    assert not a_membership(d_rank1, x)
    # tiny, yet it moves the null space: the decision must not depend on scale
    assert not a_membership(d_rank1, 1e-11 * cmat([[1, 1], [0, 1]]))
    # state-supremum oracle: mixing the e1 and e2 vector states with weights
    # (eps, 1-eps) drives f(X*AX)/f(A) = (1-eps)/eps beyond every bound
    a = d_rank1.a
    xax = x.conj().T @ a @ x
    ratios = []
    for eps in (1e-1, 1e-3, 1e-6):
        f = lambda z: eps * z[0, 0] + (1 - eps) * z[1, 1]
        ratios.append(abs(f(xax)) / abs(f(a)))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[-1] > 1e5


def test_membership_rank_one_weight():
    d = psd_decompose(cmat([[1, 1], [1, 1]]))
    # null space is span(1,-1); X maps it to (-1,0), which leaves the null space
    assert not a_membership(d, cmat([[0, 1], [0, 0]]))


def test_membership_certificate_identities():
    rng = np.random.default_rng(21)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        vals[: dim - 1] = rng.uniform(0.5, 1.5, dim - 1)
        d = psd_decompose((g * vals) @ g.conj().T)
        x = random_member(d, rng)
        u = membership_certificate(d, x)
        assert approx_equal(d.power(0.5) @ x, u @ d.power(0.25))
        c = a_seminorm(d, x).value ** 2
        assert np.min(np.linalg.eigvalsh(c * d.power(0.5) - u.conj().T @ u)) >= -1e-8 * max(1.0, c)


def test_certificate_refuses_non_member(d_rank1):
    with pytest.raises(NotMemberError):
        membership_certificate(d_rank1, cmat([[0, 1], [0, 0]]))


def test_seminorm_identity_weight_is_operator_norm():
    rng = np.random.default_rng(2)
    d = psd_decompose(np.eye(4, dtype=complex))
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    val = a_seminorm(d, x)
    assert val.finite
    assert val.value == pytest.approx(np.linalg.norm(x, 2), abs=1e-12)


def test_seminorm_diagonal(d_rank1):
    # vector-state oracle: f(X*AX)/f(A) = 4 |h1|^2 / |h1|^2 for every usable h
    val = a_seminorm(d_rank1, cdiag(2, 3))
    assert val.finite and val.value == pytest.approx(2.0, abs=1e-12)
    rng = np.random.default_rng(0)
    sup = 0.0
    for _ in range(50):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        denom = (h.conj() @ (d_rank1.a @ h)).real
        if denom < 1e-12:
            continue
        num = (h.conj() @ (cdiag(2, 3).conj().T @ d_rank1.a @ cdiag(2, 3) @ h)).real
        sup = max(sup, np.sqrt(num / denom))
    assert sup == pytest.approx(2.0, abs=1e-9)


def test_seminorm_infinite_for_non_member(d_rank1):
    val = a_seminorm(d_rank1, cmat([[0, 1], [0, 0]]))
    assert not val.finite
    assert val.value is None


def test_seminorm_zero_law(d_rank1):
    x = cmat([[0, 0], [1, 0]])  # columns land in the null space, AX = 0
    assert np.all(d_rank1.a @ x == 0)
    val = a_seminorm(d_rank1, x)
    assert val.finite and val.value == pytest.approx(0.0, abs=1e-12)


def test_seminorm_oracle_examples(d_rank1):
    d_eye = psd_decompose(np.eye(2, dtype=complex))
    unitary = cmat([[0, 1], [-1, 0]])
    assert a_seminorm_oracle(d_eye, unitary) == pytest.approx(1.0, abs=1e-12)
    assert a_seminorm_oracle(d_rank1, cdiag(2, 3)) == pytest.approx(2.0, abs=1e-12)
    d_ones = psd_decompose(cmat([[1, 1], [1, 1]]))
    assert a_seminorm_oracle(d_ones, np.eye(2, dtype=complex)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-300])
def test_oracle_matches_the_seminorm_where_x_star_a_x_leaves_float_range(scale):
    # X*AX is degree 2 in X: formed unscaled it overflows from about X * 1e154 on and underflows to 0 at X * 1e-300
    a, x = generate_instance(4, 3, 3)
    d = psd_decompose(a)
    value = a_seminorm(d, x * scale).value
    assert np.isfinite(value) and a_seminorm_oracle(d, x * scale) == pytest.approx(value, rel=1e-12, abs=0)


def test_oracle_matches_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        rank = int(rng.integers(0, dim + 1))
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        vals[:rank] = rng.uniform(0.5, 1.5, rank)
        d = psd_decompose((g * vals) @ g.conj().T)
        x = random_member(d, rng)
        value = a_seminorm(d, x).value
        assert abs(value - a_seminorm_oracle(d, x)) <= 1e-8 * max(1.0, value)


def test_submultiplicative():
    rng = np.random.default_rng(23)
    d = psd_decompose(cdiag(1.0, 0.7, 0.0))
    for _ in range(25):
        x, y = random_member(d, rng), random_member(d, rng)
        nx, ny = a_seminorm(d, x).value, a_seminorm(d, y).value
        assert a_seminorm(d, x @ y).value <= nx * ny + 1e-8 * max(1.0, nx * ny)


def test_adjoint_identity_weight():
    rng = np.random.default_rng(8)
    d = psd_decompose(np.eye(3, dtype=complex))
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert approx_equal(a_adjoint(d, x), x.conj().T)


def test_adjoint_diagonal_weight(d_rank1):
    x = cmat([[2, 0], [5, 3]])
    sharp = a_adjoint(d_rank1, x)
    assert approx_equal(sharp, cmat([[2, 0], [0, 0]]))
    assert approx_equal(d_rank1.a @ x, sharp.conj().T @ d_rank1.a)


def test_adjoint_of_projection_is_projection(d_rank1):
    assert approx_equal(a_adjoint(d_rank1, d_rank1.power(0)), d_rank1.power(0))


def test_adjoint_refuses_non_member(d_rank1):
    with pytest.raises(NotMemberError):
        a_adjoint(d_rank1, cmat([[0, 1], [0, 0]]))


def test_is_a_selfadjoint():
    eye = np.eye(2, dtype=complex)
    assert is_a_selfadjoint(eye, cmat([[1, 2], [2, 0]]))
    assert is_a_selfadjoint(cdiag(1, 0), cmat([[1, 0], [7, 2]]))
    assert not is_a_selfadjoint(eye, cmat([[0, 1], [0, 0]]))
    # A X = [[0, e], [0, 0]] is far below A and X: its norms must not underflow to the 0 <= 0 that accepts
    assert not is_a_selfadjoint(cdiag(1, 0), cmat([[0, 1e-170], [0, 1]]))


@pytest.mark.filterwarnings("error")
def test_is_a_selfadjoint_keeps_its_answer_at_every_power_of_two():
    # A X is formed from operands scaled by powers of two, so it neither overflows near float max nor underflows
    assert is_a_selfadjoint(1e308 * np.eye(3, dtype=complex), 10 * np.eye(3, dtype=complex))
    rng = np.random.default_rng(19)
    for seed in range(30):
        a, x = generate_instance(4, int(rng.integers(1, 5)), 5000 + seed)
        d = psd_decompose(a)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for y, expected in ((x + a_adjoint(d, x), True), (raw, False)):
            assert is_a_selfadjoint(a, y) is expected, seed
            for ka in (-1000, 0, 1000):
                for ky in (-1000, 0, 1000):
                    assert is_a_selfadjoint(a * 2.0**ka, y * 2.0**ky) is expected, (seed, ka, ky)


def test_random_member_is_member():
    rng = np.random.default_rng(31)
    d = psd_decompose(cdiag(2.0, 1.0, 0.0, 0.0))
    for _ in range(10):
        assert a_membership(d, random_member(d, rng))


def test_members_stay_members_where_the_defect_is_subnormal():
    # at X * 2^-1000 the entries of X are normal, but the rounding left in the membership defect Q* X N is subnormal
    for seed in range(40):
        a, x = generate_instance(5, 3, 4000 + seed)
        d = psd_decompose(a)
        assert a_membership(d, x * 2.0**-1000), seed
        assert a_seminorm(d, x * 2.0**-1000).value == pytest.approx(a_seminorm(d, x).value * 2.0**-1000, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_decisions_hold_where_squared_entries_underflow_or_overflow(scale):
    # the squares of these entries underflow to 0 at 1e-170 and overflow to inf at 1e160, so a norm
    # that squares unscaled would compare 0 <= 0 or inf <= inf and accept both pairs
    e12 = cmat([[0, 1], [0, 0]])
    d = psd_decompose(cdiag(1, 0))
    assert not a_membership(d, scale * e12)
    assert not is_a_selfadjoint(d.a, scale * e12)
    d_scaled = psd_decompose(cdiag(scale, 0))
    assert d_scaled.rank == 1
    assert not a_membership(d_scaled, e12)
    assert not is_a_selfadjoint(scale * cdiag(1, 0), e12)
    # and a member stays one, the self-adjoint projection stays self-adjoint
    assert a_membership(d, scale * cdiag(1, 2))
    assert is_a_selfadjoint(d.a, scale * cdiag(1, 0))


@pytest.mark.filterwarnings("error")
def test_outputs_past_float_max_read_inf_without_a_warning():
    # X# = A^+ X* A and U = A^(1/2) X A^(-1/4) each have one entry past float max, 1e308 2^20 and 1e308 2^5:
    # it reads inf, as a scalar output does, and the other entries keep their values
    d = psd_decompose(cdiag(1.0, 2.0**-20))
    x = cmat([[1e300, 1e308], [1e300, 1e300]])
    np.testing.assert_allclose(a_adjoint(d, x), [[1e300, 1e300 * 2.0**-20], [np.inf, 1e300]], rtol=1e-12)
    u = membership_certificate(d, x)
    np.testing.assert_allclose(u, [[1e300, np.inf], [1e300 * 2.0**-10, 1e300 * 2.0**-5]], rtol=1e-12)


def test_vector_state_needs_a_positive_weight():
    with pytest.raises(ValueError, match="^vector state needs <A h, h> > 0$"):
        VectorState(h=np.array([1.0, 0.0], dtype=complex), weight=0.0)
