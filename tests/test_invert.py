"""Invertibility decisions, canonical inverses, series inverses, certificates."""

import numpy as np
import pytest

from aspec.harness import generate_instance
from aspec.invert import _MAX_TERMS, ConvergenceError, a_invertible, neumann_a_inverse, thvn_certificate
from aspec.linalg import DEFAULT_TOL, ToleranceConfig, approx_equal, max_abs, times_pow2
from aspec.psd import psd_decompose
from aspec.seminorm import NotMemberError, _require_member, a_seminorm, random_member

from conftest import cdiag, cmat


@pytest.fixture
def d_rank1():
    return psd_decompose(cdiag(1, 0))


@pytest.fixture
def d_rank2():
    return psd_decompose(cdiag(1, 1, 0))


def test_projection_is_invertible(d_rank1):
    res = a_invertible(d_rank1, d_rank1.power(0))
    assert res.invertible
    assert approx_equal(res.canonical, d_rank1.power(0))
    assert approx_equal(d_rank1.a @ d_rank1.power(0) @ res.canonical, d_rank1.a)


def test_singular_matrix_can_be_invertible(d_rank1):
    # hand computation: compression of diag(2,0) on the range is [2]
    res = a_invertible(d_rank1, cdiag(2, 0))
    assert res.invertible
    assert approx_equal(res.canonical, cdiag(0.5, 0))
    assert approx_equal(res.invertible_form, cdiag(0.5, 1))
    assert np.linalg.matrix_rank(res.invertible_form) == 2


def test_singular_compression_is_not_invertible(d_rank2):
    x = cmat([[0, 1, 0], [0, 0, 0], [0, 0, 5]])
    res = a_invertible(d_rank2, x)
    assert not res.invertible
    assert res.canonical is None


def test_non_member_not_invertible(d_rank1):
    assert not a_invertible(d_rank1, cmat([[0, 1], [0, 0]])).invertible


def test_two_sided_identities_hold():
    rng = np.random.default_rng(42)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        rank = int(rng.integers(1, dim + 1))
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        vals[:rank] = rng.uniform(0.5, 1.5, rank)
        d = psd_decompose((g * vals) @ g.conj().T)
        x = random_member(d, rng)
        res = a_invertible(d, x)
        if not res.invertible:
            continue
        bound = 1e-8 * max(1.0, max_abs(d.a))
        for y in (res.canonical, res.invertible_form):
            assert max_abs(d.a @ x @ y - d.a) <= bound
            assert max_abs(d.a @ y @ x - d.a) <= bound
        assert np.linalg.svd(res.invertible_form, compute_uv=False)[-1] > 1e-10


def test_neumann_trivial_cases(d_rank1):
    y = neumann_a_inverse(d_rank1, np.zeros((2, 2), dtype=complex))
    assert approx_equal(d_rank1.a @ y, d_rank1.a)  # inverse of 1 acts as 1 on the range
    d_eye = psd_decompose(np.eye(2, dtype=complex))
    assert approx_equal(neumann_a_inverse(d_eye, 0.5 * np.eye(2, dtype=complex)), 2 * np.eye(2, dtype=complex))


def test_neumann_diagonal(d_rank1):
    # scalar geometric series on the range: 1 / (1 - 0.5) = 2
    y = neumann_a_inverse(d_rank1, cdiag(0.5, 0.9))
    assert y[0, 0] == pytest.approx(2.0, abs=1e-9)
    one_minus = np.eye(2, dtype=complex) - cdiag(0.5, 0.9)
    assert approx_equal(d_rank1.a @ one_minus @ y, d_rank1.a)


def test_neumann_rejects_large_seminorm(d_rank1):
    with pytest.raises(ValueError):
        neumann_a_inverse(d_rank1, cdiag(1.5, 0))
    with pytest.raises(NotMemberError):
        neumann_a_inverse(d_rank1, cmat([[0, 1], [0, 0]]))


def test_neumann_reports_non_convergence(d_rank1):
    from aspec.invert import ConvergenceError

    # 0.999^k stays above atol 1e-10 for about 23 000 terms, past the cap of 10 000
    with pytest.raises(ConvergenceError, match="after 10000 terms"):
        neumann_a_inverse(d_rank1, cdiag(0.999, 0))


def test_neumann_takes_no_term_cap(d_rank1):
    # the cap is fixed, not a setting
    with pytest.raises(TypeError):
        neumann_a_inverse(d_rank1, cdiag(0.5, 0), DEFAULT_TOL, 10_000)
    with pytest.raises(TypeError):
        neumann_a_inverse(d_rank1, cdiag(0.5, 0), max_terms=10_000)


def test_neumann_matches_canonical():
    rng = np.random.default_rng(12)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vals = rng.uniform(0.5, 1.5, dim)
        vals[dim // 2 :] = 0
        d = psd_decompose((g * vals) @ g.conj().T)
        x = random_member(d, rng)
        norm = a_seminorm(d, x).value
        if norm > 0:
            x = x * (0.8 / norm)
        y = neumann_a_inverse(d, x)
        res = a_invertible(d, np.eye(dim, dtype=complex) - x)
        assert res.invertible
        assert approx_equal(d.a @ y, d.a @ res.canonical)


def _sigma_max(t):
    return np.linalg.svd(t, compute_uv=False).max(initial=0.0)


def _neumann_reference(d, x, tol=DEFAULT_TOL, max_terms=_MAX_TERMS, size=np.linalg.norm):
    """neumann_a_inverse with size(term) <= atol deciding the stop, as a reference: the Frobenius norm by
    default, or _sigma_max, the rule of one svd per term, which stops at the term's seminorm."""
    member = _require_member(d, x, tol)
    m = times_pow2(member.m, member.k)  # the member's M in units of X
    total = term = np.eye(d.rank, dtype=np.complex128)
    for _ in range(max_terms):
        term = term @ m
        if size(term) <= tol.atol:
            break
        total = total + term
    else:
        raise ConvergenceError("reference did not converge")
    s = np.sqrt(d.range_eigvals)
    q = d.range_basis
    return (q / s) @ total @ (s[:, None] * q.conj().T) + (np.eye(d.dim) - d.power(0))


def _neumann_cases():
    """Members at seminorms up to 0.99 and ranks 0-8, 16 and 64: random, normal with equal singular values
    (so ||T||_F = sqrt(rank) sigma_max(T), the widest gap between the two stops), nilpotent."""
    rng = np.random.default_rng(31)
    for rank in (0, 1, 2, 3, 5, 8, 16, 64):
        dim = rank + 1
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        d = psd_decompose((g * np.r_[rng.uniform(0.5, 1.5, rank), 0.0]) @ g.conj().T)
        x = random_member(d, rng)
        norm = a_seminorm(d, x).value
        for target in (0.1, 0.5, 0.9, 0.99) if rank <= 16 else (0.1, 0.5, 0.9):
            yield d, x * (target / norm) if norm > 0 else x
            yield d, target * d.power(0)
        u, _ = np.linalg.qr(rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank)))
        nil = d.range_basis @ (u @ np.triu(rng.standard_normal((rank, rank)), 1) @ u.conj().T) @ d.range_basis.conj().T
        nil_norm = a_seminorm(d, nil).value
        yield d, nil * (0.5 / nil_norm) if nil_norm else nil  # the zero member at ranks 0 and 1


@pytest.mark.parametrize("atol", [1e-10, 1e-4, 0.3])
def test_neumann_stops_on_the_frobenius_norm_with_one_svd_per_call(atol, monkeypatch):
    tol = ToleranceConfig(atol)  # rtol = 100 atol: every case stays a member, at 0.3 too
    cases = list(_neumann_cases())
    expected = [_neumann_reference(d, x, tol) for d, x in cases]
    seminorm_stop = [_neumann_reference(d, x, tol, size=_sigma_max) for d, x in cases]
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    got = [neumann_a_inverse(d, x, tol) for d, x in cases]
    monkeypatch.undo()
    assert len(calls) == len(cases)  # the member's m_svals, for the seminorm check; none in the loop
    for (d, x), y, ref, old in zip(cases, got, expected, seminorm_stop):
        assert np.array_equal(y, ref), (d.rank, atol)
        # the Frobenius stop keeps every term the seminorm stop keeps, and the extra ones bring the sum no
        # farther from the canonical inverse, decided at the default policy: at t = 0.3 the rank cutoff
        # 0.3 sigma_max would call some 1 - X singular
        canonical = a_invertible(d, np.eye(d.dim) - x).canonical
        assert max_abs(d.a @ (y - canonical)) <= max_abs(d.a @ (old - canonical)), (d.rank, atol)


def test_neumann_raises_when_max_terms_or_a_zero_atol_cuts_the_series(d_rank1):
    # 0.99^k falls below atol 1e-10 after about 2 300 terms, within the cap of _MAX_TERMS; at atol = 0 only a
    # zero term stops the series, and 0.99^10000 (about 2e-44) is not zero, so the cap cuts it
    x = cdiag(0.99, 0)
    assert np.array_equal(neumann_a_inverse(d_rank1, x), _neumann_reference(d_rank1, x))
    with pytest.raises(ConvergenceError):
        neumann_a_inverse(d_rank1, x, ToleranceConfig(0.0))


def test_neumann_at_zero_atol_stops_on_the_first_zero_term(d_rank1):
    # every term of the zero member is exactly 0, so the sum is exact after one product, even at atol = 0
    # (were the zero term not a stop, the series would run to the cap and raise)
    zero, zero_atol = np.zeros((2, 2), dtype=complex), ToleranceConfig(0.0)
    assert np.array_equal(neumann_a_inverse(d_rank1, zero, zero_atol), np.eye(2))


def test_thvn_identity_element(d_rank1):
    cert = thvn_certificate(d_rank1, np.eye(2, dtype=complex))
    assert cert is not None
    assert cert.c == pytest.approx(1.0, rel=1e-6)
    assert cert.alpha == pytest.approx(1.0, rel=1e-6)


def test_thvn_diagonal(d_rank1):
    # scalar pencils: f(X*AX)/f(A) = 4 and A^2 = (1/4) AXX*A on the range
    cert = thvn_certificate(d_rank1, cdiag(2, 0))
    assert cert.c == pytest.approx(4.0, rel=1e-6)
    assert cert.alpha == pytest.approx(0.25, rel=1e-6)


def test_thvn_fails_for_non_invertible(d_rank2):
    assert thvn_certificate(d_rank2, cmat([[0, 1, 0], [0, 0, 0], [0, 0, 5]])) is None
    with pytest.raises(NotMemberError):
        thvn_certificate(psd_decompose(cdiag(1, 0)), cmat([[0, 1], [0, 0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_thvn_certificate_exists_exactly_when_invertible_at_extreme_scales(scale):
    # the squared constants leave float range here; squared by multiplication they read inf, and raise nothing
    a, x = generate_instance(4, 3, 3)
    d = psd_decompose(a)
    invertible = a_invertible(d, x * scale).invertible
    assert invertible == a_invertible(d, x).invertible
    assert (thvn_certificate(d, x * scale) is not None) == invertible


def test_thvn_inequalities_and_equivalence():
    rng = np.random.default_rng(77)
    seen_invertible = 0
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        rank = int(rng.integers(1, dim + 1))
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        vals[:rank] = rng.uniform(0.5, 1.5, rank)
        d = psd_decompose((g * vals) @ g.conj().T)
        x = random_member(d, rng)
        res = a_invertible(d, x)
        cert = thvn_certificate(d, x)
        assert (cert is not None) == res.invertible
        if cert is None:
            continue
        seen_invertible += 1
        a = d.a
        xax = x.conj().T @ a @ x
        slack = 1e-8 * max(1.0, max_abs(a), max_abs(xax))
        assert np.min(np.linalg.eigvalsh(cert.c * a - xax)) >= -slack
        assert np.min(np.linalg.eigvalsh(xax - a / cert.c)) >= -slack
        axxa = a @ x @ x.conj().T @ a
        assert np.min(np.linalg.eigvalsh(cert.alpha * axxa - a @ a)) >= -slack
        # numpy-only reference: top eigenvalue of the pencil (L^2, L C C* L) on the
        # range, reduced to a Hermitian problem through the Cholesky factor of L C C* L
        q, lam = d.range_basis, d.range_eigvals
        comp = q.conj().T @ x @ q
        chol_inv = np.linalg.inv(np.linalg.cholesky((comp @ comp.conj().T) * lam[:, None] * lam[None, :]))
        reduced = chol_inv @ np.diag(lam**2) @ chol_inv.conj().T
        alpha_ref = np.linalg.eigvalsh((reduced + reduced.conj().T) / 2)[-1] * (1 + DEFAULT_TOL.rtol)
        assert cert.alpha == pytest.approx(alpha_ref, rel=1e-9)
    assert seen_invertible >= 20


def test_product_rule_and_duality():
    rng = np.random.default_rng(55)
    d = psd_decompose(cdiag(1.3, 0.8, 0.0, 0.0))
    for _ in range(15):
        x, y = random_member(d, rng), random_member(d, rng)
        rx, ry = a_invertible(d, x), a_invertible(d, y)
        if not (rx.invertible and ry.invertible):
            continue
        wz = ry.canonical @ rx.canonical
        assert approx_equal(d.a @ (x @ y) @ wz, d.a)
        assert approx_equal(d.a @ wz @ (x @ y), d.a)
        # transported pair through the square-root compression
        w = d.power(-0.5) @ x.conj().T @ d.power(0.5)
        r = d.power(-0.5) @ rx.canonical.conj().T @ d.power(0.5)
        assert approx_equal(d.a @ w @ r, d.a)
        assert approx_equal(d.a @ r @ w, d.a)


def test_inverse_non_uniqueness():
    rng = np.random.default_rng(66)
    d = psd_decompose(cdiag(1.0, 0.0, 0.0))
    x = random_member(d, rng)
    res = a_invertible(d, x)
    assert res.invertible
    comp = np.eye(3) - d.power(0)
    z = comp @ (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) @ comp
    y2 = res.canonical + z
    assert approx_equal(d.a @ x @ y2, d.a)
    assert approx_equal(d.a @ y2 @ x, d.a)
    assert approx_equal(d.a @ y2, d.a @ res.canonical)
