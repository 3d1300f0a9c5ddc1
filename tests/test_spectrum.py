"""Weighted spectrum, radius, Gelfand sequence, witnesses, numerical range."""

import importlib.util
import math
import os
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aspec.harness import generate_instance
from aspec.linalg import DEFAULT_TOL, ToleranceConfig, times_pow2
from aspec.psd import psd_decompose
from aspec.seminorm import (
    NotMemberError,
    VectorState,
    _require_member,
    a_adjoint,
    a_seminorm_oracle,
    random_member,
)
from aspec.spectrum import (
    _BLAS_THREAD_VARS,
    NumericalRangePolygon,
    SpectrumPointError,
    _block_size,
    _scaled_witness,
    _support_data,
    _verify_witness,
    _worker_cpus,
    a_numerical_range,
    a_spectral_radius,
    a_spectrum,
    boundary_mollifier,
    convex_hull,
    gelfand_sequence,
    spectrum_witness,
)

from conftest import cdiag, cmat


@pytest.fixture
def d_rank1():
    return psd_decompose(cdiag(1, 0))


@pytest.fixture
def d_eye():
    return psd_decompose(np.eye(3, dtype=complex))


def _match(points, expected, tol=1e-9):
    points = sorted(points, key=lambda z: (z.real, z.imag))
    expected = sorted(expected, key=lambda z: (z.real, z.imag))
    assert len(points) == len(expected), (points, expected)
    assert all(abs(p - e) <= tol for p, e in zip(points, expected)), (points, expected)


def test_spectrum_of_projection(d_rank1):
    spec = a_spectrum(d_rank1, d_rank1.power(0))
    _match(spec.points, [1.0])
    assert not spec.contains_zero
    assert spec.radius == pytest.approx(1.0)


def test_spectrum_invertible_weight_is_classical(d_eye):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    spec = a_spectrum(d_eye, x)
    _match(spec.points, [complex(z) for z in np.linalg.eigvals(x)], tol=1e-8)
    # also for a non-trivial full-rank weight: the range projection is 1
    d_full = psd_decompose(cmat([[2, 1j, 0], [-1j, 3, 0], [0, 0, 1.5]]))
    spec2 = a_spectrum(d_full, x)
    _match(spec2.points, [complex(z) for z in np.linalg.eigvals(x)], tol=1e-8)
    assert not spec2.contains_zero


def test_spectrum_can_shrink_to_zero():
    # PX is nilpotent although 5 is an ordinary eigenvalue of X
    d = psd_decompose(cdiag(1, 1, 0))
    x = cmat([[0, 1, 0], [0, 0, 0], [0, 0, 5]])
    spec = a_spectrum(d, x)
    _match(spec.points, [0.0])
    assert spec.contains_zero
    assert spec.radius == 0.0
    assert 5.0 in {round(z.real, 9) for z in np.linalg.eigvals(x)}


def test_spectrum_requires_member(d_rank1):
    with pytest.raises(NotMemberError):
        a_spectrum(d_rank1, cmat([[0, 1], [0, 0]]))


def test_radius_examples(d_rank1, d_eye):
    assert a_spectral_radius(d_rank1, cdiag(2, 3)) == pytest.approx(2.0, abs=1e-10)
    nil = cmat([[0, 0], [1, 0]])  # member: e1 -> e2 lands in the null space
    assert a_spectral_radius(d_rank1, nil) == pytest.approx(0.0, abs=1e-10)
    herm = cmat([[1, 2], [2, -1]])
    d2 = psd_decompose(np.eye(2, dtype=complex))
    assert a_spectral_radius(d2, herm) == pytest.approx(np.linalg.norm(herm, 2), abs=1e-10)


def test_gelfand_projection(d_rank1):
    assert gelfand_sequence(d_rank1, d_rank1.power(0), 8) == pytest.approx([1.0] * 8)


def test_gelfand_nilpotent():
    d = psd_decompose(np.eye(2, dtype=complex))
    terms = gelfand_sequence(d, cmat([[0, 1], [0, 0]]), 5)
    assert terms[0] == pytest.approx(1.0)
    assert terms[1:] == pytest.approx([0.0] * 4)


def test_gelfand_zero_weight():
    # every X is a member of the zero weight, with seminorm 0
    d = psd_decompose(np.zeros((2, 2), dtype=complex))
    assert gelfand_sequence(d, cmat([[1, 2], [3, 4]]), 4) == [0.0] * 4


def test_gelfand_diagonal(d_rank1):
    # compressed matrix is the scalar [2]
    assert gelfand_sequence(d_rank1, cdiag(2, 3), 6) == pytest.approx([2.0] * 6)


def test_gelfand_needs_at_least_one_term(d_rank1):
    with pytest.raises(ValueError, match="^n_max must be positive$"):
        gelfand_sequence(d_rank1, cdiag(2, 3), 0)


def test_gelfand_no_overflow_for_large_radius():
    d = psd_decompose(np.eye(2, dtype=complex))
    terms = gelfand_sequence(d, cdiag(10.0, 3.0), 256)
    assert np.isfinite(terms).all()
    assert terms[-1] == pytest.approx(10.0, rel=1e-6)


def test_gelfand_bounded_below_by_radius():
    rng = np.random.default_rng(13)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        vals[: max(1, dim - 1)] = rng.uniform(0.5, 1.5, max(1, dim - 1))
        d = psd_decompose((g * vals) @ g.conj().T)
        x = random_member(d, rng)
        r = a_spectral_radius(d, x)
        assert min(gelfand_sequence(d, x, 48)) >= r - 1e-8


def test_witness_projection(d_rank1):
    state = spectrum_witness(d_rank1, d_rank1.power(0), 1.0, "left")
    assert state is not None
    assert state(d_rank1.a @ d_rank1.power(0)) == pytest.approx(1.0)


def test_witness_classical_normal():
    d = psd_decompose(np.eye(2, dtype=complex))
    x = cdiag(2.0, -1.0 + 1.0j)
    for lam in (2.0, -1.0 + 1.0j):
        for side in ("left", "right"):
            state = spectrum_witness(d, x, lam, side)
            assert state is not None
            assert state(x) == pytest.approx(lam, abs=1e-9)
            if side == "left":
                assert state(x.conj().T @ x) == pytest.approx(abs(lam) ** 2, abs=1e-9)


def test_witness_diagonal_right(d_rank1):
    state = spectrum_witness(d_rank1, cdiag(2, 3), 2.0, "right")
    assert state is not None
    # X* (A w) = conj(lambda) (A w) with A w supported on e1
    aw = d_rank1.a @ state.h
    resid = cdiag(2, 3).conj().T @ aw - np.conj(2.0) * aw
    assert np.linalg.norm(resid) <= 1e-9


def test_witness_verification_rejects_random_states_at_every_scale():
    rng = np.random.default_rng(5)
    g, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    d = psd_decompose((g * np.array([1.5, 1.0, 0.7, 0.0, 0.0])) @ g.conj().T)
    x = random_member(d, rng)
    for scale in (1.0, 1e-9):
        lam = max(a_spectrum(d, scale * x).points, key=abs)
        member = _require_member(d, scale * x, DEFAULT_TOL)
        for _ in range(20):
            h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            h /= np.linalg.norm(h)
            for side in ("left", "right"):
                assert not _verify_witness(member, lam, side, d.range_basis.conj().T @ h)


def test_witness_is_none_when_no_candidate_verifies():
    # at t = 1e-6 the weight diag(1, 1.5e-6) keeps rank 2 but is ill-conditioned: X = L^-1/2 R diag(1, 1.001) R* L^1/2
    # has the member M = R diag(1, 1.001) R*, whose eigenvalues 1 and 1.001 merge into the one point 1.0005, since
    # sigma_min(C - 1.0005) is within the cutoff of sigma_max(C).  Yet no state has f(X) = 1.0005 within
    # rtol ||X||_A = 1e-4: the search is an outcome, not an error
    tol, weights = ToleranceConfig(1e-6), np.array([1, 1.5e-6])
    d = psd_decompose(np.diag(weights).astype(complex), tol)
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    x = ((rot @ np.diag([1, 1.001]) @ rot.T) * weights**0.5 / weights[:, None] ** 0.5).astype(complex)
    assert d.rank == 2
    (point,) = a_spectrum(d, x, tol).points
    assert point == pytest.approx(1.0005, abs=1e-9)
    for side in ("left", "right"):
        assert spectrum_witness(d, x, point, side, tol) is None


def test_witness_rejects_non_spectrum_point(d_rank1):
    with pytest.raises(ValueError):
        spectrum_witness(d_rank1, cdiag(2, 3), 9.0, "left")
    with pytest.raises(ValueError):
        spectrum_witness(d_rank1, cdiag(2, 3), 2.0, "sideways")


def test_numerical_range_classical_segment():
    d = psd_decompose(np.eye(2, dtype=complex))
    poly = a_numerical_range(d, cdiag(0.0, 1.0), 360)
    # classical range of a normal operator: conv of the spectrum, here [0, 1]
    assert len(poly.vertices) == 2
    _match(poly.vertices, [0.0, 1.0], tol=1e-9)


def test_numerical_range_projection_point(d_rank1):
    poly = a_numerical_range(d_rank1, d_rank1.power(0), 16)
    assert len(poly.vertices) == 1
    assert abs(poly.vertices[0] - 1.0) <= 1e-9


def test_numerical_range_diagonal_point(d_rank1):
    poly = a_numerical_range(d_rank1, cdiag(2, 3), 24)
    assert len(poly.vertices) == 1
    assert abs(poly.vertices[0] - 2.0) <= 1e-9


def test_numerical_range_of_the_zero_weight_is_empty():
    # no range vector, so no state: every X is a member and the polygon is empty
    poly = a_numerical_range(psd_decompose(np.zeros((2, 2), dtype=complex)), cmat([[1, 2], [3, 4]]), 8)
    assert poly == NumericalRangePolygon(directions=8, vertices=(), angles=(), support=())


def test_numerical_range_validation(d_rank1):
    with pytest.raises(ValueError):
        a_numerical_range(d_rank1, cdiag(2, 3), 2)
    with pytest.raises(NotMemberError):
        a_numerical_range(d_rank1, cmat([[0, 1], [0, 0]]), 8)


def test_numerical_range_contains_spectrum():
    rng = np.random.default_rng(29)
    for _ in range(15):
        dim = int(rng.integers(2, 6))
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        vals[: max(1, dim - 1)] = rng.uniform(0.5, 1.5, max(1, dim - 1))
        d = psd_decompose((g * vals) @ g.conj().T)
        x = random_member(d, rng)
        poly = a_numerical_range(d, x, 72)
        slack = 1e-7 * max(1.0, float(np.linalg.norm(d.a @ x, 2)))
        for z in a_spectrum(d, x).points:
            assert poly.contains(z, slack)


def _numrange_cases():
    """(weight, member) pairs of ranks 1-6: non-normal random members, and
    diagonal members with repeated entries, whose H(theta) has repeated eigenvalues."""
    rng = np.random.default_rng(31)
    for rank in range(1, 7):
        dim = rank + 1
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        vals[:rank] = rng.uniform(0.5, 1.5, rank)
        d = psd_decompose((g * vals) @ g.conj().T)
        yield d, random_member(d, rng)
        entries = (1 + 2j, 1 + 2j, -1.0, -1.0, 0.5j, 3.0)[:rank]
        yield psd_decompose(cdiag(*rng.uniform(0.5, 1.5, rank), 0)), cdiag(*entries, 7.0)


@pytest.mark.parametrize("directions", [3, 7, 8, 720])
def test_numerical_range_matches_one_eigh_per_direction(directions):
    for d, x in _numrange_cases():
        member = _require_member(d, x, DEFAULT_TOL)
        m, (w, k) = times_pow2(*member.w), member.w  # M in units of X, and its unit-scaled form
        scale = float(np.linalg.norm(m, 2))
        poly = a_numerical_range(d, x, directions)
        angles, support, touch = _support_data(w, directions)
        support, touch = [times_pow2(h, k) for h in support], [times_pow2(z, k) for z in touch]
        assert list(poly.angles) == angles == [2 * np.pi * k / directions for k in range(directions)]
        assert list(poly.support) == support
        for theta, h, z in zip(angles, support, touch):
            t = np.exp(-1j * theta) * m
            ref = float(np.linalg.eigvalsh((t + t.conj().T) / 2)[-1])
            assert abs(h - ref) <= 1e-12 * scale, (directions, theta, h, ref)
            # the touching point lies on its support line
            assert abs((z * np.exp(-1j * theta)).real - h) <= DEFAULT_TOL.rtol * scale, (directions, theta, z, h)
        assert set(poly.vertices) <= set(touch)


def _support_reference(m, directions):
    """Supports and touching points with one eigh per antipodal pair of directions, as a reference."""
    re_m = (m + m.conj().T) / 2
    im_m = (m - m.conj().T) / 2j
    paired = directions % 2 == 0
    half = directions // 2 if paired else directions
    support, touch = [0.0] * directions, [0j] * directions
    for k in range(half):
        theta = 2 * np.pi * k / directions
        vals, vecs = np.linalg.eigh(math.cos(theta) * re_m + math.sin(theta) * im_m)
        ends = [(k, vals[-1], vecs[:, -1])] + ([(k + half, -vals[0], vecs[:, 0])] if paired else [])
        for i, h, u in ends:
            support[i], touch[i] = float(h), complex(np.vdot(u, m @ u))
    return support, touch


# half of it, 1283, is a multiple of no block size at ranks 1-16, so the last stacked block is partial
_UNEVEN_DIRECTIONS = 2566


@pytest.mark.parametrize("rank", [*range(1, 9), 16, 63, 64, 65])
def test_stacked_supports_equal_one_eigh_per_direction(rank):
    rng = np.random.default_rng(100 + rank)
    ms = [rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))]
    if rank <= 6:
        ms += [_require_member(d, x, DEFAULT_TOL).w[0] for d, x in _numrange_cases() if d.rank == rank]
    counts = [3, 7, 8, 72, 720]
    if rank <= 16:
        assert (_UNEVEN_DIRECTIONS // 2) % _block_size(rank)
        counts.append(_UNEVEN_DIRECTIONS)
    for m in ms:
        scale = float(np.linalg.norm(m, 2))
        for directions in counts:
            _, support, touch = _support_data(m, directions)
            ref_support, ref_touch = _support_reference(m, directions)
            assert support == ref_support, (rank, directions)
            assert max(abs(z - w) for z, w in zip(touch, ref_touch)) <= 1e-13 * scale, (rank, directions)


def _weight_of_rank(rank, rng):
    """A weight of the given rank at dim rank + 1, in a random unitary basis."""
    g, _ = np.linalg.qr(rng.standard_normal((rank + 1, rank + 1)) + 1j * rng.standard_normal((rank + 1, rank + 1)))
    return psd_decompose((g * np.r_[rng.uniform(0.5, 1.5, rank), 0.0]) @ g.conj().T)


def _force_workers(monkeypatch, workers):
    """Split the numerical range over `workers` workers whatever the machine and the size of the problem."""
    monkeypatch.setattr("aspec.spectrum._worker_cpus", lambda: workers)
    monkeypatch.setattr("aspec.spectrum._WORKER_MIN_ENTRIES", 1)


def _record_threads(monkeypatch):
    """The list of threads started from now on."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def _blocks(rank, directions):
    """Number of stacked-eigh blocks the numerical range of a rank x rank M splits into."""
    half = directions // 2 if directions % 2 == 0 else directions
    return -(-half // _block_size(rank))


def test_workers_share_cpus_only_with_a_one_thread_blas(monkeypatch):
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    for var in _BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert _worker_cpus() == 1  # the BLAS starts a thread per CPU
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert _worker_cpus() == cpus
    for var in _BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert _worker_cpus() == cpus
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    assert _worker_cpus() == 1


@pytest.mark.parametrize("rank", [1, 8, 16, 48, 64, 65])
def test_numerical_range_bits_do_not_depend_on_worker_count(monkeypatch, rank):
    rng = np.random.default_rng(200 + rank)
    d = _weight_of_rank(rank, rng)
    x = random_member(d, rng)
    # fresh result buffers hold NaN, so a slot no worker writes cannot pass for a value
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    started = _record_threads(monkeypatch)
    for directions in (3, 7, 720, 2566):
        polys = []
        for workers in (1, 2, 3, 4):
            _force_workers(monkeypatch, workers)
            started.clear()
            polys.append(a_numerical_range(d, x, directions))
            assert len(started) == min(workers, _blocks(rank, directions)) - 1, (rank, directions, workers)
            assert not any(t.is_alive() for t in started)
        assert not np.isnan(polys[0].support).any() and not np.isnan(polys[0].vertices).any()
        for poly in polys[1:]:
            assert (poly.angles, poly.support, poly.vertices) == (polys[0].angles, polys[0].support, polys[0].vertices)


def test_numerical_range_workers_outnumbering_cpus_keep_the_bits(monkeypatch):
    # eight workers on at most a few CPUs, switching threads every few microseconds
    rng = np.random.default_rng(7)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    _force_workers(monkeypatch, 1)
    expected = _support_data(m, _UNEVEN_DIRECTIONS)
    _force_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            assert _support_data(m, _UNEVEN_DIRECTIONS) == expected
    finally:
        sys.setswitchinterval(interval)


def test_small_numerical_ranges_start_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the numerical range started a thread")

    monkeypatch.setattr("aspec.spectrum._worker_cpus", lambda: 4)
    monkeypatch.setattr(threading, "Thread", refuse)
    rng = np.random.default_rng(11)
    # the ranks and direction counts of the property suite
    cases = [(rank, directions) for rank in range(2, 9) for directions in (72, 360)]
    # several blocks, but too little work to share
    cases += [(2, 4100), (6, 720)]
    for rank, directions in cases:
        d = _weight_of_rank(rank, rng)
        poly = a_numerical_range(d, random_member(d, rng), directions)
        assert len(poly.support) == directions


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_numerical_range_eigh_failure_surfaces_after_every_join(monkeypatch, failing):
    _force_workers(monkeypatch, 4)
    started = _record_threads(monkeypatch)
    caller = threading.current_thread()
    error = np.linalg.LinAlgError(f"eigh failed in the {failing}")
    eigh = np.linalg.eigh

    def failing_eigh(h):
        if (threading.current_thread() is caller) == (failing == "caller"):
            raise error
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    m = np.random.default_rng(3).standard_normal((16, 16)) + 0j
    with pytest.raises(np.linalg.LinAlgError) as info:
        _support_data(m, 720)
    assert info.value is error
    assert len(started) == min(4, _blocks(16, 720)) - 1 and not any(t.is_alive() for t in started)


@pytest.mark.parametrize("rank", [1, 16, 64, 65])
def test_numerical_range_solves_each_block_once(monkeypatch, rank):
    m = np.random.default_rng(300 + rank).standard_normal((rank, rank)) + 0j
    lock = threading.Lock()
    solved = []

    def counting_eigh(h):
        """Records the problems of one call; the values are not read, so zeros of the right shapes do."""
        with lock:
            solved.append(len(h))
        return np.zeros(h.shape[:2]), np.zeros_like(h)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for directions in (7, 720, 2566):
        half = directions // 2 if directions % 2 == 0 else directions
        for workers in (1, 2, 3, 4):
            _force_workers(monkeypatch, workers)
            solved.clear()
            _support_data(m, directions)
            assert len(solved) == _blocks(rank, directions) and sum(solved) == half, (rank, directions, workers)


def test_stacked_kernels_keep_memory_flat(monkeypatch):
    # a stack of every direction's eigenvectors at rank 64 alone would take 720 KiB; each numerical-range
    # worker holds the arrays of the one block it is solving
    rng = np.random.default_rng(47)
    d = _weight_of_rank(64, rng)
    x = random_member(d, rng)
    assert d.rank == 64
    started = _record_threads(monkeypatch)

    def numerical_range_on(workers):
        monkeypatch.setattr("aspec.spectrum._worker_cpus", lambda: workers)
        return a_numerical_range(d, x, 720)

    for run in (lambda: numerical_range_on(1), lambda: numerical_range_on(4), lambda: gelfand_sequence(d, x, 64)):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
    assert len(started) == 2 * 3  # the four-worker runs started their threads


def _gelfand_reference(d, x, n_max):
    """The root-norm sequence with one 2-norm per power, as a reference.

    Each power is divided by its 2-norm; the log of the product of those norms is kept as an integer sum of
    their frexp exponents plus a float sum of the logs of their mantissas, which lie in [1/2, 1), so the
    float sum grows with n alone and not with n |log scale|.
    """
    member = _require_member(d, x, DEFAULT_TOL)
    w = times_pow2(*member.w)  # the member's M in units of X
    terms, cur, exp_sum, log_sum, dead = [], np.eye(d.rank, dtype=complex), 0, 0.0, False
    for n in range(1, n_max + 1):
        if not dead:
            cur = cur @ w
            nrm = float(np.linalg.norm(cur, 2))
            dead = nrm == 0.0
            if not dead:
                mantissa, e = math.frexp(nrm)
                exp_sum, log_sum = exp_sum + e, log_sum + math.log(mantissa)
                cur = cur / nrm
        whole, part = divmod(exp_sum, n)
        terms.append(0.0 if dead else math.ldexp(math.exp((part * math.log(2) + log_sum) / n), whole))
    return terms


def _assert_gelfand_matches(d, x, n_max, rel=1e-13):
    terms, ref = gelfand_sequence(d, x, n_max), _gelfand_reference(d, x, n_max)
    assert len(terms) == n_max
    assert all((t == r == 0.0) or abs(t - r) <= rel * r for t, r in zip(terms, ref)), (n_max, terms, ref)
    return terms


@pytest.mark.parametrize("rank", [2, 8, 16, 48, 64])
def test_stacked_gelfand_matches_one_norm_per_power(rank):
    rng = np.random.default_rng(200 + rank)
    dim = rank + 1
    g, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = psd_decompose((g * np.r_[rng.uniform(0.5, 1.5, rank), 0.0]) @ g.conj().T)
    x = random_member(d, rng)
    block = _block_size(rank)
    for scale in (1.0, 1e-12, 1e12):
        for n_max in sorted({1, block - 1, block, block + 1, 64} - {0}):
            assert all(t > 0.0 for t in _assert_gelfand_matches(d, scale * x, n_max))
    # entries near 1e-170 square to 0, so a Frobenius rescale would end the sequence there; the
    # log-scale bookkeeping of both sides rounds in proportion to |log scale|, and so does the bound
    for scale in (1e-170, 1e150):
        assert all(t > 0.0 for t in _assert_gelfand_matches(d, scale * x, 64, rel=1e-13 * abs(math.log(scale))))


def test_gelfand_sequence_scales_bit_for_bit_with_x():
    # X -> 2^k X moves only the exponent sum E_n, by n k, so every term is 2^k times the one at X
    for i in range(40):
        a, x = generate_instance(5, 3, 900 + i)
        d = psd_decompose(a)
        base = gelfand_sequence(d, x, 64)
        assert all(t > 0.0 for t in base)
        for k in (1, -1, 300, -300, 500, -600):
            assert gelfand_sequence(d, times_pow2(x, k), 64) == [times_pow2(t, k) for t in base], (i, k)


def test_stacked_gelfand_nilpotent_members_end_in_exact_zeros():
    # C is strictly upper triangular on the range, so C^3 = 0 exactly; the zero
    # compression of the second pair vanishes from the first power on
    d3 = psd_decompose(cdiag(1, 2, 3, 0))
    x3 = cmat([[0, 1, 2, 0], [0, 0, 3, 0], [0, 0, 0, 0], [5, 6, 7, 8]])
    d1 = psd_decompose(cdiag(1, 0))
    x1 = cmat([[0, 0], [1, 0]])
    for d, x, index in ((d3, x3, 3), (d1, x1, 1)):
        for scale in (1.0, 1e-12, 1e12):
            for n_max in sorted({1, index - 1, index, index + 1, 64, _block_size(d.rank) + 1} - {0}):
                terms = _assert_gelfand_matches(d, scale * x, n_max)
                assert all(t > 0.0 for t in terms[: index - 1]) and terms[index - 1 :] == [0.0] * (n_max - index + 1)


def _quadratic_hull(points, eps):
    """convex_hull with the all-pairs second dedup pass, as a reference."""
    uniq = []
    for z in sorted(points, key=lambda w: (w.real, w.imag)):
        if not uniq or abs(z - uniq[-1]) > eps:
            uniq.append(z)
    dedup = []
    for z in uniq:
        if all(abs(z - w) > eps for w in dedup):
            dedup.append(z)
    if len(dedup) <= 2:
        return dedup

    def cross(o, p, q):
        return (p.real - o.real) * (q.imag - o.imag) - (p.imag - o.imag) * (q.real - o.real)

    lower = []
    for z in dedup:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], z) <= eps * abs(z - lower[-2]):
            lower.pop()
        lower.append(z)
    upper = []
    for z in reversed(dedup):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], z) <= eps * abs(z - upper[-2]):
            upper.pop()
        upper.append(z)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 2 else dedup[:1]


def test_convex_hull_matches_quadratic_dedup():
    eps = 1e-3
    # z3 is within eps of z1 but not of its sorted neighbour z2, so only the windowed pass removes it
    straddle = [0j, complex(0.5 * eps, 0.9), complex(0.9 * eps, 0.1 * eps), 1 + 0j, 1j]
    assert _quadratic_hull(straddle, eps) == convex_hull(straddle, eps)
    assert complex(0.9 * eps, 0.1 * eps) not in convex_hull(straddle + [-1 - 1j], eps)
    rng = np.random.default_rng(37)
    for trial in range(300):
        n_centres = int(rng.integers(1, 8))
        centres = rng.uniform(-5, 5, n_centres) * eps + 1j * rng.uniform(-5, 5, n_centres) * eps
        points = [complex(c + eps * complex(*rng.uniform(-1, 1, 2))) for c in centres for _ in range(int(rng.integers(1, 5)))]
        points += points[: int(rng.integers(0, len(points) + 1))]  # exact duplicates
        start, step = complex(*rng.uniform(-5, 5, 2)) * eps, complex(*rng.uniform(-1, 1, 2)) * eps
        points += [start + k * step for k in range(int(rng.integers(0, 6)))]  # a collinear run
        rng.shuffle(points)
        assert convex_hull(points, eps) == _quadratic_hull(points, eps), trial


def test_numerical_range_contains_matches_scalar_loop():
    rng = np.random.default_rng(41)
    outcomes = set()
    for d, x in _numrange_cases():
        poly = a_numerical_range(d, x, 72)
        reach = max(abs(h) for h in poly.support)
        for _ in range(50):
            z = complex(*rng.uniform(-1.2, 1.2, 2)) * reach
            slack = float(rng.choice([0.0, 1e-7, 0.1])) * reach
            expected = all((z * np.exp(-1j * theta)).real <= h + slack for theta, h in zip(poly.angles, poly.support))
            assert poly.contains(z, slack) is expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_mollifier_scalar_resolvent(d_rank1):
    # scalar case: the normalized inverse annihilates (2 - X) on the range exactly
    steps = boundary_mollifier(d_rank1, cdiag(2, 3), 2.0, [2 + 1 / n for n in range(1, 5)])
    for step in steps:
        assert step.left_defect == pytest.approx(0.0, abs=1e-9)
        assert step.right_defect == pytest.approx(0.0, abs=1e-9)


def test_mollifier_nilpotent_rates():
    d = psd_decompose(np.eye(2, dtype=complex))
    x = cmat([[0, 1], [0, 0]])
    approach = [1 / n for n in (2, 4, 8, 16)]
    steps = boundary_mollifier(d, x, 0.0, approach)
    lefts = [s.left_defect for s in steps]
    rights = [s.right_defect for s in steps]
    assert all(l1 > l2 for l1, l2 in zip(lefts, lefts[1:]))
    assert all(r1 > r2 for r1, r2 in zip(rights, rights[1:]))
    assert lefts[-1] < 0.1 and rights[-1] < 0.1


def test_mollifier_rejects_spectrum_point(d_rank1):
    with pytest.raises(SpectrumPointError):
        boundary_mollifier(d_rank1, cdiag(2, 3), 2.0, [2 + 1.0, 2.0])


def test_mollifier_requires_spectrum_point(d_rank1):
    with pytest.raises(ValueError):
        boundary_mollifier(d_rank1, cdiag(2, 3), 7.0, [7.5])


@pytest.mark.filterwarnings("error")
def test_numerical_range_and_mollifier_stay_finite_at_the_ends_of_float_range():
    # both read the member's unit-scaled M, so neither M + M* at 1e308 nor an inverse at 1e-310 leaves float range
    d = psd_decompose(cdiag(1, 0))
    poly = a_numerical_range(d, cdiag(1e308, 0), 8)
    assert all(math.isfinite(h) for h in poly.support) and max(poly.support) == 1e308
    assert poly.vertices == (1e308 + 0j,)
    x = cdiag(1e-310, 0)
    (lam,) = a_spectrum(d, x).points
    steps = boundary_mollifier(d, x, lam, [1.5 * lam, 1.1 * lam])
    assert len(steps) == 2 and all(math.isfinite(s.left_defect) and math.isfinite(s.right_defect) for s in steps)
    # at rank 2 the defects are not 0: still finite, and positive
    d2 = psd_decompose(cdiag(1, 1, 0))
    x2 = 1e-310 * cmat([[1, 1, 0], [0, 2, 0], [0, 0, 0]])
    steps = boundary_mollifier(d2, x2, max(a_spectrum(d2, x2).points, key=abs), [1.5 * 2e-310])
    assert all(0 < s.left_defect < math.inf and 0 < s.right_defect < math.inf for s in steps)


@pytest.mark.filterwarnings("error")
def test_spectral_parameters_that_are_not_finite_are_refused_by_name():
    # one check, Member.shift, before any LAPACK call: 1.5 lam is past float max, and so inf
    d, x = psd_decompose(cdiag(1, 0)), cdiag(1.3e308, 0)
    (lam,) = a_spectrum(d, x).points
    for bad in (math.inf, -math.inf, math.nan, complex(0, math.nan), 1.5 * lam):
        message = f"spectral parameter {re.escape(str(bad))} is not finite"
        for side in ("left", "right"):
            with pytest.raises(ValueError, match=message):
                spectrum_witness(d, x, bad, side)
        with pytest.raises(ValueError, match=message):
            boundary_mollifier(d, x, bad, [0.5 * lam])
        with pytest.raises(ValueError, match=message):
            boundary_mollifier(d, x, lam, [0.5 * lam, bad])


def test_numerical_range_vertex_count_is_scale_invariant():
    d = psd_decompose(cdiag(1, 0.8, 0.5, 0))
    x = random_member(d, np.random.default_rng(3))
    count = len(a_numerical_range(d, x, 720).vertices)
    for c in (1e-12, 1e-8, 1e8):
        assert len(a_numerical_range(d, c * x, 720).vertices) == count, c


def _brute_force_points(c, tol=DEFAULT_TOL):
    """a_spectrum's grouping of the eigenvalues of C with the rank test of every grown centroid
    taken by svd (no Bauer-Fike skip) and every mean recomputed, as a reference."""
    cut = tol.cutoff(np.linalg.svd(c, compute_uv=False).max(initial=0.0))

    def point(mu):
        return len(c) > 0 and np.linalg.svd(c - mu * np.eye(len(c)), compute_uv=False)[-1] <= cut

    zero = point(0j)
    groups = [[0j]] if zero else []
    for z in sorted(map(complex, np.linalg.eig(c)[0]), key=lambda w: (w.real, w.imag)):
        if groups:
            k = min(range(len(groups)), key=lambda i: abs(complex(np.mean(groups[i])) - z))
            if point(complex(np.mean(groups[k] + [z]))):
                groups[k].append(z)
                continue
        groups.append([z])
    points = [0j if zero and i == 0 else complex(np.mean(g)) for i, g in enumerate(groups)]
    return tuple(sorted(points, key=lambda w: (w.real, w.imag)))


def _random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _jordan(k, ev):
    return ev * np.eye(k) + np.eye(k, k=1)


def _grouping_cases(rng):
    """Compressions of rank 1-7: normal, non-normal, repeated-eigenvalue and Jordan matrices."""
    for _ in range(10):
        for r in range(1, 8):
            u = _random_unitary(rng, r)
            w = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            yield (u * (rng.standard_normal(r) + 1j * rng.standard_normal(r))) @ u.conj().T
            yield w
            repeated = rng.choice([1.0, -1.0, 2j], size=r)
            yield w @ np.diag(repeated) @ np.linalg.inv(w)
            yield (u * repeated) @ u.conj().T
            j = np.zeros((r, r), dtype=complex)
            at = 0
            while at < r:
                k = min(int(rng.integers(1, 4)), r - at)
                j[at : at + k, at : at + k] = _jordan(k, rng.choice([0.0, 1.0, 1.0 + 1e-9, -2j]))
                at += k
            yield u @ j @ u.conj().T


def test_spectrum_grouping_matches_brute_force_rank_test():
    rng = np.random.default_rng(43)
    merged = 0
    for c0 in _grouping_cases(rng):
        r = len(c0)
        d = psd_decompose(np.diag(np.r_[rng.uniform(0.5, 1.5, r), 0.0]).astype(complex))
        x = np.zeros((r + 1, r + 1), dtype=complex)
        x[:r, :r], x[r, r] = c0, 5.0
        spec = a_spectrum(d, x)
        member = _require_member(d, x, DEFAULT_TOL)  # C in units of X 2^-k, and the points scaled back
        assert spec.points == tuple(times_pow2(p, member.k) for p in _brute_force_points(member.c)), c0
        merged += len(spec.points) < r
    assert merged > 100, merged


def _jordan_member(k, ev, seed):
    """A unitarily conjugated Jordan block J_k(ev) as the compression of a member, on a rank-k weight in dim k+1."""
    rng = np.random.default_rng(seed)
    g = _random_unitary(rng, k + 1)
    vals = np.zeros(k + 1)
    vals[:k] = rng.uniform(0.5, 1.5, k)
    w = _random_unitary(rng, k)
    blk = np.zeros((k + 1, k + 1), dtype=complex)
    blk[:k, :k] = w @ _jordan(k, ev) @ w.conj().T
    blk[k, k] = 3.0
    return psd_decompose((g * vals) @ g.conj().T), g @ blk @ g.conj().T


@pytest.mark.parametrize("k, ev", [(2, 1.0), (3, 1.0), (4, 1.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0)])
def test_defective_member_has_one_point_with_witnesses(k, ev):
    for seed in range(50):
        d, x = _jordan_member(k, ev, seed)
        spec = a_spectrum(d, x)
        assert len(spec.points) == 1, (seed, spec.points)
        lam = spec.points[0]
        assert abs(lam - ev) <= 1e-12
        assert spec.contains_zero == (lam == 0) == (ev == 0)
        for side in ("left", "right"):
            assert spectrum_witness(d, x, lam, side) is not None, (seed, side)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mollifier_at_defective_point_rejects_only_the_point(k):
    for seed in range(50):
        d, x = _jordan_member(k, 1.0, seed)
        (lam,) = a_spectrum(d, x).points
        approach = [lam + t for t in (0.5, 0.25, 0.125, 0.01)]
        assert len(boundary_mollifier(d, x, lam, approach)) == len(approach)
        with pytest.raises(SpectrumPointError):
            boundary_mollifier(d, x, lam, approach + [lam])


def _rank3_member():
    rng = np.random.default_rng(47)
    g, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    vals = np.zeros(8)
    vals[:3] = rng.uniform(0.5, 1.5, 3)
    d = psd_decompose((g * vals) @ g.conj().T)
    return d, random_member(d, rng)


def test_witness_and_mollifier_work_in_range_coordinates(monkeypatch):
    import aspec.seminorm
    import aspec.spectrum

    d, x = _rank3_member()
    lam = max(a_spectrum(d, x).points, key=abs)

    def forbidden(*args, **kwargs):
        raise AssertionError("random_member called")

    monkeypatch.setattr(aspec.seminorm, "random_member", forbidden)
    monkeypatch.setattr(aspec.spectrum, "random_member", forbidden, raising=False)
    shapes = []
    unrecorded = [False]

    def reading_x(f):
        """f with its linalg calls left unrecorded: they read X itself, in the full space."""

        def wrapper(*args, **kwargs):
            unrecorded[0] = True
            try:
                return f(*args, **kwargs)
            finally:
                unrecorded[0] = False

        return wrapper

    # the membership decision and the rounding level of forming C from X, which the rank cutoff reads
    monkeypatch.setattr(aspec.spectrum, "_require_member", reading_x(aspec.spectrum._require_member))
    monkeypatch.setattr(aspec.seminorm.Member, "rounding", property(reading_x(aspec.seminorm.Member.rounding.func)))
    for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "inv", "pinv", "solve", "norm", "qr", "det"):
        original = getattr(np.linalg, name)

        def wrapper(*args, _original=original, **kwargs):
            if not unrecorded[0]:
                shapes.extend(np.shape(arg) for arg in args if isinstance(arg, np.ndarray))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    for side in ("left", "right"):
        assert spectrum_witness(d, x, lam, side) is not None
    steps = boundary_mollifier(d, x, lam, [lam * (1 + t) for t in (0.5, 0.25, 0.125)])
    assert len(steps) == 3
    assert shapes
    # every operand is rank x rank (or a vector of length rank)
    assert all(set(shape) == {d.rank} for shape in shapes), shapes


def test_mollifier_matches_full_space_inverse_and_defects():
    # every rank of dims 1-8 at three scales of X, against the canonical inverse and the state-supremum
    # seminorm in the full space.  The defects are oracled on P Z P: Z itself is a member only to rounding,
    # and at some ranks below dim its null block is noise that the membership test rejects.
    from aspec.invert import a_invertible
    from aspec.seminorm import a_seminorm

    pairs = [(dim, rank) for dim in range(1, 9) for rank in range(1, dim + 1)]
    steps_checked = 0
    for i, (dim, rank) in enumerate(pairs):
        a, x = generate_instance(dim, rank, 1300 + i)
        d = psd_decompose(a)
        for scale in (1.0, 1e-9, 1e9):
            xs = scale * x
            norm = a_seminorm(d, xs).value
            lam = max(a_spectrum(d, xs).points, key=abs)
            reach = abs(lam) or norm or 1.0
            approach = [lam + t * reach for t in (0.5, 0.25, 0.125)]
            shift = lam * np.eye(dim) - xs
            floor = 1e-12 * max(norm, abs(lam))
            for lam_n, step in zip(approach, boundary_mollifier(d, xs, lam, approach)):
                canonical = a_invertible(d, lam_n * np.eye(dim) - xs).canonical
                x_n = canonical / a_seminorm_oracle(d, canonical)
                assert np.abs(step.x_n - x_n).max() <= 1e-10 * np.abs(x_n).max(), (dim, rank, scale)
                for defect, z in ((step.left_defect, x_n @ shift), (step.right_defect, shift @ x_n)):
                    oracle = a_seminorm_oracle(d, d.power(0) @ z @ d.power(0))
                    assert abs(defect - oracle) <= max(1e-9 * oracle, floor), (dim, rank, scale, defect, oracle)
                steps_checked += 1
    assert steps_checked == 3 * 3 * len(pairs)


def _reference_witness(d, x, lam, side, tol=DEFAULT_TOL, spot_checks=20):
    """spectrum_witness with every state value taken in n x n, as a reference."""
    if d.rank == 0:
        return None
    c = d.range_basis.conj().T @ x @ d.range_basis
    radius = tol.rtol * float(np.linalg.svd(c, compute_uv=False).max())  # candidate eigenvalues lie within rtol * sigma_max(C)
    lam_r = d.range_eigvals
    member = _require_member(d, x, DEFAULT_TOL)
    m = times_pow2(*member.w)  # the member's M in units of X
    if side == "left":
        evals, evecs = np.linalg.eig(m)
        target, back = lam, lam_r**-0.5
    else:
        evals, evecs = np.linalg.eig(c.conj().T)
        target, back = np.conj(lam), lam_r**-1.0
    rng = np.random.default_rng(2024)
    a = d.a
    x_norm = float(np.linalg.svd(m, compute_uv=False).max())
    big = float(d.eigvals.max()) * x_norm**2
    for idx in np.argsort(np.abs(evals - target)):
        if abs(evals[idx] - target) > radius:
            break
        h = d.range_basis @ (back * evecs[:, idx])
        h = h / np.linalg.norm(h)
        state = VectorState(h=h, weight=float((h.conj() @ (a @ h)).real))
        fax = state(a @ x)
        ok = abs(fax - lam) <= tol.rtol * x_norm
        if ok and side == "left":
            ok = abs(state(x.conj().T @ a @ x) - abs(fax) ** 2) <= tol.rtol * x_norm**2
        elif ok:
            faxa = state(a @ x.conj().T @ a)
            ok = abs(state(a @ x @ x.conj().T @ a) - fax * faxa) <= tol.rtol * big
            ok = ok and abs(fax * faxa - abs(fax) ** 2 * state(a @ a)) <= tol.rtol * big
        shift = x - lam * np.eye(d.dim)
        for _ in range(spot_checks if ok else 0):
            y = random_member(d, rng)
            val = state(a @ shift @ y) if side == "right" else state(a @ y @ shift)
            y_member = _require_member(d, y, DEFAULT_TOL)
            y_norm = float(np.linalg.svd(times_pow2(*y_member.w), compute_uv=False).max())
            if abs(val) > tol.rtol * (x_norm + abs(lam)) * y_norm:
                ok = False
                break
        if ok:
            return state
    return None


def test_witness_found_flags_match_full_space_reference():
    pairs = [(dim, rank) for dim in range(1, 9) for rank in range(dim + 1)]
    checked = found = 0
    for i in range(60):
        dim, rank = pairs[i % len(pairs)]
        a, x = generate_instance(dim, rank, 500 + i)
        d = psd_decompose(a)
        for scale in (1.0, 1e-9, 1e9):
            xs = scale * x
            for lam in a_spectrum(d, xs).points:
                for side in ("left", "right"):
                    state = spectrum_witness(d, xs, lam, side)
                    assert (state is None) == (_reference_witness(d, xs, lam, side) is None), (i, scale, lam, side)
                    checked += 1
                    found += state is not None
    assert checked > 300 and found > checked // 2, (checked, found)


def _spot_checked_witness(d, x, lam, side, tol=DEFAULT_TOL, spot_checks=20):
    """spectrum_witness as verified before the closed-form supremum, as a reference: the same candidates
    and side identities, then spot_checks Gaussian C_Y per candidate from one generator seeded 2024.

    The draws of a candidate are taken at once; after a failure the generator is set to where a loop of
    single draws, stopping at that failure, would have left it."""
    member = _require_member(d, x, tol)
    c = times_pow2(member.c, member.k)  # the member's C in units of X
    r, lam_r = d.rank, d.range_eigvals
    cut = tol.cutoff(float(np.linalg.svd(c, compute_uv=False).max(initial=0.0)))
    shift = c - lam * np.eye(r)
    u, svals, vh = np.linalg.svd(shift)
    x_norm = float(np.linalg.svd(c * np.sqrt(lam_r)[:, None] / np.sqrt(lam_r)[None, :], compute_uv=False).max(initial=0.0))
    big = float(d.eigvals.max()) * x_norm**2
    root = np.sqrt(lam_r)
    rng = np.random.default_rng(2024)
    for idx in np.flatnonzero(svals <= cut)[::-1]:
        g = vh[idx].conj() if side == "left" else u[:, idx] / lam_r
        g = g / np.linalg.norm(g)
        lg, w = lam_r * g, float(lam_r @ np.abs(g) ** 2)
        fax = complex(lg.conj() @ (c @ g)) / w
        if abs(fax - lam) > tol.rtol * x_norm:
            continue
        if side == "left":
            if abs(float(lam_r @ np.abs(c @ g) ** 2) / w - abs(fax) ** 2) > tol.rtol * x_norm**2:
                continue
        else:
            faxxa = float(np.linalg.norm(c.conj().T @ lg)) ** 2 / w
            faxa = complex(lg.conj() @ (c.conj().T @ lg)) / w
            fa2 = float(np.linalg.norm(lg)) ** 2 / w
            if abs(faxxa - fax * faxa) > tol.rtol * big or abs(fax * faxa - abs(fax) ** 2 * fa2) > tol.rtol * big:
                continue
        start = rng.bit_generator.state
        draws = rng.standard_normal((spot_checks, 2, r, r))
        cy = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
        vals = ((cy @ g) @ (lg.conj() @ shift) if side == "right" else (cy @ (shift @ g)) @ lg.conj()) / w
        y_norms = np.linalg.svd(cy * (root[:, None] / root[None, :]), compute_uv=False)[:, 0]
        passed = np.abs(vals) <= tol.rtol * (x_norm + abs(lam)) * y_norms
        if passed.all():
            return VectorState(h=d.range_basis @ g, weight=w)
        rng.bit_generator.state = start
        rng.standard_normal((int(np.argmin(passed)) + 1, 2, r, r))
    return None


def _analysis_pairs(count):
    """The member pairs of the first count ops of the analysis-64 benchmark workload at seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [inputs.analysis_pair(1, k) for k in range(count)]


def test_witness_found_flags_match_spot_checked_verification():
    # 200 seeded instances at every point, and the analysis-64 pairs at the point that workload
    # certifies (the largest modulus), each at three scales of X
    pairs = [(dim, rank) for dim in range(1, 9) for rank in range(dim + 1)]
    cases = []
    for i in range(200):
        dim, rank = pairs[i % len(pairs)]
        a, x = generate_instance(dim, rank, 7000 + i)
        cases.append((psd_decompose(a), x, False))
    cases += [(psd_decompose(a), x, True) for a, x in _analysis_pairs(8)]
    checked = found = 0
    for d, x, largest in cases:
        for scale in (1.0, 1e-9, 1e9):
            xs = scale * x
            points = a_spectrum(d, xs).points
            for lam in [max(points, key=abs)] if largest else points:
                for side in ("left", "right"):
                    state, ref = spectrum_witness(d, xs, lam, side), _spot_checked_witness(d, xs, lam, side)
                    assert (state is None) == (ref is None), (d.dim, d.rank, scale, lam, side)
                    # and the same candidate is returned
                    assert state is None or np.array_equal(state.h, ref.h)
                    checked += 1
                    found += state is not None
    assert checked > 3000 and found > checked // 2, (checked, found)


def test_witness_supremum_bounds_drawn_members_and_is_attained():
    # from rank 2 on, where a random range vector is far from a witness and the supremum is not rounding
    rng = np.random.default_rng(61)
    for i, (dim, rank) in enumerate(((2, 2), (3, 2), (5, 3), (6, 6), (8, 5))):
        a, x = generate_instance(dim, rank, 800 + i)
        d = psd_decompose(a)
        a, q, lam_r = d.a, d.range_basis, d.range_eigvals
        root = np.sqrt(lam_r)
        lam = max(a_spectrum(d, x).points, key=abs)
        member = _require_member(d, x, DEFAULT_TOL)
        c = times_pow2(member.c, member.k)  # the member's C in units of X
        shift = x - lam * np.eye(dim)
        # 2000 members P G P in the full space, and their seminorms sigma_max(A^(1/2) Y (A^(1/2))^+)
        gauss = rng.standard_normal((2000, dim, dim)) + 1j * rng.standard_normal((2000, dim, dim))
        ys = d.power(0) @ gauss @ d.power(0)
        y_norms = np.linalg.svd(d.power(0.5) @ ys @ d.power(-0.5), compute_uv=False)[:, 0]
        for _ in range(3):
            h = q @ (rng.standard_normal(rank) + 1j * rng.standard_normal(rank))
            h /= np.linalg.norm(h)
            state = VectorState(h=h, weight=float((h.conj() @ (a @ h)).real))
            g = q.conj().T @ h
            for side in ("left", "right"):
                _, sup, k = _scaled_witness(member, lam, side, g)
                sup = times_pow2(sup, k)
                if side == "right":
                    vals = (ys @ h) @ (h.conj() @ a @ shift)
                    u, v = (c.conj().T - np.conj(lam) * np.eye(rank)) @ (lam_r * g) / root, root * g
                else:
                    vals = (h.conj() @ a @ ys) @ (shift @ h)
                    u, v = root * g, root * ((c - lam * np.eye(rank)) @ g)
                best = float(np.max(np.abs(vals) / state.weight / y_norms))
                assert best <= sup * (1 + DEFAULT_TOL.rtol), (dim, rank, side, best, sup)
                # the member whose D = L^(1/2) C_Y L^(-1/2) is u v* / (|u| |v|) attains it
                top = q @ ((u[:, None] * v.conj()[None, :]) / root[:, None] * root[None, :]) @ q.conj().T
                top /= np.linalg.norm(u) * np.linalg.norm(v)
                val = state(a @ shift @ top) if side == "right" else state(a @ top @ shift)
                assert abs(val) == pytest.approx(sup, rel=1e-12)
                assert a_seminorm_oracle(d, top) == pytest.approx(1.0, rel=1e-12)


def test_witness_supremum_implies_the_side_identities():
    # the identities _verify_witness leaves to the supremum: each defect is |f(A (X - lam) Y)| or |f(A Y (X - lam))|
    # at one member Y, so at most the supremum times ||Y||_A.  Random range vectors from rank 2 on, where the
    # defects are far from rounding.
    rng = np.random.default_rng(83)
    pairs = [(dim, rank) for dim in range(2, 9) for rank in range(2, dim + 1)]
    checked = 0
    for i in range(len(pairs) * 2):
        dim, rank = pairs[i % len(pairs)]
        a, x = generate_instance(dim, rank, 1100 + i)
        d = psd_decompose(a)
        a, q = d.a, d.range_basis
        for scale in (1.0, 1e-9, 1e9):
            xs = scale * x
            member = _require_member(d, xs, DEFAULT_TOL)
            xa = xs.conj().T @ a
            for lam in a_spectrum(d, xs).points:
                g = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
                g /= np.linalg.norm(g)
                f = VectorState(h=q @ g, weight=float(d.range_eigvals @ np.abs(g) ** 2))
                shift = xs - lam * np.eye(dim)
                identities = {
                    # Y = A and Y = X*A: f(AXA) = lam f(A^2) and f(AXX*A) = lam f(AX*A)
                    "right": [(a, f(a @ xs @ a) - lam * f(a @ a)), (xa, f(a @ xs @ xa) - lam * f(a @ xa))],
                    # Y = (lam - X)^#: f((X - lam)* A (X - lam)) = 0
                    "left": [(a_adjoint(d, -shift), f(shift.conj().T @ a @ shift))],
                }
                for side, cases in identities.items():
                    _, sup, k = _scaled_witness(member, lam, side, g)
                    sup = times_pow2(sup, k)
                    for y, defect in cases:
                        bound = sup * a_seminorm_oracle(d, y) * (1 + DEFAULT_TOL.rtol)
                        assert abs(defect) <= bound, (dim, rank, scale, lam, side, abs(defect), bound)
                        checked += 1
    assert checked > 1500, checked


@pytest.mark.filterwarnings("error")
def test_witness_is_rejected_where_the_supremum_is_subnormal():
    # A = I and X = t diag(1, 2): at t = 2^-1072 max|M| is subnormal.  h = e1 + 1e-5 e2 gives f(AX) = lam = t to
    # 1e-10 t but a supremum of about 1e-5 t, far above the bound, which read at 2^-1072 would round to 0 and pass
    d = psd_decompose(np.eye(2, dtype=complex))
    q = d.range_basis
    h = np.array([1, 1e-5], dtype=complex) / np.linalg.norm([1, 1e-5])
    for t in (1.0, 2.0**-1072):
        member = _require_member(d, t * np.diag([1, 2]).astype(complex), DEFAULT_TOL)
        for side in ("left", "right"):
            assert _verify_witness(member, t, side, q.conj().T @ np.array([1, 0], dtype=complex)), (t, side)
            assert not _verify_witness(member, t, side, q.conj().T @ h), (t, side)


def test_witness_perturbed_by_1e6_is_rejected_at_every_scale():
    # at rank 1 every range vector gives the same state, so the perturbations start at rank 2
    rng = np.random.default_rng(71)
    pairs = [(dim, rank) for dim in range(2, 9) for rank in range(2, dim + 1)]
    rejected = 0
    for i in range(len(pairs) * 2):
        dim, rank = pairs[i % len(pairs)]
        a, x = generate_instance(dim, rank, 900 + i)
        d = psd_decompose(a)
        q = d.range_basis
        for scale in (1.0, 1e-9, 1e9):
            xs = scale * x
            member = _require_member(d, xs, DEFAULT_TOL)
            for lam in a_spectrum(d, xs).points:
                for side in ("left", "right"):
                    state = spectrum_witness(d, xs, lam, side)
                    assert _verify_witness(member, lam, side, q.conj().T @ state.h)
                    step = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
                    g = q.conj().T @ state.h + 1e-6 * step / np.linalg.norm(step)
                    h = q @ g / np.linalg.norm(g)
                    assert not _verify_witness(member, lam, side, q.conj().T @ h), (i, scale, lam, side)
                    rejected += 1
    assert rejected > 1000, rejected
