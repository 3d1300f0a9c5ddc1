"""Weighted spectrum, radius, Gelfand sequence, witnesses, numerical range."""

import numpy as np
import pytest

from aspec.harness import RandomInstanceSpec, generate_instance
from aspec.linalg import DEFAULT_TOL
from aspec.psd import psd_decompose
from aspec.seminorm import NotMemberError, VectorState, compressed, random_member, range_compression
from aspec.spectrum import (
    SpectrumPointError,
    _spectrum,
    _support_data,
    _verify_witness,
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
    spec = a_spectrum(d_rank1, d_rank1.proj)
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
    assert gelfand_sequence(d_rank1, d_rank1.proj, 8) == pytest.approx([1.0] * 8)


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
    state = spectrum_witness(d_rank1, d_rank1.proj, 1.0, "left")
    assert state is not None
    assert state(d_rank1.a @ d_rank1.proj) == pytest.approx(1.0)


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
        for _ in range(20):
            h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            h /= np.linalg.norm(h)
            state = VectorState(h=h, weight=float((h.conj() @ (d.a @ h)).real))
            for side in ("left", "right"):
                assert not _verify_witness(d, scale * x, lam, side, state, DEFAULT_TOL, 5, np.random.default_rng(0))


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
    poly = a_numerical_range(d_rank1, d_rank1.proj, 16)
    assert len(poly.vertices) == 1
    assert abs(poly.vertices[0] - 1.0) <= 1e-9


def test_numerical_range_diagonal_point(d_rank1):
    poly = a_numerical_range(d_rank1, cdiag(2, 3), 24)
    assert len(poly.vertices) == 1
    assert abs(poly.vertices[0] - 2.0) <= 1e-9


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
        m = compressed(d, x)
        scale = float(np.linalg.norm(m, 2))
        poly = a_numerical_range(d, x, directions)
        angles, support, touch = _support_data(m, directions)
        assert list(poly.angles) == angles == [2 * np.pi * k / directions for k in range(directions)]
        assert list(poly.support) == support
        for theta, h, z in zip(angles, support, touch):
            t = np.exp(-1j * theta) * m
            ref = float(np.linalg.eigvalsh((t + t.conj().T) / 2)[-1])
            assert abs(h - ref) <= 1e-12 * scale, (directions, theta, h, ref)
            # the touching point lies on its support line
            assert abs((z * np.exp(-1j * theta)).real - h) <= DEFAULT_TOL.rtol * scale, (directions, theta, z, h)
        assert set(poly.vertices) <= set(touch)


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


def test_numerical_range_vertex_count_is_scale_invariant():
    d = psd_decompose(cdiag(1, 0.8, 0.5, 0))
    x = random_member(d, np.random.default_rng(3))
    count = len(a_numerical_range(d, x, 720).vertices)
    for c in (1e-12, 1e-8, 1e8):
        assert len(a_numerical_range(d, c * x, 720).vertices) == count, c


def _brute_force_points(c, tol=DEFAULT_TOL):
    """_spectrum's grouping of the eigenvalues of C with the rank test of every grown centroid
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
        spec = _spectrum(d, x, DEFAULT_TOL)
        assert spec.points == _brute_force_points(range_compression(d, x)), c0
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
    inside_membership = [False]
    membership = aspec.seminorm.a_membership

    def recorded_membership(*args, **kwargs):
        inside_membership[0] = True
        try:
            return membership(*args, **kwargs)
        finally:
            inside_membership[0] = False

    monkeypatch.setattr(aspec.seminorm, "a_membership", recorded_membership)
    for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "inv", "pinv", "solve", "norm", "qr", "det"):
        original = getattr(np.linalg, name)

        def wrapper(*args, _original=original, **kwargs):
            if not inside_membership[0]:
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
    from aspec.invert import a_invertible
    from aspec.seminorm import a_seminorm_oracle

    d, x = _rank3_member()
    lam = max(a_spectrum(d, x).points, key=abs)
    approach = [lam * (1 + t) for t in (0.5, 0.25, 0.125)]
    shift = lam * np.eye(d.dim) - x
    for lam_n, step in zip(approach, boundary_mollifier(d, x, lam, approach)):
        canonical = a_invertible(d, lam_n * np.eye(d.dim) - x).canonical
        x_n = canonical / a_seminorm_oracle(d, canonical)
        assert np.abs(step.x_n - x_n).max() <= 1e-10 * np.abs(x_n).max()
        assert step.left_defect == pytest.approx(a_seminorm_oracle(d, x_n @ shift), rel=1e-9)
        assert step.right_defect == pytest.approx(a_seminorm_oracle(d, shift @ x_n), rel=1e-9)


def _reference_witness(d, x, lam, side, tol=DEFAULT_TOL, spot_checks=20):
    """spectrum_witness with every state value taken in n x n, as a reference."""
    if d.rank == 0:
        return None
    c = d.range_basis.conj().T @ x @ d.range_basis
    radius = tol.rtol * float(np.linalg.svd(c, compute_uv=False).max())  # candidate eigenvalues lie within rtol * sigma_max(C)
    lam_r = d.range_eigvals
    if side == "left":
        evals, evecs = np.linalg.eig(compressed(d, x))
        target, back = lam, lam_r**-0.5
    else:
        evals, evecs = np.linalg.eig(c.conj().T)
        target, back = np.conj(lam), lam_r**-1.0
    rng = np.random.default_rng(2024)
    a = d.a
    x_norm = float(np.linalg.svd(compressed(d, x), compute_uv=False).max())
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
            y_norm = float(np.linalg.svd(compressed(d, y), compute_uv=False).max())
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
        a, x = generate_instance(RandomInstanceSpec(dim=dim, rank=rank, member_only=True, seed=500 + i))
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
