"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The shared pool holds 504 seeded member instances covering
dims 2..8 with ranks cycling through 0..dim.
"""

import json
import time

import numpy as np
import pytest

from aspec.cli import main
from aspec.harness import CheckContext, RandomInstanceSpec, _hausdorff, generate_instance
from aspec.invert import a_invertible, neumann_a_inverse, thvn_certificate
from aspec.linalg import DEFAULT_TOL, max_abs
from aspec.omega import demo_function, demo_weight, diagonal_truncation
from aspec.psd import psd_decompose
from aspec.seminorm import a_adjoint, a_seminorm, a_seminorm_oracle, random_member
from aspec.spectrum import (
    a_numerical_range,
    a_spectral_radius,
    a_spectrum,
    convex_hull,
    gelfand_sequence,
    spectrum_witness,
)

DIMS = (2, 3, 4, 5, 6, 7, 8)
PER_DIM = 72  # 7 dims x 72 = 504 instances
BASE_SEED = 20_240_101


def _ok(num: int, name: str, detail: str = ""):
    suffix = f" — {detail}" if detail else ""
    print(f"criterion {num:02d} ({name}): PASS{suffix}")


@pytest.fixture(scope="module")
def pool():
    instances = []
    for dim in DIMS:
        for i in range(PER_DIM):
            rank = i % (dim + 1)  # ranks cycle through 0..dim
            spec = RandomInstanceSpec(dim=dim, rank=rank, member_only=True, seed=BASE_SEED + 1000 * dim + i)
            a, x = generate_instance(spec)
            instances.append((spec, psd_decompose(a), x))
    assert len(instances) >= 500
    return instances


@pytest.fixture(scope="module")
def classical_pool():
    """A = identity with a normal X whose spectrum hull is non-degenerate."""
    instances = []
    idx = 0
    for dim in DIMS:
        for i in range(29):  # 7 x 29 = 203 instances
            ctx = CheckContext(seed=(BASE_SEED, 9999, idx, dim), dim=dim, tol=DEFAULT_TOL)
            x = ctx.normal_matrix()
            instances.append((psd_decompose(np.eye(dim, dtype=np.complex128)), x))
            idx += 1
    assert len(instances) >= 200
    return instances


def test_criterion_01_seminorm_oracle_agreement(pool):
    start = time.perf_counter()
    worst = 0.0
    for _, dec, x in pool:
        value = a_seminorm(dec, x).value
        oracle = a_seminorm_oracle(dec, x)
        dev = abs(value - oracle) / max(1.0, value)
        worst = max(worst, dev)
        assert dev <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(1, "seminorm oracle agreement", f"max relative deviation {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_compression_spectrum(pool):
    for _, dec, x in pool:
        px = dec.power(0) @ x
        tau = 1e-7 * float(np.linalg.norm(px, 2))
        spec_pts = [z for z in a_spectrum(dec, x).points if abs(z) > tau]
        eig_pts = [complex(z) for z in np.linalg.eigvals(px) if abs(z) > tau]
        for z in spec_pts:
            assert any(abs(z - w) <= tau for w in eig_pts), (z, eig_pts)
        for w in eig_pts:
            assert any(abs(z - w) <= tau for z in spec_pts), (w, spec_pts)
    _ok(2, "compression spectrum", f"{len(pool)} instances")


def test_criterion_03_invertibility_equivalences(pool):
    n_invertible = 0
    for _, dec, x in pool:
        res = a_invertible(dec, x)
        cert = thvn_certificate(dec, x)
        zero_in = a_spectrum(dec, x).contains_zero
        assert res.invertible == (cert is not None) == (not zero_in)
        if not res.invertible:
            continue
        n_invertible += 1
        bound = 1e-8 * max(1.0, float(np.linalg.norm(dec.a, 2)))
        for y in (res.canonical, res.invertible_form):
            assert max_abs(dec.a @ x @ y - dec.a) <= bound
            assert max_abs(dec.a @ y @ x - dec.a) <= bound
        assert np.linalg.svd(res.invertible_form, compute_uv=False)[-1] > 1e-10
    _ok(3, "invertibility equivalences", f"{n_invertible} invertible instances")


def test_criterion_04_product_and_duality(pool):
    exercised = 0
    for spec, dec, x in pool:
        rng = np.random.default_rng(spec.seed + 77)
        x2 = random_member(dec, rng)
        rx, r2 = a_invertible(dec, x), a_invertible(dec, x2)
        if not (rx.invertible and r2.invertible):
            continue
        exercised += 1
        bound = 1e-8 * max(1.0, float(np.linalg.norm(dec.a, 2)))
        wz = r2.canonical @ rx.canonical
        assert max_abs(dec.a @ (x @ x2) @ wz - dec.a) <= bound
        assert max_abs(dec.a @ wz @ (x @ x2) - dec.a) <= bound
        w = dec.power(-0.5) @ x.conj().T @ dec.power(0.5)
        r = dec.power(-0.5) @ rx.canonical.conj().T @ dec.power(0.5)
        assert max_abs(dec.a @ w @ r - dec.a) <= bound
        assert max_abs(dec.a @ r @ w - dec.a) <= bound
    assert exercised >= 300
    _ok(4, "product and duality", f"{exercised} instances with both inverses")


def test_criterion_05_neumann_inverse(pool):
    for _, dec, x in pool:
        value = a_seminorm(dec, x).value
        small = x * (0.9 / value) if value > 0.9 else x
        y = neumann_a_inverse(dec, small)
        one_minus = np.eye(dec.dim) - small
        bound = 1e-8 * max(1.0, float(np.linalg.norm(dec.a, 2)))
        assert max_abs(dec.a @ one_minus @ y - dec.a) <= bound
        res = a_invertible(dec, one_minus)
        assert res.invertible
        assert max_abs(dec.a @ y - dec.a @ res.canonical) <= bound
    _ok(5, "series inverse", f"{len(pool)} instances at seminorm <= 0.9")


def test_criterion_06_radius_inequalities(pool):
    calibration = 0.0
    for _, dec, x in pool:
        r_a = a_spectral_radius(dec, x)
        r = max((abs(complex(z)) for z in np.linalg.eigvals(x)), default=0.0)
        assert r_a <= r + 1e-8
        terms = gelfand_sequence(dec, x, 64)
        assert min(terms) >= r_a - 1e-8
        value = a_seminorm(dec, x).value
        if value <= 0:
            continue
        unit = x / value
        r_unit = a_spectral_radius(dec, unit)
        terms_unit = gelfand_sequence(dec, unit, 256)
        assert min(terms_unit) >= r_unit - 1e-8
        calibration = max(calibration, abs(terms_unit[-1] - r_unit))
        assert abs(terms_unit[-1] - r_unit) <= 0.1
    _ok(6, "radius inequalities", f"calibration: max |term_256 - r| = {calibration:.3e} (tolerance 0.1)")


def test_criterion_07_witness_validity(pool, classical_pool):
    checked = 0
    for spec, dec, x in pool:
        rng = np.random.default_rng(spec.seed + 99)
        shiftless = a_spectrum(dec, x)
        # homogeneous bounds, as spectrum_witness verifies: they reject wrong states at every scale
        x_norm = a_seminorm(dec, x).value
        big = float(dec.eigvals.max()) * x_norm**2
        for lam in shiftless.points:
            for side in ("left", "right"):
                state = spectrum_witness(dec, x, lam, side)
                if state is None:
                    continue
                checked += 1
                a = dec.a
                fax = state(a @ x)
                assert abs(fax - lam) <= 1e-8 * max(1.0, abs(lam))
                assert abs(fax - lam) <= 1e-8 * x_norm
                if side == "left":
                    dev = abs(state(x.conj().T @ a @ x) - abs(fax) ** 2)
                    assert dev <= 1e-8 * max(1.0, abs(fax) ** 2)
                    assert dev <= 1e-8 * x_norm**2
                else:
                    lhs = state(a @ x @ x.conj().T @ a)
                    mid = fax * state(a @ x.conj().T @ a)
                    rhs = abs(fax) ** 2 * state(a @ a)
                    scale = max(1.0, abs(lhs))
                    assert abs(lhs - mid) <= 1e-8 * scale
                    assert abs(mid - rhs) <= 1e-8 * scale
                    assert abs(lhs - mid) <= 1e-8 * big
                    assert abs(mid - rhs) <= 1e-8 * big
                shift = x - lam * np.eye(dec.dim)
                shift_norm, a_norm = float(np.linalg.norm(shift, 2)), float(np.linalg.norm(a, 2))
                for _ in range(20):
                    y = random_member(dec, rng)
                    val = state(a @ shift @ y) if side == "right" else state(a @ y @ shift)
                    norms = float(np.linalg.norm(y, 2)) * shift_norm * a_norm
                    assert abs(val) <= 1e-7 * max(1.0, norms)
    assert checked >= 500
    # classical case: every point admits a witness on both sides
    found = total = 0
    for dec, x in classical_pool:
        for lam in a_spectrum(dec, x).points:
            for side in ("left", "right"):
                total += 1
                found += spectrum_witness(dec, x, lam, side) is not None
    assert found == total
    _ok(7, "witness validity", f"{checked} weighted witnesses; classical success {found}/{total}")


def test_criterion_08_numerical_range(pool, classical_pool):
    for _, dec, x in pool:
        if dec.rank == 0:
            continue
        poly = a_numerical_range(dec, x, 720)
        for z in a_spectrum(dec, x).points:
            assert poly.contains(z, 1e-7), (z, poly.support[:4])
    worst = 0.0
    for dec, x in classical_pool:
        poly = a_numerical_range(dec, x, 720)
        eigs = [complex(z) for z in np.linalg.eigvals(x)]
        hull = convex_hull(eigs, eps=1e-12)
        dist = _hausdorff(list(poly.vertices), hull)
        worst = max(worst, dist)
        assert dist <= 1e-6
    _ok(8, "numerical range", f"classical Hausdorff max {worst:.2e}")


def test_criterion_09_block_permanence():
    rng = np.random.default_rng(BASE_SEED + 5)
    collected = 0
    attempts = 0
    while collected < 200 and attempts < 400:
        attempts += 1
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        blocks = []
        for d in (d1, d2):
            spec = RandomInstanceSpec(dim=d, rank=int(rng.integers(1, d + 1)), member_only=True, seed=int(rng.integers(2**63)))
            blocks.append(generate_instance(spec))
        dim = d1 + d2
        a = np.zeros((dim, dim), dtype=np.complex128)
        x = np.zeros_like(a)
        a[:d1, :d1], x[:d1, :d1] = blocks[0]
        a[d1:, d1:], x[d1:, d1:] = blocks[1]
        dec = psd_decompose(a)
        res = a_invertible(dec, x)
        if not res.invertible:
            continue
        collected += 1
        off = max(max_abs(res.canonical[:d1, d1:]), max_abs(res.canonical[d1:, :d1]))
        assert off <= 1e-9, off
    assert collected >= 200
    _ok(9, "block permanence", f"{collected} invertible block instances")


def test_criterion_10_sequence_space_demo(capsys):
    code = main(["omega", "demo-e009"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Unbounded"
    assert doc["obstruction"] == "2*n"
    assert doc["a_well_supported"] is False
    for n_points in (10, 100, 1000):
        a = diagonal_truncation(demo_weight(), n_points)
        x = diagonal_truncation(demo_function(), n_points)
        dec = psd_decompose(a)
        res = a_invertible(dec, x)
        assert res.invertible
        norm = a_seminorm(dec, res.canonical).value
        assert norm >= n_points, (n_points, norm)
    with capsys.disabled():
        _ok(10, "sequence-space demo", "exact verdict; inverse seminorm grows as 10/100/1000")


def test_criterion_11_identity_collapse(classical_pool):
    rng = np.random.default_rng(BASE_SEED + 6)
    count = 0
    for dec, _ in classical_pool:
        count += 1
        dim = dec.dim
        x = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
        value = a_seminorm(dec, x).value
        assert abs(value - float(np.linalg.norm(x, 2))) <= 1e-9
        assert max_abs(a_adjoint(dec, x) - x.conj().T) <= 1e-9
        pts = sorted(a_spectrum(dec, x).points, key=lambda z: (z.real, z.imag))
        eigs = sorted((complex(z) for z in np.linalg.eigvals(x)), key=lambda z: (z.real, z.imag))
        assert len(pts) == len(eigs)
        assert max((abs(p - e) for p, e in zip(pts, eigs)), default=0.0) <= 1e-9
    assert count >= 200
    _ok(11, "identity-weight collapse", f"{count} instances")
