"""Decisions: each public entry point decides membership exactly once, and
no yes/no answer changes under A -> cA, X -> cX or unitary conjugation."""

import sys

import numpy as np
import pytest

from aspec import invert, seminorm, spectrum
from aspec.douglas import NotMajorizedError, douglas_solve, power_factorize
from aspec.harness import CheckContext, _prop_annihilated_member_singular, generate_instance
from aspec.linalg import DEFAULT_TOL, max_abs, times_pow2, unit_scaled
from aspec.psd import NotPsdError, psd_decompose
from aspec.seminorm import random_member


def _instance():
    rng = np.random.default_rng(31)
    g, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    d = psd_decompose((g * np.array([1.4, 0.9, 0.6, 0.0, 0.0])) @ g.conj().T)
    x = random_member(d, rng)
    x = x * (0.5 / seminorm.a_seminorm(d, x).value)  # below 1, so the Neumann series converges
    lam = max(spectrum.a_spectrum(d, x).points, key=abs)
    return d, x, lam


PUBLIC_CALLS = {
    "a_seminorm": lambda d, x, lam: seminorm.a_seminorm(d, x),
    "a_seminorm_oracle": lambda d, x, lam: seminorm.a_seminorm_oracle(d, x),
    "a_adjoint": lambda d, x, lam: seminorm.a_adjoint(d, x),
    "a_invertible": lambda d, x, lam: invert.a_invertible(d, x),
    "thvn_certificate": lambda d, x, lam: invert.thvn_certificate(d, x),
    "neumann_a_inverse": lambda d, x, lam: invert.neumann_a_inverse(d, x),
    "a_spectrum": lambda d, x, lam: spectrum.a_spectrum(d, x),
    "gelfand_sequence": lambda d, x, lam: spectrum.gelfand_sequence(d, x, 8),
    "a_numerical_range": lambda d, x, lam: spectrum.a_numerical_range(d, x, 16),
    "spectrum_witness_left": lambda d, x, lam: spectrum.spectrum_witness(d, x, lam, "left"),
    "spectrum_witness_right": lambda d, x, lam: spectrum.spectrum_witness(d, x, lam, "right"),
    "boundary_mollifier": lambda d, x, lam: spectrum.boundary_mollifier(d, x, lam, [lam * (1 + t) for t in (0.1, 0.01, 0.001)]),
}


# every public call that takes a member: the calls above, the membership certificate and the radius
MEMBER_CALLS = {
    **PUBLIC_CALLS,
    "membership_certificate": lambda d, x, lam: seminorm.membership_certificate(d, x),
    "a_spectral_radius": lambda d, x, lam: spectrum.a_spectral_radius(d, x),
}


@pytest.mark.parametrize("name", list(MEMBER_CALLS))
def test_non_member_contract(name):
    """A non-member has infinite seminorm and is not invertible; every other member-taking call raises."""
    d = psd_decompose(np.diag([1.0, 0.0]).astype(complex))
    x = np.array([[0, 1], [0, 0]], dtype=complex)  # sends the null vector e2 onto the range
    if name == "a_seminorm":
        assert MEMBER_CALLS[name](d, x, 1.0) == seminorm.ASeminormValue(finite=False)
    elif name == "a_invertible":
        assert MEMBER_CALLS[name](d, x, 1.0) == invert.AInverseResult(invertible=False)
    else:
        with pytest.raises(seminorm.NotMemberError):
            MEMBER_CALLS[name](d, x, 1.0)


def _count_membership_calls(monkeypatch) -> list:
    """Wrap a_membership wherever an aspec module holds it; return the call log."""
    original = seminorm.a_membership
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "aspec" or name.startswith("aspec."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("name", list(PUBLIC_CALLS))
def test_one_membership_decision_per_public_call(name, monkeypatch):
    d, x, lam = _instance()
    calls = _count_membership_calls(monkeypatch)
    PUBLIC_CALLS[name](d, x, lam)
    assert len(calls) == 1
    # the decision reads the member's S = X 2^-k, whose largest entry modulus lies in [1/2, 1)
    assert 0.5 <= max_abs(calls[0][1]) < 1


@pytest.mark.parametrize("name", list(MEMBER_CALLS))
def test_x_is_unit_scaled_once_per_public_call(name, monkeypatch):
    d, x, lam = _instance()
    x, lam = times_pow2(x, -5), times_pow2(lam, -5)  # seminorm 2^-6, so the Neumann series converges
    assert unit_scaled(x)[1] != 0  # not already unit-scaled
    original, scaled = seminorm.unit_scaled, []

    def counted(m):
        if m.shape == x.shape and original(m)[1] != 0:  # the member's M is rank x rank, and S is unit-scaled
            scaled.append(m)
        return original(m)

    monkeypatch.setattr(seminorm, "unit_scaled", counted)
    MEMBER_CALLS[name](d, x, lam)
    assert len(scaled) == 1 and np.array_equal(scaled[0], x)


def _random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


def test_members_with_ax_zero_are_singular_at_every_rank():
    # the harness property at every rank: A X = 0 although C = Q* X Q is rounding noise rather than exactly 0
    for dim in range(2, 9):
        for rank in range(1, dim):
            _prop_annihilated_member_singular(CheckContext(seed=(47, dim, rank), dim=dim, tol=DEFAULT_TOL), rank)


def test_small_compression_above_rounding_stays_invertible():
    # C = 1e-11 is far above the rounding of forming C from X, so X is exactly invertible with the one point
    # 1e-11, and so are XP and PX, which have the same compression
    d = psd_decompose(np.diag([1.0, 0.0]).astype(np.complex128))
    x = np.diag([1e-11, 1.0]).astype(np.complex128)
    for y in (x, x @ d.power(0), d.power(0) @ x):
        assert invert.a_invertible(d, y).invertible
        assert invert.thvn_certificate(d, y) is not None
        (point,) = spectrum.a_spectrum(d, y).points
        assert point == pytest.approx(1e-11, rel=1e-12)


def _defective_members(g, rank, rng):
    """Members on the weight with eigenbasis g whose compressions are conjugated Jordan blocks:
    the nilpotent J_rank(0), and J_2(2) next to simple eigenvalues of modulus below 1."""
    dim = len(g)
    w = _random_unitary(rng, rank)
    nilpotent = np.eye(rank, k=1, dtype=complex)
    mixed = np.diag(np.r_[2.0, 2.0, rng.uniform(0.1, 0.9, rank - 2) * np.exp(2j * np.pi * rng.uniform(size=rank - 2))])
    mixed[0, 1] = 1.0
    for c0 in (nilpotent, mixed):
        blk = np.zeros((dim, dim), dtype=complex)
        blk[:rank, :rank] = w @ c0 @ w.conj().T
        blk[rank:, rank:] = rng.standard_normal((dim - rank, dim - rank))
        yield g @ blk @ g.conj().T


def _decisions(a, x):
    """Every yes/no answer and count for (A, X), plus the seminorm (None for non-members).

    For members with a nonzero weight this includes, at the largest-modulus
    spectrum point, whether a witness is found on each side and, when that
    point is not 0, the number of boundary mollifier steps.
    """
    d = psd_decompose(a)
    out = {"rank": d.rank, "member": seminorm.a_membership(d, x), "invertible": invert.a_invertible(d, x).invertible}
    if not out["member"]:
        return out, None
    spec = spectrum.a_spectrum(d, x)
    out.update(contains_zero=spec.contains_zero, points=len(spec.points))
    if spec.points:
        lam = max(spec.points, key=abs)
        out.update({side: spectrum.spectrum_witness(d, x, lam, side) is not None for side in ("left", "right")})
        if lam != 0:
            out["steps"] = len(spectrum.boundary_mollifier(d, x, lam, [lam * (1 + t) for t in (0.1, 0.01, 0.001)]))
    return out, seminorm.a_seminorm(d, x).value


def test_decisions_are_invariant_under_scaling_and_unitary_conjugation():
    rng = np.random.default_rng(2026)
    failures = []
    for dim in range(1, 9):
        for rank in range(dim + 1):
            g = _random_unitary(rng, dim)
            vals = np.zeros(dim)
            vals[:rank] = rng.uniform(0.5, 2.0, rank)
            a = (g * vals) @ g.conj().T
            # a member, a generic matrix (a non-member unless rank is 0 or dim) and, from rank 2 on, defective members
            xs = [random_member(psd_decompose(a), rng), rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))]
            if rank >= 2:
                xs += _defective_members(g, rank, np.random.default_rng([2026, dim, rank]))
            for x in xs:
                u = _random_unitary(rng, dim)
                variants = [(f"A*{c:g}", c * a, x, 1.0) for c in (1e-12, 1e-8, 1e8, 1e12, 2.0**-600, 2.0**600)]
                x_scales = (1e-12, 1e-8, 1e8, 1e12, 2.0**-1000, 2.0**-500, 2.0**500, 2.0**1000)
                variants += [(f"X*{c:g}", a, c * x, c) for c in x_scales]
                variants.append(("unitary", u.conj().T @ a @ u, u.conj().T @ x @ u, 1.0))
                base, norm = _decisions(a, x)
                for label, a2, x2, factor in variants:
                    try:
                        got, norm2 = _decisions(a2, x2)
                    except Exception as exc:  # noqa: BLE001 - a raise is one more changed answer
                        failures.append((dim, rank, label, repr(exc)))
                        continue
                    if got != base:
                        failures.append((dim, rank, label, base, got))
                    elif norm is not None and abs(norm2 - factor * norm) > 1e-7 * factor * norm:
                        failures.append((dim, rank, label, "seminorm", factor * norm, norm2))
    assert not failures, failures


@pytest.mark.filterwarnings("error")
def test_decisions_near_float_max_are_those_at_scale_one():
    # the Frobenius norm of each operand overflows, so a norm taken unscaled reads inf and accepts every defect
    a, x = generate_instance(4, 4, 3)
    d = psd_decompose(a)
    big = x * (1e308 / np.abs(x).max())
    assert invert.a_invertible(d, x).invertible and invert.a_invertible(d, big).invertible
    assert len(spectrum.a_spectrum(d, big).points) == len(spectrum.a_spectrum(d, x).points) == 4
    d1 = psd_decompose(np.diag([1.0, 0.0]).astype(complex))
    non_member = np.array([[0, 1.3e308], [0, 1.3e308]], dtype=complex)  # sends the null vector e2 onto the range
    assert not seminorm.a_membership(d1, non_member)
    with pytest.raises(NotPsdError, match="not Hermitian"):
        psd_decompose(1.5e308 * np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=complex))
    with pytest.raises(NotMajorizedError):
        douglas_solve(non_member, d1.a)  # N(Y) = span(e2), which X does not annihilate
    # an error message past float max prints a mantissa and a power of two, not inf, and raises nothing else:
    # X*X has the eigenvalue 2 (1.3e308)^2 = 1.046 2^2048
    with pytest.raises(ValueError, match=r"not dominated by B \(eigenvalue defect -1\.046 \* 2\^2048\)"):
        power_factorize(non_member, d1, 0.25)
    # both parts of 1.3e308 (1 + i) are finite, but its modulus is not: the scaling reads it on X / 2
    z = 1.3e308 + 1.3e308j
    scaled, k = unit_scaled(np.array([[z, 0], [0, 1]]))
    assert k == 1025 and 0.5 <= max_abs(scaled) < 1
    assert seminorm.a_membership(d1, np.array([[z, 0], [0, 1]]))
    assert seminorm.a_seminorm(d1, np.array([[0, z], [0, 1]])) == seminorm.ASeminormValue(finite=False)


def _outputs(a, x):
    """Every output of the member-taking calls at (A, X), for X of seminorm below 1 (so the Neumann series
    converges); the witnesses and the mollifier steps are taken at the largest spectrum point."""
    d = psd_decompose(a)
    points = spectrum.a_spectrum(d, x).points
    lam = max(points, key=abs)
    inverse, cert = invert.a_invertible(d, x), invert.thvn_certificate(d, x)
    steps = spectrum.boundary_mollifier(d, x, lam, [lam * (1 + t) for t in (0.1, 0.01, 0.001)])
    witnesses = (spectrum.spectrum_witness(d, x, lam, side) for side in ("left", "right"))
    return {
        "seminorm": seminorm.a_seminorm(d, x).value,
        "oracle": seminorm.a_seminorm_oracle(d, x),
        "adjoint": seminorm.a_adjoint(d, x),
        "inverses": (inverse.canonical, inverse.invertible_form),
        "thvn_certificate": None if cert is None else (cert.c, cert.alpha),
        "neumann": invert.neumann_a_inverse(d, x),
        "points": points,
        "witnesses": [None if w is None else (w.h, w.weight) for w in witnesses],
        "mollifier": [(s.x_n, s.left_defect, s.right_defect) for s in steps],
        "membership_certificate": seminorm.membership_certificate(d, x),
    }


def _same_bits(p, q) -> bool:
    if isinstance(p, (list, tuple)):
        return isinstance(q, (list, tuple)) and len(p) == len(q) and all(map(_same_bits, p, q))
    return (p is None) == (q is None) and (p is None or np.array_equal(p, q))


def _x_outputs(d, x):
    """(degree in X, value) of every output of the member-taking calls at X of finite degree, and the decisions.

    The witnesses are taken at the largest spectrum point lam and the mollifier step at 1.5 lam.
    """
    spec = spectrum.a_spectrum(d, x)
    lam = max(spec.points, key=abs)
    inverse, cert = invert.a_invertible(d, x), invert.thvn_certificate(d, x)
    polygon = spectrum.a_numerical_range(d, x, 16)
    (step,) = spectrum.boundary_mollifier(d, x, lam, [1.5 * lam])
    witnesses = [spectrum.spectrum_witness(d, x, lam, side) for side in ("left", "right")]
    return {
        "seminorm": (1, seminorm.a_seminorm(d, x).value),
        "oracle": (1, seminorm.a_seminorm_oracle(d, x)),
        "adjoint": (1, seminorm.a_adjoint(d, x)),
        "membership_certificate": (1, seminorm.membership_certificate(d, x)),
        "points": (1, spec.points),
        "radius": (1, spec.radius),
        "gelfand": (1, spectrum.gelfand_sequence(d, x, 16)),
        "support": (1, polygon.support),
        "vertices": (1, polygon.vertices),
        "defects": (1, (step.left_defect, step.right_defect)),
        "canonical": (-1, inverse.canonical),
        "alpha": (-2, None if cert is None else cert.alpha),
        "witnesses": (0, [None if w is None else (w.h, w.weight) for w in witnesses]),
        "x_n": (0, step.x_n),
        "decisions": (0, [seminorm.a_membership(d, x), inverse.invertible, spec.contains_zero]),
    }


def test_outputs_under_x_times_powers_of_two_scale_bit_for_bit():
    # a Member is built on X 2^-k once, and unit_scaled(2^j X) is unit_scaled(X) to the bit: every output of
    # degree deg in X is the one at X times 2^(deg j), wherever that is finite, odd j included
    failures = []
    for seed in range(40):
        a, x = generate_instance(5, 3, seed)
        d = psd_decompose(a)
        base = _x_outputs(d, x)
        for j in (1, -1, 3, 300, -300, 500, -600, 601):
            got = _x_outputs(d, times_pow2(x, j))
            for name, (degree, want) in base.items():
                if degree == 0 or want is None:
                    same = _same_bits(got[name][1], want)
                else:
                    with np.errstate(over="ignore"):  # a reference past float max reads inf, and is not compared
                        want = times_pow2(np.asarray(want), degree * j)
                    value, finite = np.asarray(got[name][1]), np.isfinite(want)
                    same = value.shape == want.shape and np.array_equal(value[finite], want[finite])
                if not same:
                    failures.append((seed, j, name))
    assert not failures, failures


def test_outputs_under_a_times_2_to_the_600_keep_their_bits():
    # psd_decompose solves unit_scaled(A), so under A -> 2^k A, k a multiple of 4, the eigenvectors keep their
    # bits and L^(1/2) scales by exactly 2^(k/2): every output is that at A, but the witness weight f(A) times
    # 2^k and the membership certificate, of degree 1/4 in A, times 2^(k/4)
    pairs = [(dim, rank) for dim in range(1, 7) for rank in range(1, dim + 1)]
    failures, found = [], 0
    for i, (dim, rank) in enumerate(pairs * 2):
        a, x = generate_instance(dim, rank, 3000 + i)
        x = x * (0.5 / seminorm.a_seminorm(psd_decompose(a), x).value)
        base = _outputs(a, x)
        found += sum(w is not None for w in base["witnesses"])
        for k in (600, -600):
            want = dict(base)
            want["witnesses"] = [None if w is None else (w[0], times_pow2(w[1], k)) for w in base["witnesses"]]
            want["membership_certificate"] = times_pow2(base["membership_certificate"], k // 4)
            got = _outputs(times_pow2(a, k), x)
            failures += [(dim, rank, k, name) for name in want if not _same_bits(got[name], want[name])]
    assert not failures, failures
    assert found > len(pairs) * 2, found

