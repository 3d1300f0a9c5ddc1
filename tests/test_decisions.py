"""Decisions: each public entry point decides membership exactly once, and
no yes/no answer changes under A -> cA, X -> cX or unitary conjugation."""

import sys

import numpy as np
import pytest

from aspec import invert, seminorm, spectrum
from aspec.psd import psd_decompose
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


def _random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


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
                variants = [(f"A*{c:g}", c * a, x, 1.0) for c in (1e-12, 1e-8, 1e8, 1e12)]
                variants += [(f"X*{c:g}", a, c * x, c) for c in (1e-12, 1e-8, 1e8, 1e12)]
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
