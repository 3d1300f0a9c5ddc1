"""Every public entry point decides membership exactly once."""

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
