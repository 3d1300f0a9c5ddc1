"""Instance generator and property-suite machinery."""

import json

import numpy as np
import pytest

from aspec.harness import (
    PROPERTIES,
    RandomInstanceSpec,
    generate_instance,
    run_property_suite,
)
from aspec.psd import psd_decompose
from aspec.seminorm import a_membership


def test_generator_full_rank_spec():
    a, x = generate_instance(RandomInstanceSpec(dim=2, rank=2, member_only=False, seed=1))
    d = psd_decompose(a)
    assert d.rank == 2
    assert a_membership(d, x)  # full-rank weight: everything is a member


def test_generator_zero_rank():
    a, x = generate_instance(RandomInstanceSpec(dim=4, rank=0, member_only=False, seed=2))
    assert np.all(a == 0)
    from aspec.seminorm import a_seminorm

    value = a_seminorm(psd_decompose(a), x)
    assert value.finite and value.value == 0.0


def test_generator_member_only():
    a, x = generate_instance(RandomInstanceSpec(dim=3, rank=2, member_only=True, seed=42))
    d = psd_decompose(a)
    assert d.rank == 2
    assert a_membership(d, x)


def test_generator_determinism():
    spec = RandomInstanceSpec(dim=5, rank=3, member_only=True, seed=99)
    a1, x1 = generate_instance(spec)
    a2, x2 = generate_instance(spec)
    assert np.array_equal(a1, a2)
    assert np.array_equal(x1, x2)


def test_generator_validation():
    with pytest.raises(ValueError):
        RandomInstanceSpec(dim=2, rank=3, member_only=False, seed=0)
    with pytest.raises(ValueError):
        RandomInstanceSpec(dim=0, rank=0, member_only=False, seed=0)
    with pytest.raises(ValueError):
        RandomInstanceSpec(dim=2, rank=1, member_only=False, seed=0, scale=0.0)


def test_registry_size():
    assert len(PROPERTIES) >= 12


def test_smoke_run_and_determinism():
    reports = run_property_suite(trials=1, dims=(2,), seed=7)
    assert len(reports) >= 12
    assert all(r.trials == 1 for r in reports)
    again = run_property_suite(trials=1, dims=(2,), seed=7)

    def strip(rs):
        return [
            {**r.to_obj(), "elapsed_ms": None}
            for r in rs
        ]

    assert json.dumps(strip(reports)) == json.dumps(strip(again))


def test_suite_passes_on_modest_run():
    reports = run_property_suite(trials=4, dims=(2, 3, 4), seed=2024)
    failing = [(r.suite, [f.to_obj() for f in r.failures[:2]]) for r in reports if not r.passed]
    assert not failing, failing


def test_suite_passes_at_dim_one():
    reports = run_property_suite(trials=10, dims=(1,))
    failing = [(r.suite, [f.to_obj() for f in r.failures[:2]]) for r in reports if not r.passed]
    assert not failing, failing


def test_forced_failures_replay_identically():
    # zero tolerances make ordinary rounding count as failure: the failure
    # path itself must be deterministic and fully serializable
    from aspec.linalg import ToleranceConfig

    tight = ToleranceConfig(atol=0.0, rtol=0.0, rank_rtol=1e-10)
    first = run_property_suite(trials=1, dims=(3,), tol=tight, seed=11)
    second = run_property_suite(trials=1, dims=(3,), tol=tight, seed=11)
    n_failures = sum(len(r.failures) for r in first)
    assert n_failures > 0
    for r1, r2 in zip(first, second):
        assert [f.to_obj() for f in r1.failures] == [f.to_obj() for f in r2.failures]
    json.dumps([r.to_obj() for r in first])  # must not raise
