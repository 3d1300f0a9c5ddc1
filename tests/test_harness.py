"""Instance generator and property-suite machinery."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from aspec.harness import (
    PROPERTIES,
    generate_instance,
    run_property_suite,
)
from aspec.psd import psd_decompose
from aspec.seminorm import _complex_gaussian, a_membership


def test_generator_full_rank_spec():
    a, _ = generate_instance(2, 2, 1)
    d = psd_decompose(a)
    assert d.rank == 2
    x = _complex_gaussian(np.random.default_rng(1), (2, 2))  # raw, not built as a member
    assert a_membership(d, x)  # full-rank weight: everything is a member


def test_generator_zero_rank():
    a, _ = generate_instance(4, 0, 2)
    assert np.all(a == 0)
    from aspec.seminorm import a_seminorm

    value = a_seminorm(psd_decompose(a), _complex_gaussian(np.random.default_rng(2), (4, 4)))
    assert value.finite and value.value == 0.0


def test_generator_draws_a_member():
    a, x = generate_instance(3, 2, 42)
    d = psd_decompose(a)
    assert d.rank == 2
    assert a_membership(d, x)


def test_generator_determinism():
    a1, x1 = generate_instance(5, 3, 99)
    a2, x2 = generate_instance(5, 3, 99)
    assert np.array_equal(a1, a2)
    assert np.array_equal(x1, x2)


def test_generator_validation():
    with pytest.raises(ValueError, match="rank must lie in"):
        generate_instance(2, 3, 0)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        generate_instance(0, 0, 0)


def test_registry_size():
    assert len(PROPERTIES) >= 12


def test_smoke_run_and_determinism():
    reports = run_property_suite(trials=1, dims=(2,), seed=7)
    assert len(reports) >= 12
    assert all(r.trials == 1 for r in reports)
    again = run_property_suite(trials=1, dims=(2,), seed=7)

    def strip(rs):
        return [
            {**asdict(r), "elapsed_ms": None}
            for r in rs
        ]

    assert json.dumps(strip(reports)) == json.dumps(strip(again))


@pytest.mark.parametrize(
    "kwargs, name",
    [({"dims": ()}, "dims"), ({"dims": (0,)}, "dims"), ({"dims": (2, -3)}, "dims"), ({"seed": -1}, "seed")],
    ids=["no-dims", "dim-0", "dim-minus-3", "seed-minus-1"],
)
def test_suite_rejects_arguments_that_check_nothing_or_cannot_seed(kwargs, name):
    # no dims would report a pass that checked nothing, and dim 0 or a negative seed is bad input, not a property failure
    with pytest.raises(ValueError, match=f"^{name} must"):
        run_property_suite(trials=1, **kwargs)


def test_suite_passes_on_modest_run():
    reports = run_property_suite(trials=4, dims=(2, 3, 4), seed=2024)
    failing = [(r.suite, [asdict(f) for f in r.failures[:2]]) for r in reports if not r.passed]
    assert not failing, failing


def test_suite_passes_at_dim_one():
    reports = run_property_suite(trials=10, dims=(1,))
    failing = [(r.suite, [asdict(f) for f in r.failures[:2]]) for r in reports if not r.passed]
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
        assert [asdict(f) for f in r1.failures] == [asdict(f) for f in r2.failures]
    json.dumps([asdict(r) for r in first])  # must not raise
