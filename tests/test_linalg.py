"""Wire format and tolerance policy."""

import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aspec.douglas import douglas_solve, power_factorize
from aspec.linalg import (
    DEFAULT_TOL,
    MatrixFormatError,
    ShapeError,
    ToleranceConfig,
    approx_equal,
    max_abs,
    pow2_text,
    read_matrix,
    times_pow2,
    unit_scaled,
    write_matrix,
)
from aspec.psd import psd_decompose
from aspec.seminorm import a_membership, a_seminorm, is_a_selfadjoint

from conftest import cmat


def test_read_scalar():
    m = read_matrix(b'{"rows":1,"cols":1,"data":[[[2.0,0.0]]]}')
    assert m.shape == (1, 1)
    assert m[0, 0] == 2.0


def test_read_literal_entries():
    m = read_matrix('{"rows":2,"cols":2,"data":[[[1,0],[0,-1]],[[0,1],[1,0]]]}')
    expected = cmat([[1, -1j], [1j, 1]])
    assert np.array_equal(m, expected)


def test_read_shape_mismatch():
    with pytest.raises(MatrixFormatError):
        read_matrix('{"rows":2,"cols":1,"data":[[[1,0]]]}')
    # sizes must be JSON integers, not floats, booleans or strings
    for rows, cols in (("1.9", "true"), ('"1"', "1"), ("1", "1.0"), ("true", "1")):
        with pytest.raises(MatrixFormatError):
            read_matrix(f'{{"rows":{rows},"cols":{cols},"data":[[[1,0]]]}}')


def test_read_rejects_malformed_json():
    with pytest.raises(MatrixFormatError):
        read_matrix("{not json")


def test_read_rejects_non_finite():
    with pytest.raises(MatrixFormatError):
        read_matrix('{"rows":1,"cols":1,"data":[[[NaN,0]]]}')
    with pytest.raises(MatrixFormatError):
        read_matrix('{"rows":1,"cols":1,"data":[[["1",0]]]}')
    with pytest.raises(MatrixFormatError):  # an integer literal beyond float64
        read_matrix('{"rows":1,"cols":1,"data":[[[1%s,0]]]}' % ("0" * 400))


def test_read_rejects_bytes_that_are_not_utf8():
    # the wire format is UTF-8; a failed decode is malformed input, not a UnicodeDecodeError
    doc = '{"rows":1,"cols":1,"data":[[[2.0,0.0]]]}'
    for source in (b"\xff", io.BytesIO(b"\xff"), doc.encode("utf-16"), doc.encode("utf-16-le")):
        with pytest.raises(MatrixFormatError, match="^malformed JSON: "):
            read_matrix(source)


def test_read_rejects_nesting_too_deep_to_decode():
    # json.loads recurses once per nested array and raises RecursionError past the interpreter's limit
    deep = "[" * 100_000 + "]" * 100_000
    for doc in (deep, '{"rows": 1, "cols": 1, "data": %s}' % deep):
        with pytest.raises(MatrixFormatError, match="^malformed JSON: "):
            read_matrix(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[1]", "top-level JSON value must be an object"),
        ('{"rows":1,"cols":1}', "missing field: 'data'"),
        ('{"rows":1,"cols":1,"data":[[[1]]]}', "entry (0,0): expected [re, im] pair"),
    ],
    ids=["not-an-object", "no-data", "not-a-pair"],
)
def test_read_rejects_documents_outside_the_wire_schema(doc, message):
    with pytest.raises(MatrixFormatError, match=f"^{re.escape(message)}$"):
        read_matrix(doc)


def test_read_checks_row_lengths_before_allocating():
    # the declared shape would take 14.6 TiB, which the row lengths contradict
    with pytest.raises(MatrixFormatError, match="row 0: declared 1000000000000 cols, got 0"):
        read_matrix('{"rows": 1, "cols": 1000000000000, "data": [[]]}')


def _operand_calls():
    """One call per matrix operand of each entry point, the other operands well formed, with the name
    its errors give that operand."""
    d, ok = psd_decompose(np.eye(2)), np.eye(2, dtype=complex)
    return [
        ("weight", psd_decompose),
        ("X", lambda m: a_membership(d, m)),
        ("X", lambda m: a_seminorm(d, m)),
        ("X", lambda m: douglas_solve(m, ok)),
        ("Y", lambda m: douglas_solve(ok, m)),
        ("X", lambda m: power_factorize(m, d, 0.25)),
        ("A", lambda m: is_a_selfadjoint(m, ok)),
        ("X", lambda m: is_a_selfadjoint(ok, m)),
    ]


@pytest.mark.parametrize("shape", [(), (2,), (2, 2, 2), (1, 1, 1)], ids=["0-D", "1-D", "3-D", "3-D unit"])
def test_operands_that_are_not_matrices_raise_shape_error(shape):
    for name, call in _operand_calls():
        with pytest.raises(ShapeError, match=f"^{name} must be square"):
            call(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)])
def test_non_finite_operands_are_rejected_by_name(entry):
    # a 3 x 3 operand has the wrong size too: finiteness is checked before the shape match
    for name, call in _operand_calls():
        for n, i, j in ((2, 0, 0), (2, 0, 1), (3, 0, 1)):
            m = np.eye(n, dtype=complex)
            m[i, j] = entry
            with pytest.raises(MatrixFormatError, match=f"^{name} contains a non-finite entry"):
                call(m)


def test_empty_operands_raise_shape_error():
    for name, call in _operand_calls():
        with pytest.raises(ShapeError, match=rf"^{name} must have at least one row, got shape \(0, 0\)$"):
            call(np.zeros((0, 0), dtype=complex))


def test_shape_mismatch_names_the_shapes_in_operand_order():
    d, ok, big = psd_decompose(np.eye(2)), np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    for call, shapes in (
        (lambda: a_membership(d, big), "(3, 3) vs (2, 2)"),
        (lambda: power_factorize(big, d, 0.25), "(3, 3) vs (2, 2)"),
        (lambda: douglas_solve(big, ok), "(3, 3) vs (2, 2)"),
        (lambda: douglas_solve(ok, big), "(2, 2) vs (3, 3)"),
        (lambda: is_a_selfadjoint(big, ok), "(3, 3) vs (2, 2)"),
        (lambda: is_a_selfadjoint(ok, big), "(2, 2) vs (3, 3)"),
    ):
        with pytest.raises(ShapeError, match=rf"^shape mismatch: {re.escape(shapes)}$"):
            call()


def test_write_read_roundtrip_is_identity():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m *= np.pi  # exercise non-representable decimals
    again = read_matrix(write_matrix(m))
    assert np.array_equal(m, again)  # bit-exact


def test_write_emits_wire_schema():
    doc = json.loads(write_matrix(cmat([[1j, 2]])))
    assert doc == {"rows": 1, "cols": 2, "data": [[[0.0, 1.0], [2.0, 0.0]]]}


def test_approx_equal_examples():
    eye = np.eye(2, dtype=np.complex128)
    assert approx_equal(eye, eye)
    bumped = eye.copy()
    bumped[0, 0] += 1e-6
    assert not approx_equal(eye, bumped)
    tiny = np.zeros((2, 2), dtype=np.complex128)
    tiny_bump = tiny.copy()
    tiny_bump[0, 0] = 1e-12
    assert approx_equal(tiny, tiny_bump)


def test_approx_equal_shape_mismatch():
    with pytest.raises(ShapeError):
        approx_equal(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


@pytest.mark.parametrize("field", ["atol", "rtol", "rank_rtol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_tolerance_rejects_non_finite(field, value):
    # each derived value is read-only: no route sets it apart from t, so a non-finite one cannot get in
    # (t itself is checked in test_tolerance_out_of_range_raises)
    with pytest.raises(TypeError):
        ToleranceConfig(**{field: value})
    with pytest.raises(TypeError):
        ToleranceConfig(1e-10, **{field: value})
    with pytest.raises(ValueError):
        dataclasses.replace(DEFAULT_TOL, **{field: value})
    with pytest.raises(AttributeError):
        setattr(DEFAULT_TOL, field, value)


def test_tolerance_validation():
    assert ToleranceConfig() == DEFAULT_TOL == ToleranceConfig(1e-10)
    assert [f.name for f in dataclasses.fields(ToleranceConfig) if f.init] == ["t"]
    assert DEFAULT_TOL.t == 1e-10
    assert DEFAULT_TOL.atol == 1e-10
    assert DEFAULT_TOL.rtol.hex() == (1e-8).hex()
    assert DEFAULT_TOL.rank_rtol == 1e-10


@pytest.mark.parametrize("t", [0.0, 5e-324, 1e-19, 1e-10, 1e-4, 0.3, 1e306])
def test_one_number_sets_the_whole_policy(t):
    tol = ToleranceConfig(t)
    derived = (tol.atol, tol.rtol, tol.rank_rtol)
    assert [v.hex() for v in derived] == [t.hex(), (100 * t).hex(), t.hex()]


@pytest.mark.parametrize("t", [1e307, float("inf"), float("-inf"), float("nan"), -1e-12, -1.0])
def test_tolerance_out_of_range_raises(t):
    # 1e307 is finite, but its relative defect bound 100 t is not
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        ToleranceConfig(t)


@pytest.mark.filterwarnings("error")
def test_pow2_text_is_finite_at_every_scale():
    # the float v 2^k where it is finite, and else a mantissa in [1, 2) and a power of two, never inf
    assert pow2_text(0.75, 4) == "1.200e+01" and pow2_text(-0.75, -1074) == "-4.941e-324"
    assert pow2_text(0.75, 1024) == f"{1.5 * 2.0**1023:.3e}" == "1.348e+308"
    assert pow2_text(0.75, 1025) == "1.500 * 2^1024" and pow2_text(np.float64(-3.0), 2046) == "-1.500 * 2^2047"


small_matrices = arrays(
    np.float64,
    (2, 2),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@given(m=small_matrices, n=small_matrices)
def test_approx_equal_reflexive_symmetric(m, n):
    m = m.astype(np.complex128)
    n = n.astype(np.complex128)
    assert approx_equal(m, m)
    assert approx_equal(m, n) == approx_equal(n, m)


@pytest.mark.filterwarnings("error")
def test_times_pow2_reads_inf_past_float_max_without_a_warning():
    # a numpy array or scalar overflows to inf silently, as a Python float does, and stays exact below float max
    big = np.array([0.75, 0.5 + 1.5j, -3.0])
    assert np.array_equal(times_pow2(big, 1024), [1.5 * 2.0**1023, complex(2.0**1023, math.inf), -math.inf])
    assert times_pow2(np.float64(2.0), 1024) == times_pow2(np.complex128(2.0), 1024).real == math.inf
    assert np.array_equal(times_pow2(big, -1), big / 2) and times_pow2(2.0, 1024) == math.inf


@pytest.mark.filterwarnings("error")
def test_unit_scaled_and_times_pow2_are_exact_at_every_scale():
    m = np.array([[3, 4j], [0, -12]], dtype=np.complex128)  # max|M| = 12 = 0.75 * 2^4
    for e in (0, 1, -1, 500, -1000, 1010, -1070):  # at 2^-1070 every entry is subnormal, but a multiple of 2^-1074
        scaled, k = unit_scaled(m * 2.0**e)
        assert k == 4 + e
        assert np.array_equal(scaled, m / 16)
        assert 0.5 <= max_abs(scaled) < 1
        assert np.array_equal(times_pow2(scaled, k), m * 2.0**e)
    # exact powers of two across the whole range, each factor in two halves; a Python float reads inf past float max
    assert times_pow2(1.0, -1074) == 5e-324 and times_pow2(5e-324, 1074) == 1.0
    assert times_pow2(5e-324, 2046) == 2.0**972 and times_pow2(1.5, 1023) == 1.5 * 2.0**1023
    assert times_pow2(3.0, -1) == 1.5 and times_pow2(1.0, 1024) == math.inf
    # the zero matrix keeps k = 0
    zero, k = unit_scaled(np.zeros((2, 2), dtype=np.complex128))
    assert k == 0 and not zero.any()
    # a subnormal maximum, also as the modulus of a complex entry
    subnormal = (
        (np.diag([2.0**-1074, 3 * 2.0**-1074]), -1072, 0.75),
        (np.diag([(3 + 4j) * 2.0**-1070, 0]), -1067, 0.625),  # |3 + 4i| 2^-1070 = 0.625 2^-1067
    )
    for sub, k_sub, top in subnormal:
        scaled, k = unit_scaled(sub.astype(np.complex128))
        assert k == k_sub and max_abs(scaled) == top
        assert np.array_equal(times_pow2(scaled, k), sub)
    # a maximum near float max: the entries 2^1000 below it underflow, as documented
    big = np.array([[1.7e308, -1e308j], [1e-300, 0]])
    scaled, k = unit_scaled(big)
    assert k == 1024 and 0.5 <= max_abs(scaled) < 1
    assert np.array_equal(times_pow2(scaled[0], k), big[0]) and scaled[1, 0] == 0
