"""Wire format and tolerance policy."""

import io
import json
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
    frobenius_norm,
    read_matrix,
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
    with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
        ToleranceConfig(**{field: value})


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(atol=-1.0)
    assert DEFAULT_TOL.atol == 1e-10
    assert DEFAULT_TOL.rtol == 1e-8
    assert DEFAULT_TOL.rank_rtol == 1e-10


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


def test_frobenius_norm_is_exact_to_rounding_at_every_scale():
    m = np.array([[3, 4j], [0, -12]], dtype=np.complex128)  # ||M||_F = 13
    for scale in (1.0, 2.0**-1000, 1e-170, 1e160, 2.0**1000, 2.0**-1030, 2.0**-1070):
        assert frobenius_norm(scale * m) == pytest.approx(13 * scale, rel=1e-15)
    # a complex entry whose modulus is subnormal: a complex division by that modulus overflows to NaN
    for scale in (2.0**-1030, 2.0**-1040, 2.0**-1070):
        assert frobenius_norm(np.array([[3 + 4j, 0], [0, 0]]) * scale) == 5 * scale
    assert frobenius_norm(np.zeros((2, 2), dtype=np.complex128)) == 0.0
    assert frobenius_norm(np.zeros((0, 0), dtype=np.complex128)) == 0.0
