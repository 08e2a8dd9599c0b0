"""Symbolic determinants, adjugates, and inverses on small matrices."""

from fractions import Fraction

import pytest

from scatsym.expr import (
    Const, ExprError, ONE, ZERO, add, canon, evaluate, is_provably_zero, mul,
    var,
)
from scatsym.linalg import (
    float_inverse, float_matmul, mat_vec, sym_adjugate, sym_det, sym_inverse,
)

X = var("x")
Y = var("y")


def _entry_zero(e):
    return is_provably_zero(canon(e))


def test_det_2x2_exact():
    m = [[Const(Fraction(1, 2)), X], [Y, Const(Fraction(4))]]
    det = sym_det(m)
    want = add(Const(Fraction(2)), mul(Const(Fraction(-1)), X, Y))
    assert _entry_zero(add(det, mul(Const(Fraction(-1)), want)))


def test_adjugate_identity_3x3():
    m = [[ONE, X, ZERO], [ZERO, ONE, Y], [X, ZERO, ONE]]
    det = sym_det(m)
    adj = sym_adjugate(m)
    # M . adj(M) = det(M) . I
    for i in range(3):
        prod = mat_vec(m, [adj[r][i] for r in range(3)])
        for j in range(3):
            want = det if i == j else ZERO
            assert _entry_zero(add(prod[j], mul(Const(Fraction(-1)), want)))


def test_inverse_numerically():
    m = [[Const(Fraction(2)), X], [X, Const(Fraction(3))]]
    inv = sym_inverse(m)
    pt = {"x": 0.7}
    mv = [[float(evaluate(e, pt)) for e in row] for row in m]
    iv = [[float(evaluate(e, pt)) for e in row] for row in inv]
    for i in range(2):
        for j in range(2):
            got = sum(mv[i][k] * iv[k][j] for k in range(2))
            assert got == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_singular_matrix_rejected():
    m = [[X, X], [X, X]]
    with pytest.raises(ExprError):
        sym_inverse(m)


def test_float_inverse_pivots():
    # a zero leading entry needs a row swap
    m = [[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [3.0, 1.0, 4.0]]
    inv = float_inverse(m)
    for i, row in enumerate(float_matmul(inv, m)):
        for j, v in enumerate(row):
            assert v == pytest.approx(float(i == j), abs=1e-14)


def test_float_inverse_flags_singular():
    assert float_inverse([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0],
                          [0.0, 0.0, 1.0]]) is None
