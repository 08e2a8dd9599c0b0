"""Singular forms on charts: wedge, d, contraction, Laurent slots,
equality checks, and JSON serialization."""

import math
from fractions import Fraction

import pytest

from scatsym.expr import Const, ONE, cos, mul, sin, var
from scatsym.geometry import (
    Chart, GeometryError, exterior_derivative, form_from_json, form_to_json,
    forms_equal, interior_product, laurent_decompose, make_form,
    pointwise_equal, smooth_form, top_power, wedge, zero_form,
)

TWO_PI = 2.0 * math.pi


def reassemble(ch, degree, slots):
    """The form whose Laurent slots are `slots` (inverse of laurent_decompose)."""
    terms = []
    for s in slots:
        for k, c, idx in s.dx_part.terms:
            terms.append((s.exponent + k, c, (ch.x,) + idx))
        for k, c, idx in s.rest.terms:
            terms.append((s.exponent + k, c, idx))
    return make_form(ch, degree, terms)


@pytest.fixture
def plane():
    return Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), "x")


@pytest.fixture
def torus4():
    names = ("x", "t1", "t2", "t3")
    return Chart(names, ((-1.0, 1.0),) + ((0.0, TWO_PI),) * 3, "x",
                 frozenset(("t1", "t2", "t3")))


def test_wedge_anticommutes(plane):
    dx = smooth_form(plane, {("x",): ONE})
    dy = smooth_form(plane, {("y",): ONE})
    assert (wedge(dx, dy) + wedge(dy, dx)).is_zero_form
    assert wedge(dx, dx).is_zero_form


def test_d_squared_is_zero(torus4):
    f = smooth_form(torus4, {("t1",): mul(sin(var("t2")), var("x")),
                             ("t3",): cos(var("t1"))})
    dd = exterior_derivative(exterior_derivative(f))
    assert dd.is_zero_form


def test_leibniz_rule(torus4):
    f = smooth_form(torus4, {("t1",): cos(var("t2"))})
    g = smooth_form(torus4, {("t3",): sin(var("t1"))})
    lhs = exterior_derivative(wedge(f, g))
    rhs = wedge(exterior_derivative(f), g) \
        + wedge(f, exterior_derivative(g)).scale(Const(Fraction(-1)))
    assert forms_equal(lhs, rhs).is_zero


def test_interior_product_antiderivation(torus4):
    v = make_form(torus4, 1, [(0, cos(var("t2")), ("t1",)),
                              (0, ONE, ("t3",))], "vector")
    f = smooth_form(torus4, {("t1",): sin(var("t3"))})
    g = smooth_form(torus4, {("t2",): var("x")})
    lhs = interior_product(v, wedge(f, g))
    rhs = wedge(interior_product(v, f), g) \
        + wedge(f, interior_product(v, g)).scale(Const(Fraction(-1)))
    assert forms_equal(lhs, rhs).is_zero


def test_interior_product_requires_vector(torus4):
    f = smooth_form(torus4, {("t1",): ONE})
    with pytest.raises(GeometryError):
        interior_product(f, f)


def test_laurent_roundtrip(torus4):
    f = make_form(torus4, 2, [
        (3, ONE, ("x", "t1")),
        (2, cos(var("t2")), ("x", "t3")),
        (0, sin(var("t1")), ("t2", "t3")),
    ])
    slots = laurent_decompose(f, order=0)
    back = reassemble(torus4, 2, slots)
    assert forms_equal(f, back).is_zero


def test_pole_grading_absorbs_bare_x_powers(torus4):
    # x * x^{-3} coefficients are regraded to the x^{-2} slot
    a = make_form(torus4, 1, [(3, var("x"), ("t1",))])
    b = make_form(torus4, 1, [(2, ONE, ("t1",))])
    assert forms_equal(a, b).is_zero


def test_forms_equal_reports_witness(torus4):
    a = smooth_form(torus4, {("t1",): ONE})
    b = smooth_form(torus4, {("t1",): cos(var("t2"))})
    v = forms_equal(a, b)
    assert not v.is_zero
    bad = [k for k, z in v.verdicts.items() if not z.is_zero]
    assert bad


def test_pointwise_equal_matches_forms_equal(torus4):
    a = smooth_form(torus4, {("t1", "t2"): sin(var("t3"))})
    assert pointwise_equal(a, a).is_zero
    b = a + smooth_form(torus4, {("t1", "t3"): ONE})
    assert not pointwise_equal(a, b).is_zero


def test_top_power(plane):
    omega = smooth_form(plane, {("x", "y"): Const(Fraction(2))})
    sq = top_power(omega, 1)
    assert forms_equal(sq, omega).is_zero


def test_json_roundtrip(torus4):
    f = make_form(torus4, 2, [
        (2, mul(cos(var("t1")), var("x")), ("x", "t2")),
        (0, sin(var("t3")), ("t1", "t2")),
    ])
    back = form_from_json(form_to_json(f))
    assert back.chart == f.chart
    assert back.degree == f.degree
    assert forms_equal(f, back).is_zero
