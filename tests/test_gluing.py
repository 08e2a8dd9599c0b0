"""Bump functions, collar forms, and the three gluing constructions."""

import math
import sys

import pytest

from scatsym import expr
from scatsym.catalog import s2xs1_contact, torus_contact
from scatsym.certificates import axis_points, geometric_refinement
from scatsym.expr import ONE, differentiate, evaluate, exp, mul, var
from scatsym.floatcode import compile_floats
from scatsym.geometry import exterior_derivative, smooth_form, wedge
from scatsym.gluing import (
    GLUE_R, FillingCollar, GluingError, bump_phi, bump_psi_f, bump_psi_sc,
    certify_folded_gluing, certify_sc_gluing, glue_concave_concave,
    glue_convex_concave, glue_convex_convex,
)
from scatsym.structures import closedness, lift


def test_bump_phi_endpoints():
    phi = bump_phi()
    assert float(evaluate(phi, {"r": 0.4})) == 0.0
    assert float(evaluate(phi, {"r": 2.5})) == 0.0
    mid = float(evaluate(phi, {"r": 1.0}))
    assert mid > 0.0


def test_bump_psi_sc_plateaus():
    psi = bump_psi_sc()
    assert float(evaluate(psi, {"r": 0.5})) == 1.0
    assert float(evaluate(psi, {"r": 0.875})) == 1.0
    assert float(evaluate(psi, {"r": 1.0})) == 0.0
    assert float(evaluate(psi, {"r": 1.5})) == 0.0
    v = float(evaluate(psi, {"r": 0.93}))
    assert 0.0 < v < 1.0


def test_bump_psi_f_monotone_window():
    psi = bump_psi_f()
    assert float(evaluate(psi, {"r": -2.0})) == 0.0
    assert float(evaluate(psi, {"r": -0.5})) == 1.0
    assert float(evaluate(psi, {"r": 1.0})) == 1.0


def test_collar_form_symplectic():
    collar = FillingCollar(torus_contact(), "convex")
    assert collar.verify().passed
    concave = FillingCollar(torus_contact(), "concave")
    assert concave.verify().passed


def test_collar_rejects_bad_convexity():
    with pytest.raises(GluingError):
        FillingCollar(torus_contact(), "sideways")


def test_glue_convex_convex_certified():
    glued = glue_convex_convex(torus_contact())
    assert glued.kind == "sc"
    cert = certify_sc_gluing(glued)
    assert cert.passed


def test_glue_convex_concave_closed():
    glued = glue_convex_concave(s2xs1_contact())
    assert glued.kind == "classic"
    assert closedness(glued.omega).is_zero


def test_glue_concave_concave_certified():
    glued = glue_concave_concave(torus_contact())
    assert glued.kind == "folded"
    cert = certify_folded_gluing(glued)
    assert cert.passed


@pytest.mark.parametrize("contact", [torus_contact, s2xs1_contact])
@pytest.mark.parametrize("convexity,glue,base_scalar", [
    ("convex", glue_convex_convex, exp(mul(-1, var(GLUE_R)))),
    ("concave", glue_concave_concave, ONE),
])
def test_glued_form_is_structurally_a_dr1_base_plus_b_dbase(
        contact, convexity, glue, base_scalar):
    # the certified A = dB/dr1 and B are the coefficients of omega itself:
    # omega - (A dr1 ^ base + B d(base)) is the zero form, term for term
    g = glue(contact())
    assert g.kind == {"convex": "sc", "concave": "folded"}[convexity]
    chart = g.omega.chart
    base = lift(g.alpha, chart).scale(base_scalar)
    a_dr1 = smooth_form(chart, {(GLUE_R,): differentiate(g.profile, GLUE_R)})
    want = wedge(a_dr1, base) + exterior_derivative(base).scale(g.profile)
    assert (g.omega - want).is_zero_form


def test_sc_gluing_does_not_walk_trees_per_point(monkeypatch):
    # each margin is compiled into one grid kernel; evaluate runs only at
    # the points the kernel cannot settle, where a per-point tree walk
    # would make about 20,800 calls (10,000 + 10,000 + 273 + 546), and a
    # zero psi' under psi' + 128 no longer goes to the tree walk
    glued = glue_convex_convex(torus_contact())
    original, depth, calls = expr.evaluate, 0, 0

    def counting(e, point):
        nonlocal depth, calls
        calls += depth == 0
        depth += 1
        try:
            return original(e, point)
        finally:
            depth -= 1

    for name, module in list(sys.modules.items()):
        if name.startswith("scatsym") and \
                getattr(module, "evaluate", None) is original:
            monkeypatch.setattr(module, "evaluate", counting)
    assert certify_sc_gluing(glued).passed
    assert 0 < calls < 20


def test_gluing_margins_keep_the_bits_of_their_float_formulas():
    # each margin is an expression now; its min_margin is the one of the
    # float formula it replaced, on the same points, bit for bit
    g = glue_convex_convex(torus_contact())
    sc = dict(certify_sc_gluing(g).parts)
    phi, psi = bump_phi(), bump_psi_sc()
    r = var("r")
    quotient = compile_floats([differentiate(
        mul(phi, expr.powx(expr.add(r, expr.Const(-1)), -2)), "r")])
    dpsi = compile_floats([differentiate(psi, "r")])
    pts = [{"r": v} for v in axis_points(0.875, 1.0, 10000)]
    assert sc["phi_quotient_exceeds_139"].min_margin == \
        min(quotient(pt)[0] - 139.0 for pt in pts)
    assert sc["psi_slope_at_least_minus_128"].min_margin == \
        min(dpsi(pt)[0] + 128.0 for pt in pts) + 1e-9
    a_b = compile_floats([differentiate(g.profile, GLUE_R), g.profile])
    grid = [{GLUE_R: v} for v in geometric_refinement(1.0, 0.5, 1.0)]
    assert sc["a_minus_b_positive"].min_margin == \
        min(a - b for a, b in map(a_b, grid))

    folded = dict(certify_folded_gluing(glue_concave_concave(torus_contact())).parts)
    gap = axis_points(1.0, 2.0, 2000)
    ratio = [v for v in axis_points(0.0, 1.0, 2000, include=(1.0,)) if v > 0]
    assert folded["gap_on_1_2"].min_margin == \
        min(math.exp(v) - 4.0 * math.exp(-v) for v in gap)
    assert folded["ratio_on_0_1"].min_margin == \
        min(math.exp(2.0 * v) - 1.0 for v in ratio)
