"""Bump functions, collar forms, and the three gluing constructions."""

import math
import sys

import pytest

from scatsym import expr
from scatsym.catalog import s2xs1_contact, torus_contact
from scatsym.expr import evaluate
from scatsym.gluing import (
    FillingCollar, GluingError, bump_phi, bump_psi_f, bump_psi_sc,
    certify_folded_gluing, certify_sc_gluing, glue_concave_concave,
    glue_convex_concave, glue_convex_convex,
)
from scatsym.structures import closedness


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
    collar = FillingCollar(torus_contact(), "convex")
    glued = glue_convex_convex(collar, collar)
    assert glued.kind == "sc"
    cert = certify_sc_gluing(glued, constant_points=2000)
    assert cert.passed


def test_glue_convex_concave_closed():
    c1 = FillingCollar(s2xs1_contact(), "convex")
    c2 = FillingCollar(s2xs1_contact(), "concave")
    glued = glue_convex_concave(c1, c2)
    assert glued.kind == "classic"
    assert closedness(glued.omega).is_zero


def test_glue_concave_concave_certified():
    collar = FillingCollar(torus_contact(), "concave")
    glued = glue_concave_concave(collar, collar)
    assert glued.kind == "folded"
    cert = certify_folded_gluing(glued)
    assert cert.passed


def test_sc_gluing_does_not_walk_trees_per_point(monkeypatch):
    # each certified scalar is compiled once; evaluate runs only at the
    # rare points compiled code hands back, where a per-point tree walk
    # would make about 20,800 calls (10,000 + 10,000 + 273 + 546)
    collar = FillingCollar(torus_contact(), "convex")
    glued = glue_convex_convex(collar, collar)
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
    assert 0 < calls < 2000
