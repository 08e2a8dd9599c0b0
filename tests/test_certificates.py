"""Grid certificates: verdicts, witnesses and margins."""

import math
from fractions import Fraction

import pytest

from scatsym.certificates import (
    Certificate, all_of, certify_nonvanishing, certify_positive, chart_grid,
    proven, refuted, verified,
)
from scatsym.expr import Const, ONE, ZeroVerdict, add, parse, powx, var
from scatsym.geometry import Chart, ZeroVerdictMap, make_form, smooth_form


def _nan_at_y_above(t):
    """1 + e^{300u} e^{301u} (e^{302u} - e^{303u}), u = y + 1 - t: the
    product overflows to inf - inf = NaN for y >~ t - 0.2."""
    e = {a: f"(exp (mul {a} (add (var y) {1 - t})))" for a in (300, 301, 302, 303)}
    return parse(f"(add 1 (mul {e[300]} {e[301]} {e[302]}) "
                 f"(mul -1 {e[300]} {e[301]} {e[303]}))")


def test_certify_positive_refutes_nan():
    cert = certify_positive(_nan_at_y_above(0), [{"y": 0.0}], 1e-8)
    assert cert.kind == "refuted"
    assert cert.witness == (("y", 0.0),)
    assert math.isnan(cert.min_margin)


def test_certify_nonvanishing_refutes_nan_in_any_slot():
    ch = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), "x", ())
    nan = _nan_at_y_above(1)
    for terms in ({("x",): ONE, ("y",): nan}, {("x",): nan, ("y",): ONE}):
        cert = certify_nonvanishing(smooth_form(ch, terms), None, 1e-8)
        assert cert.kind == "refuted"
        assert dict(cert.witness)["y"] > 0.8


def test_certify_positive_refutes_an_empty_point_set():
    cert = certify_positive(ONE, [], 1e-8, detail="scan")
    assert cert.kind == "refuted" and not cert.passed
    assert cert.grid_points == 0 and cert.witness == ()


def test_certify_nonvanishing_refutes_at_a_pole():
    # x^{-2} dy is undefined on the x = 0 slice of the grid
    ch = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), "x", ())
    form = make_form(ch, 1, [(2, ONE, ("y",))])
    cert = certify_nonvanishing(form, chart_grid(ch, 3), 1e-8)
    assert cert.kind == "refuted"
    assert dict(cert.witness)["x"] == 0.0


def test_margin_is_signed_slack():
    pts = [{"y": v} for v in (0.5, 1.0, 2.0)]
    y = var("y")
    cert = certify_positive(powx(y, 2), pts, 0.1)
    assert cert.kind == "numerically-verified"
    assert cert.min_margin == min(v["y"] ** 2 for v in pts) - 0.1
    low = certify_positive(add(y, Const(Fraction(-3, 4))), pts, 0.1)
    assert low.kind == "refuted" and low.witness == (("y", 0.5),)
    assert low.min_margin == pytest.approx(-0.35) and low.min_margin < 0


NUMERIC = verified(3, 1e-8, 0.5, "numeric")


def test_all_of_takes_the_weakest_kind():
    cert = all_of("both", exact=proven("exact"), sampled=NUMERIC)
    assert cert.kind == "numerically-verified" and cert.passed
    assert dict(cert.parts) == {"exact": proven("exact"), "sampled": NUMERIC}
    assert cert.grid_points == 0 and cert.witness is None
    assert all_of("none").kind == "proven"


def test_all_of_refutes_with_the_first_refuted_part():
    bad = refuted({"y": 0.25}, -1.0, "scan")
    worse = refuted({"y": 0.5}, -2.0, "other scan")
    cert = all_of("all", ok=proven(), bad=bad, worse=worse, sampled=NUMERIC)
    assert cert.kind == "refuted" and not cert.passed
    assert cert.witness == (("y", 0.25),)
    assert cert.detail == "all: bad refuted"


def test_zero_verdicts_rank_with_certificates():
    slot = {"proven-zero": ZeroVerdict("proven-zero"),
            "numerically-zero": ZeroVerdict("numerically-zero", 1e-12, 1e-9),
            "nonzero": ZeroVerdict("nonzero", 1.0, 1e-9, (("x", 0.5),), 1.0)}
    assert all_of("z", z=slot["proven-zero"]).kind == "proven"
    assert all_of("z", z=slot["numerically-zero"]).kind == \
        "numerically-verified"
    assert all_of("z", z=slot["nonzero"]).kind == "refuted"
    assert all_of("m", m=ZeroVerdictMap({})).kind == "proven"
    mixed = ZeroVerdictMap({(0, ("x",)): slot["proven-zero"],
                            (0, ("y",)): slot["numerically-zero"]})
    assert all_of("m", m=mixed).kind == "numerically-verified"
    failing = ZeroVerdictMap({**mixed.verdicts, (1, ("x",)): slot["nonzero"]})
    cert = all_of("m", m=failing)
    assert cert.kind == "refuted" and cert.witness == (("x", 0.5),)


@pytest.mark.parametrize("name", ["kind", "detail", "parts", "type", "passed"])
def test_part_names_must_not_collide_with_fields(name):
    with pytest.raises(ValueError):
        all_of("d", **{name: proven()})
    with pytest.raises(ValueError):
        Certificate("proven", parts=((name, proven()),))
