"""Grid certificates: verdicts, witnesses and margins."""

import math

from scatsym.certificates import certify_nonvanishing, certify_positive
from scatsym.expr import ONE, parse
from scatsym.geometry import Chart, smooth_form


def test_certify_positive_refutes_nan():
    cert = certify_positive(lambda pt: float("nan"), [{"y": 0.0}], 1e-8)
    assert cert.kind == "refuted"
    assert cert.witness == (("y", 0.0),)
    assert math.isnan(cert.min_margin)


def test_certify_nonvanishing_refutes_nan_in_any_slot():
    # 1 + e^{300y} e^{301y} (e^{302y} - e^{303y}) is NaN for y >~ 0.8
    ch = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), "x", ())
    e = {a: f"(exp (mul {a} (var y)))" for a in (300, 301, 302, 303)}
    nan = parse(f"(add 1 (mul {e[300]} {e[301]} {e[302]}) "
                f"(mul -1 {e[300]} {e[301]} {e[303]}))")
    for terms in ({("x",): ONE, ("y",): nan}, {("x",): nan, ("y",): ONE}):
        cert = certify_nonvanishing(smooth_form(ch, terms), None, 1e-8)
        assert cert.kind == "refuted"
        assert dict(cert.witness)["y"] > 0.8


def test_certify_positive_refutes_an_empty_point_set():
    cert = certify_positive(lambda pt: 1.0, [], 1e-8, detail="scan")
    assert cert.kind == "refuted" and not cert.passed
    assert cert.grid_points == 0 and cert.witness == ()
