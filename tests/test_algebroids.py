"""Coframe flavors, smooth-section tests, non-degeneracy, and the
existence obstruction."""

import pytest

from scatsym import algebroids
from scatsym.algebroids import (
    FrameError, coframe, is_smooth_section, no_go_check, nondegenerate,
)
from scatsym.catalog import build_example
from scatsym.certificates import chart_grid
from scatsym.cli import EXIT_PARSE, main
from scatsym.expr import ONE, add, const, mul, var
from scatsym.geometry import Chart, form_to_json, make_form


@pytest.fixture
def plane4():
    names = ("x", "y1", "y2", "y3")
    return Chart(names, ((-1.0, 1.0),) * 4, "x")


def test_sc_coframe_accepts_sc_darboux(plane4):
    frame = coframe("sc", plane4)
    omega = make_form(plane4, 2, [(3, ONE, ("x", "y1")),
                                  (2, ONE, ("y2", "y3"))])
    assert is_smooth_section(omega, frame).passed


def test_sc_coframe_rejects_excess_pole(plane4):
    frame = coframe("sc", plane4)
    omega = make_form(plane4, 2, [(4, ONE, ("x", "y1"))])
    verdict = is_smooth_section(omega, frame)
    assert not verdict.passed
    # the offending (exponent, labels) slot is named in the detail
    assert "(1, ('dx', 'dy1'))" in verdict.detail


@pytest.fixture
def x_last4():
    names = ("y1", "y2", "y3", "x")
    return Chart(names, ((-1.0, 1.0),) * 4, "x")


def test_x_last_chart_names_the_excess_pole_dx_first(x_last4):
    frame = coframe("sc", x_last4)
    omega = make_form(x_last4, 2, [(4, ONE, ("x", "y1"))])
    verdict = is_smooth_section(omega, frame)
    assert not verdict.passed
    assert "(1, ('dx', 'dy1'))" in verdict.detail


def test_nondegenerate_ignores_the_sign_of_the_frame_volume(plane4, x_last4):
    # on the x-last chart dx ^ dy1 ^ dy2 ^ dy3 = -dVol, so the volume
    # coefficient flips sign; |.| and hence the margin must not change
    coeff = add(const(2), mul(var("y2"), var("y3")))
    certs = []
    for ch in (plane4, x_last4):
        omega = make_form(ch, 2, [(3, coeff, ("x", "y1")),
                                  (2, ONE, ("y2", "y3"))])
        certs.append(nondegenerate(omega, coframe("sc", ch),
                                   chart_grid(ch, 5)))
    assert all(c.passed for c in certs)
    assert certs[0].min_margin == certs[1].min_margin


@pytest.mark.parametrize("flavor,k,m,weight", [
    ("b", 1, 1, 1), ("zero", 1, 1, 4), ("sc", 1, 1, 5), ("sc^k", 2, 1, 9),
    ("b^k", 2, 1, 2), ("zero^m-b^k", 2, 3, 14)])
def test_volume_weight_follows_the_weight_table(plane4, flavor, k, m,
                                                weight):
    # dx/x^wx and three dy_j/x^wy: wx + 3 wy, as the coframe table says
    assert coframe(flavor, plane4, k=k, m=m).volume_weight() == weight


@pytest.mark.parametrize("flavor", ["rigged-sc", "rigged-b^k", "scattering"])
def test_unknown_flavor_is_a_frame_error(plane4, flavor, tmp_path):
    with pytest.raises(FrameError):
        coframe(flavor, plane4)
    path = tmp_path / "form.json"
    path.write_text(form_to_json(
        make_form(plane4, 2, [(3, ONE, ("x", "y1"))])))
    assert main(["verify", str(path), "--flavor", flavor]) == EXIT_PARSE


def test_b_coframe_weights(plane4):
    frame = coframe("b", plane4)
    omega = make_form(plane4, 2, [(1, ONE, ("x", "y1")),
                                  (0, ONE, ("y2", "y3"))])
    assert is_smooth_section(omega, frame).passed
    assert not is_smooth_section(
        make_form(plane4, 2, [(2, ONE, ("x", "y1"))]), frame).passed


def test_nondegenerate_on_darboux(plane4):
    frame = coframe("sc", plane4)
    omega = make_form(plane4, 2, [(3, ONE, ("x", "y1")),
                                  (2, ONE, ("y2", "y3"))])
    cert = nondegenerate(omega, frame, chart_grid(plane4, 5))
    assert cert.passed


def test_nondegenerate_refutes_degenerate(plane4):
    frame = coframe("sc", plane4)
    omega = make_form(plane4, 2, [(3, ONE, ("x", "y1"))])
    cert = nondegenerate(omega, frame, chart_grid(plane4, 5))
    assert not cert.passed


def test_coframe_requires_z_coordinate():
    ch = Chart(("u", "v"), ((-1.0, 1.0),) * 2, None)
    with pytest.raises(FrameError):
        coframe("sc", ch)


@pytest.mark.parametrize("m,k,dim", [(1, 0, 4), (1, 2, 4), (2, 3, 6)])
def test_no_go_refutes(m, k, dim):
    rep = no_go_check(m, k, dim)
    assert rep.applicable
    assert rep.beta_forced_zero
    assert rep.top_power_vanishes
    assert rep.refutes


def test_no_go_compares_a_missing_slot_with_beta_on_z(monkeypatch):
    # alpha = dy1 + dy2 + dy3 and beta = dy1^dy2 - dy1^dy3, whose
    # coefficients cancel across indices although beta|_Z != 0
    draws = [4, 2, 2, 2] * 3 + [4, 2, 2, 2] + [2, 2, 2, 2] + [3, 2, 2, 2]
    monkeypatch.setattr(algebroids, "_lcg", lambda seed: iter(draws))
    assert no_go_check(1, 0, 4).beta_forced_zero
    monkeypatch.setattr(algebroids, "laurent_decompose",
                        lambda f, order=0: [])
    rep = no_go_check(1, 0, 4)
    assert rep.applicable and not rep.beta_forced_zero and not rep.refutes


@pytest.mark.parametrize("m,k,dim", [(0, 0, 4), (1, 1, 4), (1, 0, 2),
                                     (1, 0, 5)])
def test_no_go_outside_obstruction_range(m, k, dim):
    rep = no_go_check(m, k, dim)
    assert not rep.applicable
    assert not rep.refutes


def test_bk_frame_accepts_bk_torus():
    rec = build_example("bk-torus", k=2, n=1)
    omega = rec.extras["normal_form"]
    frame = coframe("b^k", omega.chart, k=2)
    assert is_smooth_section(omega, frame).passed
