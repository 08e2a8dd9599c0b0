"""Grid certificates: verdicts, witnesses and margins, and grids kept as
their axes."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from scatsym import certificates
from scatsym.certificates import (
    MAX_GRID_POINTS, Certificate, Grid, all_of, axis_points,
    certify_nonvanishing, certify_positive, chart_grid, proven, refuted,
    verified,
)
from scatsym.expr import (
    Const, ONE, UnknownVariableError, add, evaluate, free_vars, mul, powx,
    var,
)
from scatsym.geometry import Chart, ZeroVerdictMap, make_form, smooth_form
from scatsym.reader import parse
from test_expr import _SPECIAL, _random_tree


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
    # a ZeroVerdictMap ranks as its weakest slot
    slot = {"proven": proven(),
            "numerically-verified": verified(100, 1e-9, 1e-9 - 1e-12),
            "refuted": refuted({"x": 0.5}, 1e-9 - 1.0, "value 1.0")}
    assert all_of("m", m=ZeroVerdictMap({})).kind == "proven"
    mixed = ZeroVerdictMap({(0, ("x",)): slot["proven"],
                            (0, ("y",)): slot["numerically-verified"]})
    assert all_of("m", m=mixed).kind == "numerically-verified"
    failing = ZeroVerdictMap({**mixed.verdicts, (1, ("x",)): slot["refuted"]})
    cert = all_of("m", m=failing)
    assert cert.kind == "refuted" and cert.witness == (("x", 0.5),)


@pytest.mark.parametrize("name", ["kind", "detail", "parts", "type", "passed"])
def test_part_names_must_not_collide_with_fields(name):
    with pytest.raises(ValueError):
        all_of("d", **{name: proven()})
    with pytest.raises(ValueError):
        Certificate("proven", parts=((name, proven()),))


# -- grids kept as their axes


def _chart(dim, x=None, lo=-1.0):
    names = tuple(f"q{k}" for k in range(dim))
    return Chart(names, ((lo, 1.0),) * dim, x and names[x - 1])


def _former_chart_grid(ch, per_axis):
    """chart_grid as it was: a one-step shrink loop and one dict per point."""
    count = per_axis
    while count > 2 and count ** ch.dim > MAX_GRID_POINTS:
        count -= 1
    axes = []
    for name, (lo, hi) in zip(ch.names, ch.ranges):
        include = (0.0,) if name == ch.x else ()
        axes.append([(name, v) for v in axis_points(lo, hi, count, include)])
    return [dict(combo) for combo in itertools.product(*axes)]


def test_chart_grid_shrinks_as_the_one_step_loop_did():
    # from dim 15 on, 2 points per axis exceed MAX_GRID_POINTS
    for dim in (*range(1, 9), 15, 16):
        ch = _chart(dim)
        for per_axis in range(1, 61):
            count = per_axis
            while count > 2 and count ** dim > MAX_GRID_POINTS:
                count -= 1
            sizes = [len(values) for _, values in chart_grid(ch, per_axis).axes]
            assert sizes == [count] * dim, (dim, per_axis)


def test_chart_grid_takes_a_huge_per_axis_at_once():
    # the one-step loop took seconds here; 11^4 <= 20000 < 12^4
    grid = chart_grid(_chart(4, x=1), 10 ** 18)
    assert [len(values) for _, values in grid.axes] == [11] * 4
    assert len(grid) == 11 ** 4


@pytest.mark.parametrize("dim", range(1, 9))
def test_chart_grid_yields_the_former_point_dicts(dim):
    # no x; x last on a lopsided range, where x = 0 is an extra point; x
    # first on a symmetric range, where 0 is the midpoint at odd counts.
    # 17 per axis shrinks from dim 4 on
    for ch in (_chart(dim), _chart(dim, x=dim, lo=-0.5), _chart(dim, x=1)):
        for per_axis in (1, 2, 4, 17):
            grid = chart_grid(ch, per_axis)
            former = _former_chart_grid(ch, per_axis)
            assert list(grid) == former
            assert len(grid) == len(former)
            assert [list(p) for p in grid] == [list(p) for p in former]


def _verdict(cert):
    m = cert.min_margin
    bits = m if m is None else "nan" if math.isnan(m) else (
        m, math.copysign(1.0, m))
    return cert.kind, cert.witness, bits, cert.grid_points, cert.detail


def test_certify_positive_on_a_grid_matches_its_point_dicts(monkeypatch):
    # walks holds each point the tree walk settles, once per point; the
    # grid path scans only the axes the margin reads, so it walks the dict
    # path's walked points deduplicated by their values on those axes
    walks = []

    def counting(e, pt):
        if not walks or walks[-1] is not pt:
            walks.append(pt)
        return evaluate(e, pt)

    monkeypatch.setattr(certificates, "evaluate", counting)
    rng = random.Random(20183)
    seen = set()
    for _ in range(300):
        trees = [_random_tree(rng, rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))]
        axes = [(name, sorted({0.0, *rng.sample(_SPECIAL, rng.randint(1, 5))}))
                for name in ("x", "y")]
        grid = Grid(axes)
        tol = rng.choice([0.0, 1e-8, 0.5, -1e-9, -4.0])
        for margin in (trees[0], trees):
            walks.clear()
            try:
                want = _verdict(certify_positive(margin, list(grid), tol, "d"))
            except OverflowError:
                with pytest.raises(OverflowError):
                    certify_positive(margin, grid, tol, "d")
                continue
            read = frozenset().union(*map(
                free_vars, [margin] if margin is trees[0] else margin))
            walked, projections = [], set()
            for pt in walks:
                projection = tuple(v for n, v in pt.items() if n in read)
                if projection not in projections:
                    projections.add(projection)
                    walked.append(pt)
            if len(walked) < len(walks):
                seen.add("fewer walks")
            walks.clear()
            assert _verdict(certify_positive(margin, grid, tol, "d")) == want
            assert walks == walked
            if want[0] == "refuted" and want[1] != tuple(
                    sorted(next(iter(grid)).items())):
                seen.add("refuted mid-grid")
            if want[0] != "refuted" and walked:
                seen.add("resumed after a tree walk")
    assert seen == {"refuted mid-grid", "resumed after a tree walk",
                    "fewer walks"}


def test_ragged_points_still_raise_unknown_variable():
    x, y, z = var("x"), var("y"), var("z")
    ragged = [{"x": 1.0, "y": 1.0}, {"x": 2.0}, {"y": 3.0, "x": 3.0}]
    with pytest.raises(UnknownVariableError):
        certify_positive(add(y, ONE), ragged, 0.0)
    with pytest.raises(UnknownVariableError):
        certify_positive(add(z, ONE), [{"x": 1.0}, {"x": 2.0, "z": 1.0}], 0.0)
    # a point that lacks only names the margin does not read is walked as
    # given, and so is one with names the first point lacks
    assert certify_positive(x, ragged, 0.0).min_margin == 1.0
    mixed = [{"x": 0.0}, {"x": 2.0, "z": 1.0}]
    cert = certify_positive(add(x, ONE, mul(x, z)), mixed, 0.0)
    assert cert.passed and cert.grid_points == 2 and cert.min_margin == 1.0


def test_certify_positive_streams_a_six_dimensional_grid():
    grid = chart_grid(_chart(6, x=1))
    assert len(grid) == 15625
    margin = add(ONE, *(powx(var(name), 2) for name in grid.names))
    tracemalloc.start()
    try:
        cert = certify_positive(margin, grid, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        points = list(grid)
        as_dicts = tracemalloc.get_traced_memory()[1]
        del points
    finally:
        tracemalloc.stop()
    assert cert.passed and cert.grid_points == 15625
    assert peak < 1_000_000 < as_dicts
