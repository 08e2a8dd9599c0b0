"""Singular forms on charts: wedge, d, contraction, Laurent slots,
equality checks, and JSON serialization."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from scatsym import expr, geometry
from scatsym.catalog import build_example
from scatsym.expr import (
    Const, ExprError, ONE, Piece, PiecewiseDecay, ZERO, add, canon, cos,
    evaluate, exp, is_provably_zero, mul, poly, powx, sin, var,
)
from scatsym.floatcode import compile_floats
from scatsym.geometry import (
    Chart, GeometryError, evaluate_form, exterior_derivative,
    form_from_json, form_to_json, forms_equal, interior_product,
    laurent_decompose, make_form, scalar_one, smooth_form, top_power, wedge,
    z_chart, zero_form,
)

TWO_PI = 2.0 * math.pi


def reassemble(ch, degree, slots):
    """The form whose Laurent slots are `slots` (inverse of laurent_decompose)."""
    terms = []
    for expo, s in slots.items():
        for k, c, idx in s.dx_part.terms:
            terms.append((expo + k, c, (ch.x,) + idx))
        for k, c, idx in s.rest.terms:
            terms.append((expo + k, c, idx))
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
    slots = laurent_decompose(f)
    back = reassemble(torus4, 2, slots)
    assert forms_equal(f, back).is_zero


def test_laurent_slots_live_on_z(torus4):
    f = make_form(torus4, 2, [(3, ONE, ("x", "t1")),
                              (0, sin(var("t1")), ("t2", "t3"))])
    for s in laurent_decompose(f).values():
        assert s.dx_part.chart == s.rest.chart == z_chart(torus4)


def _two_grades(plane):
    """x^{-3} c1 + x^{-1} c2 on dx ^ dy."""
    c1, c2 = cos(var("y")), add(var("y"), Const(Fraction(2)))
    f = make_form(plane, 2, [(3, c1, ("x", "y")), (1, c2, ("x", "y"))])
    x = var("x")
    return f, add(mul(c1, powx(x, -3)), mul(c2, powx(x, -1)))


def test_pole_sums_fold_every_grade(plane):
    f, total = _two_grades(plane)
    (idx, folded), = f.pole_sums().items()
    assert idx == ("x", "y")
    assert is_provably_zero(canon(add(folded, mul(Const(Fraction(-1)), total))))
    # shift = 3 reads the coefficient against x^{-3}: c1 + c2 x^2
    shifted = f.pole_sums(3)[idx]
    assert is_provably_zero(canon(add(shifted, mul(Const(Fraction(-1)),
                                                   total, powx(var("x"), 3)))))


def test_numeric_forms_agree_with_the_folded_coefficient(plane):
    f, total = _two_grades(plane)
    sums = f.pole_sums()
    compiled = compile_floats(list(sums.values()))
    for x in (-0.7, 0.3, 0.9):
        for y in (-0.5, 0.4):
            pt = {"x": x, "y": y}
            want = float(evaluate(total, pt))
            assert evaluate_form(f, pt) == {("x", "y"): want}
            assert dict(zip(sums, compiled(pt))) == {("x", "y"): want}


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
    bad = [z for z in v.verdicts.values() if not z.passed]
    assert bad and all(z.kind == "refuted" and z.witness for z in bad)


def test_top_power(plane):
    omega = smooth_form(plane, {("x", "y"): Const(Fraction(2))})
    sq = top_power(omega, 1)
    assert forms_equal(sq, omega).is_zero
    assert top_power(omega, 0) == scalar_one(plane)
    with pytest.raises(GeometryError):
        top_power(omega, -1)


@pytest.mark.parametrize("k, q", [(1, Fraction(1, 2)), (0, Fraction(-1, 2))])
def test_make_form_refuses_a_fractional_bare_x(plane, k, q):
    # both are x^(-1/2); graded at two pole orders, one function would have
    # two forms that forms_equal calls unequal
    with pytest.raises(ExprError):
        make_form(plane, 0, [(k, powx(var("x"), q), ())])


def _random_two_form(rng, ch, kind, blank=None):
    """A 2-form with poles up to x^-3 whose coefficients are small sums of
    products of coordinates, 1/x, sin(x) and the opaque roots s^(1/2),
    s^(-1/2) of s = 1 - sum of squares, with the row of the coordinate
    `blank` left zero.  Bare x appears at integer powers only: make_form
    refuses a fractional one."""
    x = var(ch.x)
    root = powx(add(1, *[mul(-1, var(n), var(n)) for n in ch.names]),
                Fraction(1, 2))
    atoms = [var(n) for n in ch.names] + [powx(x, -1), sin(x), root,
                                          powx(root, -1)]
    terms = []
    for idx in itertools.combinations(ch.names, 2):
        if blank not in idx and rng.random() < 0.7:
            c = add(*[mul(rng.randint(-3, 3),
                          *rng.sample(atoms, rng.randint(0, 2)))
                      for _ in range(rng.randint(1, 2))])
            terms.append((rng.randint(-1, 3), c, idx))
    return make_form(ch, 2, terms, kind)


@pytest.mark.parametrize("kind", ["form", "vector"])
@pytest.mark.parametrize("dim", range(2, 9))
def test_top_power_is_the_repeated_wedge(dim, kind):
    ch = Chart(("x",) + tuple(f"y{i}" for i in range(1, dim)),
               ((-0.5, 0.5),) * dim, "x")
    rng = random.Random(20160 + dim)
    for blank in (None, None, rng.choice(ch.names)):
        f = _random_two_form(rng, ch, kind, blank)
        for n in range(1, dim // 2 + 1):
            assert top_power(f, n) == functools.reduce(wedge, [f] * n), (n, f)


def test_json_roundtrip(torus4):
    f = make_form(torus4, 2, [
        (2, mul(cos(var("t1")), var("x")), ("x", "t2")),
        (0, sin(var("t3")), ("t1", "t2")),
    ])
    back = form_from_json(form_to_json(f))
    assert back.chart == f.chart
    assert back.degree == f.degree
    assert forms_equal(f, back).is_zero


# ---------------------------------------------------------------------------
# make_form against the split-rebuild-add-canon normalisation


def _x_parts(e, x):
    """{j: x-free coeff} with e = sum_j x**j * coeff, each part rebuilt; a
    bare x at a fractional power raises ExprError."""
    xv = var(x)
    out = {}
    for mono, c in poly(e):
        j, rest = 0, []
        for atom, q in mono:
            if atom == xv:
                if Fraction(q).denominator != 1:
                    raise ExprError("fractional bare x")
                j = int(q)
            else:
                rest.append((atom, q))
        part = out.setdefault(j, {})
        part[tuple(rest)] = part.get(tuple(rest), 0) + c
    return {j: expr._rebuild(part) for j, part in out.items() if part}


def reference_terms(ch, degree, terms):
    """make_form's terms by the two-pass route: split each coefficient into
    x-power parts, rebuild them, add per slot, canon the sum, drop zeros.
    Also returns how many non-empty slots cancelled."""
    merged = {}
    for k, coeff, idx in terms:
        srt = geometry._sorted_index(ch, idx)
        if srt is None:
            continue
        sign, key = srt
        coeff = mul(sign, coeff)
        parts = _x_parts(coeff, ch.x) if ch.x is not None else {0: coeff}
        for j, part in parts.items():
            slot = (int(k) - j, key)
            merged[slot] = add(merged.get(slot, ZERO), part)
    out, cancelled = [], 0
    for (k, key), coeff in merged.items():
        coeff = canon(coeff)
        if is_provably_zero(coeff):
            cancelled += 1
        else:
            out.append((k, coeff, key))
    out.sort(key=lambda t: (-t[0], t[2]))
    return tuple(out), cancelled


_DECAY = (Piece(None, Fraction(1, 2), ZERO),
          Piece(Fraction(1, 2), Fraction(2), exp(var("t"))),
          Piece(Fraction(2), None, ZERO))


def _random_coeff(rng, depth):
    """A random tree over x and y."""
    x, y = var("x"), var("y")
    if depth == 0:
        kind = rng.randrange(4)
        if kind == 0:  # bare integer power of x, negative ones included
            return powx(x, rng.choice([-3, -2, -1, 1, 2, 3]))
        if kind == 1:  # fractional power of x
            return powx(x, Fraction(rng.choice([-3, -1, 1, 3]), 2))
        if kind == 2:
            return y
        return Const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    a = _random_coeff(rng, depth - 1)
    kind = rng.randrange(8)
    if kind == 0:
        return add(a, _random_coeff(rng, depth - 1))
    if kind == 1:
        return mul(a, _random_coeff(rng, depth - 1))
    if kind == 2:  # x inside exp, sin and a piecewise node stays put
        return exp(mul(x, a))
    if kind == 3:
        return mul(y, sin(add(x, a)))
    if kind == 4:
        return mul(a, PiecewiseDecay(add(x, y), "t", _DECAY))
    if kind == 5:
        return powx(add(a, y), 2)
    if kind == 6:  # fractional power of a sum
        return powx(add(a, y), Fraction(rng.choice([-3, -1, 1, 3]), 2))
    return mul(a, powx(x, rng.choice([-2, -1, 1])))


def _random_terms(rng, ch, degree):
    terms = []
    for _ in range(rng.randint(1, 4)):
        idx = tuple(rng.sample(ch.names, degree))
        if degree == 2 and rng.random() < 0.1:
            idx = (idx[0], idx[0])  # repeated coordinate: dropped
        k, c = rng.randint(-2, 3), _random_coeff(rng, rng.randint(0, 3))
        terms.append((k, c, idx))
        r = rng.random()
        if r < 0.3:  # same slot after absorbing x**j: cancels with a chart x
            j = rng.choice([-2, -1, 1, 2])
            terms.append((k + j, mul(-1, c, powx(var("x"), j)), idx))
        elif r < 0.5 and degree == 2:  # swapped index: cancels
            terms.append((k, c, idx[::-1]))
        elif r < 0.6:  # same slot: merges
            terms.append((k, mul(2, c), idx))
        elif r < 0.7:  # sqrt(s) * sqrt(s) - s for a sum s: cancels
            s = add(c, var("y"))
            root = powx(s, Fraction(1, 2))
            terms += [(k, mul(root, root), idx), (k, mul(-1, s), idx)]
    return terms


@pytest.mark.parametrize("x", ["x", None])
def test_make_form_matches_the_two_pass_normalisation(x):
    ch = Chart(("x", "y", "z"), ((-1.0, 1.0),) * 3, x)
    rng = random.Random(20161)
    cancelled = refused = 0
    for _ in range(300):
        degree = rng.randint(0, 2)
        terms = _random_terms(rng, ch, degree)
        try:
            want, dropped = reference_terms(ch, degree, terms)
        except ExprError:
            with pytest.raises(ExprError):
                make_form(ch, degree, terms)
            refused += 1
            continue
        cancelled += dropped
        assert make_form(ch, degree, terms).terms == want, terms
    assert cancelled > 0
    assert (refused > 0) == (x is not None)


@pytest.mark.parametrize("n", [2, 4])
def test_make_form_rebuilds_each_output_term_once(monkeypatch, n):
    # the top power of the 4-D and 8-D sc Darboux forms is one make_form
    # call, which sums each slot as a polynomial and rebuilds it once, with
    # no canon pass
    omega = build_example("sc-darboux", n=n).omega
    calls = {"canon": 0, "_rebuild": 0}
    inside = []
    out_terms = []
    real_make_form = geometry.make_form

    def counting(name, fn):
        def wrapper(*args):
            if inside:
                calls[name] += 1
            return fn(*args)
        return wrapper

    def make_form_spy(*args, **kwargs):
        inside.append(True)
        try:
            out = real_make_form(*args, **kwargs)
        finally:
            inside.pop()
        out_terms.append(len(out.terms))
        return out

    monkeypatch.setattr(geometry, "make_form", make_form_spy)
    monkeypatch.setattr(expr, "canon", counting("canon", expr.canon))
    monkeypatch.setattr(geometry, "canon", counting("canon", expr.canon),
                        raising=False)
    monkeypatch.setattr(expr, "_rebuild", counting("_rebuild", expr._rebuild))
    top = top_power(omega, n)
    assert top.terms and len(out_terms) == 1
    assert calls["canon"] == 0
    assert calls["_rebuild"] == sum(out_terms)


def test_squared_root_of_a_sum_is_expanded(plane):
    # its x^-1 is absorbed into the pole order
    s = add(powx(var("x"), -1), var("y"))
    root = powx(s, Fraction(1, 2))
    squared = make_form(plane, 0, [(0, mul(root, root), ())])
    assert squared.terms == make_form(plane, 0, [(0, s, ())]).terms
    # and it cancels against the sum it squares to
    y = var("y")
    r = powx(add(1, mul(y, y)), Fraction(1, 2))
    f = make_form(plane, 0, [(0, mul(r, r), ()), (0, add(-1, mul(-1, y, y)), ())])
    assert f.terms == ()
