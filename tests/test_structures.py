"""Symplectic, contact, cosymplectic, Poisson duality, and filling checks."""

import math
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import scatsym

from scatsym.catalog import build_example, s2xs1_contact, torus_contact
from scatsym.certificates import chart_grid, proven, refuted, verified
from scatsym import algebroids, duality, expr, structures
from scatsym.duality import _dual_samples
from scatsym.examples import (
    _run_check, circle_contact, darboux_chart, darboux_contact_primitive,
)
from scatsym.expr import (
    Const, ONE, ZERO, add, cos, differentiate, evaluate, mul, sin, var,
)
from scatsym.floatcode import compile_floats
from scatsym.geometry import (
    Chart, exterior_derivative, forms_equal, make_form, off_pole_domain,
    smooth_form, zero_form,
)
from scatsym.linalg import float_inverse
from scatsym.structures import (
    ContactData, CosymplecticData, StructureError, _full_matrix,
    _reeb_identities, closedness, cosymplectic_extract, decompose,
    dual_jacobi_check, dual_roundtrip_check, dualize, induced_contact, lift,
    normal_form, reeb, strong_filling_check, verify_sc_symplectic, z_chart,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture
def darboux():
    ch = darboux_chart(2)
    alpha = darboux_contact_primitive(ch, 2, inner_sign=-1)
    return ch, alpha, normal_form(ch, alpha, None, None)


def test_sc_symplectic_normal_form(darboux):
    ch, _, omega = darboux
    rep = verify_sc_symplectic(omega, grid=chart_grid(ch, 3))
    assert rep.passed


def test_sc_symplectic_tests_the_section_once(darboux, monkeypatch):
    ch, _, omega = darboux
    calls = []
    original = algebroids.is_smooth_section

    def counted(f, frame):
        calls.append(frame.flavor)
        return original(f, frame)

    for module in (algebroids, structures):
        monkeypatch.setattr(module, "is_smooth_section", counted)
    assert verify_sc_symplectic(omega, grid=chart_grid(ch, 3)).passed
    assert calls == ["sc"]


def test_sc_symplectic_refutes_a_non_section_by_its_slots():
    plane = Chart(("x", "y1"), ((-1.0, 1.0),) * 2, "x")
    omega = make_form(plane, 2, [(4, ONE, ("x", "y1"))])
    rep = verify_sc_symplectic(omega, grid=chart_grid(plane, 3))
    parts = dict(rep.parts)
    assert not rep.passed and not parts["section"].passed
    # the non-degeneracy part carries the section test's own refutation
    assert "(1, ('dx', 'dy1'))" in parts["nondegeneracy"].detail


def test_closedness_catches_non_closed(darboux):
    ch, _, omega = darboux
    bad = omega + smooth_form(ch, {("x1", "y2"): var("y1")})
    assert not closedness(bad).is_zero


def test_contact_torus():
    contact = torus_contact()
    cert = contact.verify(chart_grid(contact.chart, 9))
    assert cert.passed


def test_contact_wrong_reeb_field_refutes():
    contact = torus_contact()
    d_q1 = make_form(contact.chart, 1, [(0, ONE, ("q1",))], "vector")
    data = ContactData(contact.chart, contact.alpha, d_q1)
    cert = data.verify(chart_grid(contact.chart, 5))
    assert cert.kind == "refuted"
    assert cert.detail == "Reeb identities fail"


def test_contact_degenerate_volume_refutes_with_witness():
    # alpha = dq1 on T^3 has alpha ^ d(alpha) = 0
    ch = torus_contact().chart
    alpha = smooth_form(ch, {("q1",): ONE})
    d_q1 = make_form(ch, 1, [(0, ONE, ("q1",))], "vector")
    cert = ContactData(ch, alpha, d_q1).verify(chart_grid(ch, 5))
    assert cert.kind == "refuted"
    assert cert.detail == "|alpha wedge (d alpha)^{n-1}|"
    assert set(dict(cert.witness)) == set(ch.names)


def test_cosymplectic_non_closed_theta_refutes():
    ch = torus_contact().chart
    theta = smooth_form(ch, {("q1",): cos(var("theta"))})
    eta = smooth_form(ch, {("theta", "q2"): ONE})
    d_q1 = make_form(ch, 1, [(0, ONE, ("q1",))], "vector")
    cert = CosymplecticData(ch, theta, eta, d_q1).verify(chart_grid(ch, 5))
    assert cert.kind == "refuted"
    assert cert.detail == "theta not closed"


def test_induced_contact_from_normal_form(darboux):
    _, alpha, omega = darboux
    data = induced_contact(omega)
    assert forms_equal(data.alpha, alpha).is_zero


def test_decompose_roundtrip(darboux):
    ch, alpha, _ = darboux
    zch = z_chart(ch)
    b1 = smooth_form(zch, {("x2",): ONE})
    b2 = smooth_form(zch, {("x2", "y2"): Const(Fraction(2))})
    omega = normal_form(ch, alpha, b1, b2)
    a, got_b1, got_b2 = decompose(omega)
    assert forms_equal(got_b1, b1).is_zero
    assert forms_equal(got_b2, b2).is_zero


def test_filling_verdicts(darboux):
    ch, alpha, omega = darboux
    assert strong_filling_check(omega).passed
    zch = z_chart(ch)
    with_b1 = normal_form(ch, alpha, smooth_form(zch, {("x2",): ONE}), None)
    v1 = strong_filling_check(with_b1)
    assert not v1.filling and v1.nonzero_slot == "b1"
    with_b2 = normal_form(ch, alpha, None,
                          smooth_form(zch, {("x2", "y2"): ONE}))
    v2 = strong_filling_check(with_b2)
    assert not v2.filling and v2.nonzero_slot == "b2"


def test_dualize_inverse_is_symbolic_inverse(darboux):
    ch, _, omega = darboux
    pi = dualize(omega)
    assert pi.kind == "vector"
    back = dualize(pi)
    assert forms_equal(back, omega).is_zero


def test_dual_roundtrip_check(darboux):
    _, _, omega = darboux
    cert = dual_roundtrip_check(omega)
    assert cert.passed


def test_dual_jacobi_check(darboux):
    _, _, omega = darboux
    cert = dual_jacobi_check(omega)
    assert cert.passed


def test_dual_checks_refute_degenerate_form():
    # dx ^ dy on a 4-chart: the coefficient matrix is singular everywhere
    ch = Chart(("x", "y", "z", "w"), ((0.1, 1.0),) * 4, None)
    omega = make_form(ch, 2, [(0, ONE, ("x", "y"))])
    for check in (dual_roundtrip_check, dual_jacobi_check):
        cert = check(omega)
        assert cert.kind == "refuted"
        assert cert.detail == "coefficient matrix is singular"
        assert set(dict(cert.witness)) == set(ch.names)


def _overflowing(name):
    """e^{400 v} e^{401 v}, which is inf for v above about 0.886."""
    v = var(name)
    return mul(expr.exp(mul(Const(Fraction(400)), v)),
               expr.exp(mul(Const(Fraction(401)), v)))


def _overflowing_difference(name):
    """e^{900 v} e^{903 v} (e^{906 v} - e^{909 v}): -inf for v above about
    0.393 and NaN (inf - inf) above about 0.781."""
    e = [expr.exp(mul(Const(Fraction(a)), var(name)))
         for a in (900, 903, 906, 909)]
    return mul(e[0], e[1], add(e[2], mul(-1, e[3])))


def test_dual_roundtrip_refutes_nan_error():
    # W has an inf entry, so P W has NaN entries; max() used to skip them
    # and certified a margin of 1e-08
    ch = Chart(("x", "y", "z", "w"),
               ((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5), (1.0, 1.7)), "x")
    omega = make_form(ch, 2, [(0, ONE, ("x", "y")),
                              (0, _overflowing("w"), ("z", "w"))])
    cert = dual_roundtrip_check(omega)
    assert cert.kind == "refuted"
    assert cert.detail == "P W differs from the identity"
    assert math.isnan(cert.min_margin)
    assert dict(cert.witness)["w"] > 0.886


def test_dual_checks_refute_where_the_matrix_is_undefined():
    # sqrt(y) dz ^ dw is undefined for y < 0: each check refutes at such a
    # point instead of raising
    ch = Chart(("x", "y", "z", "w"), ((-0.5, 0.5),) * 4, "x")
    omega = make_form(ch, 2, [(0, ONE, ("x", "y")),
                              (0, expr.sqrt(var("y")), ("z", "w"))])
    for check in (dual_roundtrip_check, dual_jacobi_check):
        cert = check(omega)
        assert cert.kind == "refuted"
        assert cert.detail.startswith("coefficient matrix undefined")
        assert dict(cert.witness)["y"] < 0


def test_dual_checks_sample_inside_the_chart(monkeypatch):
    # on x in (-100, 1) the off-pole box used to be (5.05, 1), so both
    # checks sampled x only in (1, 5.05), outside the chart, where
    # sqrt(1 - x) is undefined
    ch = Chart(("x", "y", "z", "w"), ((-100.0, 1.0),) + ((-1.0, 1.0),) * 3,
               "x")
    omega = make_form(ch, 2, [(0, expr.sqrt(add(ONE, mul(-1, var("x")))),
                               ("x", "y")),
                              (0, ONE, ("z", "w"))])
    seen = []

    def recording(names, domain, n_samples, *rest):
        pts = expr.sample_points(names, domain, n_samples, *rest)
        seen.extend(pts)
        return pts

    monkeypatch.setattr(duality, "sample_points", recording)
    for check in (dual_roundtrip_check, dual_jacobi_check):
        seen.clear()
        assert check(omega).passed
        assert len(seen) == 100
        for pt in seen:
            for name, (lo, hi) in zip(ch.names, ch.ranges):
                assert lo < pt[name] < hi, (check.__name__, name, pt[name])


def test_dual_jacobi_refutes_non_closed_form():
    # dx ^ dy + (1 + x^2) dz ^ dw is nondegenerate but not closed, so its
    # dual is not Poisson
    ch = Chart(("x", "y", "z", "w"), ((0.1, 1.0),) * 4, None)
    omega = make_form(ch, 2, [(0, ONE, ("x", "y")),
                              (0, add(ONE, mul(var("x"), var("x"))),
                               ("z", "w"))])
    assert dual_roundtrip_check(omega).passed
    cert = dual_jacobi_check(omega)
    assert cert.kind == "refuted"
    assert cert.witness is not None


def test_dual_checks_do_not_import_numpy():
    # numpy would raise the peak memory of every run that checks a dual
    code = (
        "import sys\n"
        "from scatsym.catalog import build_example\n"
        "from scatsym.structures import dual_jacobi_check, "
        "dual_roundtrip_check\n"
        "omega = build_example('sc-darboux', n=1).omega\n"
        "assert dual_roundtrip_check(omega).passed\n"
        "assert dual_jacobi_check(omega).passed\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(scatsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_reeb_fallback_does_not_import_numpy():
    # the Reeb field of the symplectization record is built symbolically,
    # in pure Python
    code = (
        "import sys\n"
        "from scatsym.catalog import build_example, run_example\n"
        "from scatsym.geometry import SingularForm\n"
        "from scatsym.structures import induced_contact\n"
        "rec = build_example('symplectization', z='t3')\n"
        "assert isinstance(induced_contact(rec.omega).reeb, SingularForm)\n"
        "assert run_example(rec)['passed']\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(scatsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_numpy():
    pkg = Path(scatsym.__file__).resolve().parent
    pattern = re.compile(r"^\s*(import|from)\s+numpy\b", re.MULTILINE)
    offenders = [f.name for f in sorted(pkg.rglob("*.py"))
                 if pattern.search(f.read_text(encoding="utf-8"))]
    assert offenders == []


def test_only_expr_names_evaluate_dag():
    # the duality checks sample W through compile_floats; evaluate_dag
    # stays in expr only while the benchmark tracer still times it
    pkg = Path(scatsym.__file__).resolve().parent
    offenders = [f.name for f in sorted(pkg.rglob("*.py"))
                 if f.name != "expr.py"
                 and "evaluate_dag" in f.read_text(encoding="utf-8")]
    assert offenders == []


def _bits(v):
    return "nan" if math.isnan(v) else (v, math.copysign(1.0, v))


@pytest.mark.parametrize("name, params", [
    ("sc-poisson-darboux", {"n": 3}),
    ("euclidean-end", {"n": 2}),
])
def test_sample_matrix_is_evaluate_bit_for_bit(monkeypatch, name, params):
    omega = build_example(name, **params).omega
    ch, m = omega.chart, _full_matrix(omega)
    mats = [m] + [[[differentiate(e, nm) for e in row] for row in m]
                  for nm in ch.names]
    d, count = ch.dim, 0
    monkeypatch.setattr(duality, "_last_pass", None)
    run = _dual_samples(omega, True)
    for pt, w, values, _ in run.samples:
        # the pass keeps the partials' entries at its slots; the rest are ZERO
        dw = [[[0.0] * d for _ in range(d)] for _ in range(d)]
        for (k, i, j), v in zip(run.slots, values):
            dw[k][i][j] = v
        for got, want in zip([w] + dw, mats):
            assert [[_bits(v) for v in row] for row in got] == \
                [[_bits(float(evaluate(e, pt))) for e in row] for row in want]
        count += 1
    assert count == 100

    def tree_walk(*args):
        raise AssertionError("evaluate_dag called")

    monkeypatch.setattr(expr, "evaluate_dag", tree_walk)
    assert dual_roundtrip_check(omega).passed
    assert dual_jacobi_check(omega).passed


# the dense duality checks the sparse kernels replaced, kept as the
# reference they must equal bit for bit


def _dense_samples(f, partials):
    ch, m = f.chart, _full_matrix(f)
    mats = [m] + ([[[differentiate(e, nm) for e in row] for row in m]
                   for nm in ch.names] if partials else [])
    values_at = compile_floats([e for a in mats for row in a for e in row])
    d = ch.dim
    for pt in expr.sample_points(ch.names, off_pole_domain(ch), 100):
        try:
            flat = values_at(pt)
        except expr.DomainError as e:
            yield pt, None, e
            return
        values = [[flat[k + i:k + i + d] for i in range(0, d * d, d)]
                  for k in range(0, len(flat), d * d)]
        yield pt, values[0], values[1:]


def _dense_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _dense_roundtrip(omega):
    tol = structures.TOL_NONDEG
    worst = 0.0
    for pt, w, error in _dense_samples(omega, False):
        if w is None:
            return refuted(pt, detail=f"coefficient matrix undefined, {error}")
        p = float_inverse(w)
        if p is None:
            return refuted(pt, detail="coefficient matrix is singular")
        err = expr.nan_max(abs(v - (i == j)) for i, row in
                           enumerate(_dense_matmul(p, w))
                           for j, v in enumerate(row))
        if not err <= tol:
            return refuted(pt, tol - err, detail="P W differs from the identity")
        worst = max(worst, err)
    return verified(100, tol, tol - worst,
                    detail="pi-sharp . omega-flat = id (P W = I)")


def _dense_jacobi(omega):
    tol = structures.TOL_CLOSED
    samples = []
    for pt, w, dw in _dense_samples(omega, True):
        if w is None:
            return refuted(pt, detail=f"coefficient matrix undefined, {dw}")
        p = float_inverse(w)
        if p is None:
            return refuted(pt, detail="coefficient matrix is singular")
        dp = [[[-v for v in row]
               for row in _dense_matmul(_dense_matmul(p, a), p)] for a in dw]
        samples.append((pt, p, dp))
    d = omega.chart.dim
    worst = 0.0
    for pt, p, dp in samples:
        for i in range(d):
            for j in range(i + 1, d):
                for l in range(j + 1, d):
                    comp = 0.0
                    for m in range(d):
                        comp += (p[m][i] * dp[m][j][l]
                                 + p[m][j] * dp[m][l][i]
                                 + p[m][l] * dp[m][i][j])
                    if not abs(comp) <= tol:
                        return refuted(pt, tol - abs(comp),
                                       detail=f"[pi,pi]^({i},{j},{l}) != 0")
                    worst = max(worst, abs(comp))
    if d <= 2:
        return proven(detail="Jacobi is automatic below three components")
    return verified(len(samples), tol, tol - worst, detail="[pi,pi] = 0")


def _cert_bits(c):
    margin = None if c.min_margin is None else _bits(c.min_margin)
    return (c.kind, c.grid_points, c.tolerance, margin, c.witness, c.detail)


def _random_two_form(rng, d):
    """Darboux pairs, random constant entries and a few random others: a
    closed form (the constants plus d of a polynomial 1-form), a non-closed
    one, one with an entry that overflows to inf or to NaN, one with a
    subnormal entry, or one that is singular where y1 < 0.2."""
    names = ("x",) + tuple(f"y{i}" for i in range(1, d))
    ch = Chart(names, ((-0.5, 0.5),) + ((-1.0, 1.0),) * (d - 1),
               rng.choice(["x", None]))
    v = [var(n) for n in names]

    def poly():
        return add(*[mul(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                         *rng.sample(v, rng.randint(0, 2)))
                     for _ in range(rng.randint(1, 3))])

    kind = rng.choice(["closed", "open", "inf", "nan", "tiny", "singular"])
    terms = [(rng.choice([0, 0, 1, 2]) if ch.x else 0, ONE,
              (names[i], names[i + 1])) for i in range(0, d, 2)]
    if kind == "singular":
        step = expr.PiecewiseDecay(add(var("y1"), Fraction(-1, 5)), "t", (
            expr.Piece(None, 0, Const(Fraction(0))),
            expr.Piece(0, None, ONE)))
        terms[-1] = (0, step, terms[-1][2])
    if kind == "tiny":  # a subnormal entry: W^{-1} overflows to inf
        terms[0] = (0, Const(Fraction(1, 10 ** 310)), terms[0][2])
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    for a, b in rng.sample(pairs, rng.randint(0, len(pairs))):
        # constant entries: P dense, d_m W still sparse
        terms.append((0, Const(Fraction(rng.randint(-4, 4), 9)),
                      (names[a], names[b])))
    for a, b in rng.sample(pairs, rng.randint(1, 3)):
        c = {"inf": _overflowing, "nan": _overflowing_difference}.get(
            kind, lambda name: poly())(names[b])
        terms.append((0, mul(Fraction(1, 10), c), (names[a], names[b])))
    omega = make_form(ch, 2, terms)
    if kind == "closed":
        omega = make_form(ch, 2, [t for t in terms if isinstance(t[1], Const)])
        alpha = smooth_form(ch, {(n,): mul(Fraction(1, 10), poly())
                                 for n in rng.sample(names, 2)})
        omega = omega + exterior_derivative(alpha)
    return kind, omega


def _inverse_at(omega, witness):
    """P = W^{-1} of omega at a certificate's witness point."""
    values = compile_floats([e for row in _full_matrix(omega) for e in row])
    flat, d = values(dict(witness)), omega.chart.dim
    return float_inverse([flat[i:i + d] for i in range(0, d * d, d)])


def _assert_as_dense(omega, got, want):
    """got is the dense reference's Certificate with bit-equal margins, or
    both refute at a point where P has a non-finite entry, which the
    reference reaches as a NaN or infinite error."""
    if got.detail != duality.NOT_FINITE:
        assert _cert_bits(got) == _cert_bits(want)
        return
    assert got.kind == want.kind == "refuted"
    assert got.witness == want.witness and got.min_margin is None
    p = _inverse_at(omega, got.witness)
    assert not all(math.isfinite(v) for row in p for v in row)


def test_sparse_dual_checks_equal_the_dense_ones(monkeypatch):
    # random forms with structural zeros, d = 4 and 6: both checks give the
    # dense code's Certificate, whether the round trip samples afresh or
    # reuses the Jacobi pass, bit for bit wherever P is finite
    rng = random.Random(2023)
    seen, not_finite = set(), 0
    for _ in range(30):
        kind, omega = _random_two_form(rng, rng.choice([4, 6]))
        want_rt, want_jac = _dense_roundtrip(omega), _dense_jacobi(omega)
        monkeypatch.setattr(duality, "_last_pass", None)
        fresh_rt = dual_roundtrip_check(omega)
        jac, reused_rt = dual_jacobi_check(omega), dual_roundtrip_check(omega)
        for got, want in ((jac, want_jac), (fresh_rt, want_rt),
                          (reused_rt, want_rt)):
            _assert_as_dense(omega, got, want)
        not_finite += duality.NOT_FINITE in (jac.detail, fresh_rt.detail)
        seen.add((kind, want_rt.detail, want_jac.detail.split("^")[0]))
    assert {detail for _, detail, _ in seen} >= {
        "pi-sharp . omega-flat = id (P W = I)",
        "P W differs from the identity", "coefficient matrix is singular"}
    assert {detail for _, _, detail in seen} >= {"[pi,pi] = 0", "[pi,pi]"}
    assert not_finite >= 4  # P had a non-finite entry somewhere
    # d = 2 with a subnormal entry: P is inf at every sample, so the round
    # trip refutes at the reference's witness, and Jacobi holds below three
    # components
    ch = Chart(("x", "y"), ((-0.5, 0.5), (-1.0, 1.0)), None)
    omega = make_form(ch, 2, [(0, Const(Fraction(1, 10 ** 310)),
                               ("x", "y"))])
    rt = dual_roundtrip_check(omega)
    assert rt.detail == duality.NOT_FINITE
    _assert_as_dense(omega, rt, _dense_roundtrip(omega))
    assert dual_jacobi_check(omega).kind == _dense_jacobi(omega).kind \
        == "proven"


def test_the_round_trip_reuses_the_jacobi_pass(monkeypatch):
    compiled = []

    def counting(exprs):
        compiled.append(len(exprs))
        return compile_floats(exprs)

    monkeypatch.setattr(duality, "compile_floats", counting)
    monkeypatch.setattr(duality, "_last_pass", None)
    omega = build_example("sc-poisson-darboux", n=2).omega
    assert dual_jacobi_check(omega).passed
    assert dual_roundtrip_check(omega).passed
    assert len(compiled) == 1
    # an equal form built afresh is the same form
    same = build_example("sc-poisson-darboux", n=2).omega
    assert dual_roundtrip_check(same).passed and len(compiled) == 1
    other = build_example("sc-darboux", n=2).omega
    assert dual_jacobi_check(other).passed
    assert dual_roundtrip_check(other).passed
    assert len(compiled) == 2
    # a form on another chart is another pass
    narrow = Chart(other.chart.names, ((0.1, 0.2),) + other.chart.ranges[1:],
                   other.chart.x)
    moved = make_form(narrow, 2, other.terms)
    dual_jacobi_check(moved)
    dual_roundtrip_check(moved)
    assert len(compiled) == 3


def test_glued_dual_compiles_w_once(monkeypatch):
    # the round trip reuses the pass of the Jacobi check on the same form
    compiled = []

    def counting(exprs):
        compiled.append(len(exprs))
        return compile_floats(exprs)

    monkeypatch.setattr(duality, "compile_floats", counting)
    monkeypatch.setattr(duality, "_last_pass", None)
    rec = build_example("t2xs2")
    assert _run_check(rec, "glued-dual", 3).passed
    assert compiled == [32]


def test_the_round_trip_does_not_reuse_a_pass_a_partial_stopped(monkeypatch):
    # a partial undefined where W is defined refutes Jacobi, but the round
    # trip reads only W, so it samples afresh and passes
    ch = Chart(("x", "y", "z", "w"), ((-0.5, 0.5),) * 4, None)
    omega = make_form(ch, 2, [(0, ONE, ("x", "y")), (0, ONE, ("z", "w"))])
    compiled = []

    def counting(exprs):
        compiled.append(len(exprs))
        return compile_floats(exprs)

    def undefined_partial(e, name):
        return expr.sqrt(var("y")) if name == "x" else ZERO

    monkeypatch.setattr(duality, "compile_floats", counting)
    monkeypatch.setattr(duality, "differentiate", undefined_partial)
    monkeypatch.setattr(duality, "_last_pass", None)
    jac = dual_jacobi_check(omega)
    assert jac.detail.startswith("coefficient matrix undefined")
    assert dual_roundtrip_check(omega).passed
    assert len(compiled) == 2


def test_only_geometry_folds_poles():
    # the pole x^{-k} is folded into a coefficient by SingularForm.pole_sums
    pkg = Path(scatsym.__file__).resolve().parent
    pattern = re.compile(r"powx\(var\([^)]*\.x\)|\*\* \(-k\)")
    offenders = [f.name for f in sorted(pkg.rglob("*.py"))
                 if f.name != "geometry.py"
                 and pattern.search(f.read_text(encoding="utf-8"))]
    assert offenders == []


def _compiled_form(f):
    """point -> {multi-index: coefficient} through compile_floats."""
    sums = f.pole_sums()
    values = compile_floats(list(sums.values()))
    return lambda pt: dict(zip(sums, values(pt)))


def test_sampled_reeb_field_solves_the_reeb_equations():
    # alpha(R) = 1 and i_R d(alpha) = 0 in floats at the grid points, for
    # the closed-form field of the symplectization record
    rec = build_example("symplectization", z="s1")
    data = induced_contact(rec.omega)
    ch = data.chart
    alpha_at, two_at, reeb_at = (_compiled_form(f) for f in (
        data.alpha, exterior_derivative(data.alpha), data.reeb))
    for pt in chart_grid(ch, 5):
        r = dict.fromkeys(ch.names, 0.0)
        r.update((name, v) for (name,), v in reeb_at(pt).items())
        assert sum(v * r[a] for (a,), v in alpha_at(pt).items()) \
            == pytest.approx(1.0)
        contraction = dict.fromkeys(ch.names, 0.0)
        for (a, b), v in two_at(pt).items():  # i_R (v da ^ db)
            contraction[b] += r[a] * v
            contraction[a] -= r[b] * v
        assert all(abs(v) <= 1e-9 for v in contraction.values())


_XYZ = Chart(("x", "y", "z"), ((0.5, 1.0),) * 3, None)
_UV = Chart(("u", "v"), ((0.5, 1.0),) * 2, None)
_D_U = make_form(_UV, 1, [(0, ONE, ("u",))], "vector")


@pytest.mark.parametrize("alpha, two", [
    # alpha = x dy: alpha ^ d(alpha) = x dy ^ dx ^ dy vanishes identically
    (make_form(_XYZ, 1, [(0, var("x"), ("y",))]), None),
    # on a plane i_R (du ^ dv) = 0 forces R = 0
    (make_form(_UV, 1, [(0, var("u"), ("v",))]),
     make_form(_UV, 2, [(0, ONE, ("u", "v"))])),
])
def test_reeb_fallback_refutes_with_witness(alpha, two):
    with pytest.raises(StructureError):
        reeb(alpha, two)


@pytest.mark.parametrize("data", [
    ContactData(_UV, make_form(_UV, 1, [(0, var("u"), ("v",))]), _D_U),
    CosymplecticData(_UV, make_form(_UV, 1, [(0, ONE, ("u",))]),
                     make_form(_UV, 2, [(0, ONE, ("u", "v"))]), _D_U),
])
def test_data_with_a_refuted_reeb_solve_refutes(data):
    # the volume alone is nonvanishing, but an even-dimensional chart has
    # no Reeb field
    one, two = (data.alpha, None) if isinstance(data, ContactData) \
        else (data.theta, data.eta)
    with pytest.raises(StructureError, match="odd-dimensional"):
        reeb(one, two)
    with pytest.raises(StructureError, match="odd-dimensional"):
        data.verify(chart_grid(_UV, 5))


@pytest.mark.parametrize("contact", [torus_contact, s2xs1_contact,
                                     circle_contact])
def test_reeb_matches_the_hand_written_fields(contact):
    c = contact()
    assert forms_equal(reeb(c.alpha), c.reeb).is_zero


@pytest.mark.parametrize("n", [2, 3])
def test_induced_darboux_reeb_field_satisfies_the_identities(n):
    ch = darboux_chart(n)
    omega = normal_form(ch, darboux_contact_primitive(ch, n, inner_sign=-1),
                        None, None)
    data = induced_contact(omega)
    assert data.reeb.kind == "vector"
    assert _reeb_identities(data.reeb, data.alpha,
                            exterior_derivative(data.alpha))
    assert data.verify(chart_grid(data.chart, 3)).passed


def test_reeb_of_a_somewhere_undefined_alpha_refutes_with_witness():
    # sqrt(y) dz + y w dw is undefined for y < 0: reeb builds the field
    # symbolically, and verify refutes at such a point
    ch = Chart(("y", "z", "w"), ((-0.5, 0.5),) * 3, None)
    y, w = var("y"), var("w")
    alpha = smooth_form(ch, {("z",): expr.sqrt(y), ("w",): mul(y, w)})
    cert = ContactData(ch, alpha, reeb(alpha)).verify(chart_grid(ch, 5))
    assert cert.kind == "refuted"
    assert dict(cert.witness)["y"] < 0


def test_cosymplectic_extract():
    rec = build_example("b2-r-times-t3")
    data = cosymplectic_extract(rec.extras["normal_form"], rec.extras["k"])
    cert = data.verify(chart_grid(data.chart, 9))
    assert cert.passed


def test_cosymplectic_extract_requires_slot(darboux):
    ch, _, omega = darboux
    with pytest.raises(StructureError):
        cosymplectic_extract(omega, 5)


def test_lift_restores_pole(darboux):
    ch, alpha, _ = darboux
    lifted = lift(alpha, ch, k=2)
    assert lifted.max_pole() == 2
    assert lifted.chart == ch
