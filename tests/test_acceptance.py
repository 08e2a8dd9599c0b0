"""Acceptance suite: one test per criterion, named criterion_01 .. _10,
so the verbose pytest run prints one pass/fail line for each."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from scatsym.algebroids import no_go_check
from scatsym.catalog import (
    build_example, list_examples, run_example, torus_contact,
)
from scatsym.cli import EXIT_PASS, main
from scatsym.cohomology import (
    BettiProfile, FiniteRank, InfiniteDimensional, bk_poisson,
)
from scatsym.examples import (
    darboux_chart, darboux_contact_primitive, sphere_slot_coefficient,
)
from scatsym.expr import (
    Const, ONE, add, canon, cos, is_provably_zero, mul, powx, sin, var,
)
from scatsym.geometry import (
    Chart, exterior_derivative, forms_equal, interior_product, make_form,
    smooth_form, wedge, zero_form,
)
from scatsym.gluing import GLUE_R, certify_folded_gluing, certify_sc_gluing
from scatsym.quotient import (
    d_h_squared_check, horizontal_d, lie_derivative,
    quotient_kernel_check_rigged, quotient_kernel_check_sc,
)
from scatsym.structures import (
    ContactData, closedness, dual_jacobi_check, dual_roundtrip_check,
    dualize, lift, normal_form, strong_filling_check, verify_sc_symplectic,
    z_chart,
)

TWO_PI = 2.0 * math.pi
SEED = 0x5CA77E12


# ---------------------------------------------------------------------------
# 1. sphere family


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_01_sphere_verification(n):
    rec = build_example("sc-sphere", n=n)
    # closedness at 500 sampled points, tolerance 1e-9, on the U_{x1} chart
    assert closedness(rec.omega, tol=1e-9).is_zero
    # full record: non-degeneracy including x = 0, the pole chart, and the
    # structural coefficient identity
    rep = run_example(rec)
    failing = {k: v for k, v in rep["checks"].items() if not v["passed"]}
    assert rep["passed"], failing
    # the dz/z^3 ^ dy1 coefficient is -(x1 + y1^2/x1 + z^2/x1) with
    # x1 = sqrt(1 - sum of the squares of the other coordinates)
    got = sphere_slot_coefficient(rec.omega, "z", "y1")
    sq = [powx(var(nm), 2) for nm in rec.omega.chart.names]
    x1 = powx(add(ONE, *[mul(Const(Fraction(-1)), s) for s in sq]),
              Fraction(1, 2))
    want = mul(Const(Fraction(-1)),
               add(x1, mul(powx(var("y1"), 2), powx(x1, -1)),
                   mul(powx(var("z"), 2), powx(x1, -1))))
    assert is_provably_zero(canon(add(got, mul(Const(Fraction(-1)), want))))


# ---------------------------------------------------------------------------
# 2. gluing inequality constants


def test_criterion_02_gluing_constants():
    rec = build_example("t2xs2")
    cert = certify_sc_gluing(rec.extras["glued_sc"])
    parts = dict(cert.parts)
    c1 = parts["phi_quotient_exceeds_139"]
    assert c1.passed and c1.grid_points >= 10000
    c2 = parts["psi_slope_at_least_minus_128"]
    assert c2.passed and c2.grid_points >= 10000
    # min B > 0 and min(A - B) > 0 on (1/2, 1), refined to 1e-6 of the locus
    assert parts["b_positive"].passed
    assert parts["a_minus_b_positive"].passed


# ---------------------------------------------------------------------------
# 3. folded gluing


def test_criterion_03_folded_gluing():
    rec = build_example("t2xs2")
    cert = certify_folded_gluing(rec.extras["glued_folded"])
    parts = dict(cert.parts)
    assert parts["gap_on_1_2"].passed      # e^r - 4 e^{-r} > 0 on (1, 2)
    assert parts["ratio_on_0_1"].passed    # e^{2r} > 1 on (0, 1]
    assert parts["fold"].passed            # transversal fold at r = 0
    assert parts["restriction_is_2_dalpha"].is_zero
    assert cert.passed


# ---------------------------------------------------------------------------
# 4. duality round trip and Jacobi on every catalog symplectic form


_DUAL_CASES = [
    ("euclidean-end", {"n": 1}), ("euclidean-end", {"n": 2}),
    ("sc-sphere", {"n": 1}), ("sc-sphere", {"n": 2}),
    ("symplectization", {"z": "s1"}), ("symplectization", {"z": "t3"}),
    ("sc-darboux", {"n": 1}), ("sc-darboux", {"n": 2}),
    ("sc-poisson-darboux", {"n": 1}), ("sc-poisson-darboux", {"n": 2}),
]


@pytest.mark.parametrize("name,params", _DUAL_CASES,
                         ids=[f"{n}-{p}" for n, p in _DUAL_CASES])
def test_criterion_04_duality(name, params):
    omega = build_example(name, **params).omega
    assert dual_roundtrip_check(omega).passed
    assert dual_jacobi_check(omega).passed


@pytest.mark.parametrize("name", ["t2xs2", "s3xs1"])
def test_criterion_04_duality_glued(name):
    # the glued form on its sub-chart r1 in (0.55, 0.9), off the gluing locus
    rec = build_example(name)
    f = rec.extras["dual_form"]
    assert f.terms == rec.omega.terms
    assert f.chart.box()[GLUE_R] == (0.55, 0.9)
    assert dual_jacobi_check(f).passed
    assert dual_roundtrip_check(f).passed


def test_criterion_04_darboux_dual_structural():
    rec = build_example("sc-poisson-darboux", n=2)
    pi = dualize(rec.omega)
    diff = pi + rec.extras["dual_model"].scale(Const(Fraction(-1)))
    assert diff.is_zero_form


# ---------------------------------------------------------------------------
# 5. quotient-complex kernel relations, 100 randomized trials each


def _torus_chart(dim):
    names = tuple(f"t{i}" for i in range(1, dim + 1))
    return Chart(names, ((0.0, TWO_PI),) * dim, None, frozenset(names))


def _with_x(zch):
    return Chart(("x",) + zch.names, ((-1.0, 1.0),) + zch.ranges, "x",
                 zch.circles)


def _random_coeff(rng, names):
    pool = [ONE, Const(Fraction(rng.randint(1, 3)))]
    pool += [sin(var(nm)) for nm in names[:3]]
    pool += [cos(var(nm)) for nm in names[:3]]
    a, b = rng.choice(pool), rng.choice(pool)
    return mul(a, b) if rng.random() < 0.5 else a


def _random_form(rng, zch, degree, count=2):
    if degree == 0:
        return make_form(zch, 0, [(0, _random_coeff(rng, zch.names), ())])
    idxs = list(combinations(zch.names, degree))
    chosen = rng.sample(idxs, min(count, len(idxs)))
    return smooth_form(zch, {idx: _random_coeff(rng, zch.names)
                             for idx in chosen})


def test_criterion_05_sc_quotient_relations():
    rng = random.Random(SEED)
    zch = _torus_chart(6)
    ch = _with_x(zch)
    for trial in range(100):
        p = 1 + trial % 6
        alphas = [_random_form(rng, zch, p - 1) for _ in range(p)]
        betas = [exterior_derivative(a).scale(Const(Fraction(-1, p - i)))
                 for i, a in enumerate(alphas)]
        perturb = trial % 2 == 1
        slot = rng.randrange(p) if perturb else None
        if perturb:
            extra = _random_form(rng, zch, p, count=1)
            while extra.is_zero_form:
                extra = _random_form(rng, zch, p, count=1)
            betas[slot] = betas[slot] + extra
        v = quotient_kernel_check_sc(ch, alphas, betas, p, n_samples=60)
        assert v.consistent, (trial, p)
        if perturb:
            assert not v.closed.is_zero and slot in v.offending, (trial, p)
        else:
            assert v.closed.is_zero and v.relations_hold, (trial, p)


def _xi_basis(zch):
    # contact alpha = cos t1 dt2 + sin t1 dt3 on T^3; the Reeb annihilator
    # is spanned by dt1 and tau = -sin t1 dt2 + cos t1 dt3
    dt1 = smooth_form(zch, {("t1",): ONE})
    tau = make_form(zch, 1, [
        (0, mul(Const(Fraction(-1)), sin(var("t1"))), ("t2",)),
        (0, cos(var("t1")), ("t3",))])
    return dt1, tau


def test_criterion_05_rigged_quotient_relations():
    rng = random.Random(SEED + 1)
    zch = _torus_chart(3)
    ch = _with_x(zch)
    alpha = smooth_form(zch, {("t2",): cos(var("t1")),
                              ("t3",): sin(var("t1"))})
    reeb = make_form(zch, 1, [(0, cos(var("t1")), ("t2",)),
                              (0, sin(var("t1")), ("t3",))], "vector")
    contact = ContactData(zch, alpha, reeb)
    dt1, tau = _xi_basis(zch)
    for trial in range(100):
        k = 1 + trial % 3
        n_slots = rng.randint(1, min(2 * k, 2))
        etas = [_random_form(rng, zch, k - 1) for _ in range(n_slots)]
        betas = [exterior_derivative(e).scale(Const(Fraction(-1, 2 * k - i)))
                 for i, e in enumerate(etas)]
        if k == 3:
            theta = dt1.scale(_random_coeff(rng, zch.names)) \
                + tau.scale(_random_coeff(rng, zch.names))
            dth = exterior_derivative(theta)
            gamma = (dth - wedge(alpha, interior_product(reeb, dth))
                     ).scale(Const(Fraction(1, 2 * k + 1)))
        else:
            theta, gamma = None, None
        perturb = trial % 2 == 1
        target = rng.choice(["beta", "gamma"]) if perturb else None
        if target == "beta":
            slot = rng.randrange(n_slots)
            extra = _random_form(rng, zch, k, count=1)
            while extra.is_zero_form:
                extra = _random_form(rng, zch, k, count=1)
            betas[slot] = betas[slot] + extra
        elif target == "gamma":
            base = gamma if gamma is not None else zero_form(zch, k - 1)
            if k == 1:
                extra = make_form(zch, 0, [(0, ONE, ())])
            elif k == 2:
                extra = dt1
            else:
                extra = wedge(dt1, tau)
            gamma = base + extra
        v = quotient_kernel_check_rigged(ch, contact, etas, betas, theta,
                                         gamma, k, n_samples=60)
        assert v.consistent, (trial, k, target)
        if perturb:
            assert not v.closed.is_zero, (trial, k, target)
            if target == "beta":
                assert f"beta_{slot}" in v.offending, (trial, k)
            else:
                assert "gamma" in v.offending, (trial, k)
        else:
            assert v.closed.is_zero and v.relations_hold, (trial, k)


# ---------------------------------------------------------------------------
# 6. horizontal complex


@pytest.mark.parametrize("dim", [3, 5])
def test_criterion_06_horizontal_complex(dim):
    rng = random.Random(SEED + dim)
    zch = _torus_chart(dim)
    theta = smooth_form(zch, {("t1",): ONE})
    reeb = make_form(zch, 1, [(0, ONE, ("t1",))], "vector")
    horizontal_names = zch.names[1:]
    for trial in range(50):
        degree = 1 + trial % 2
        idxs = list(combinations(horizontal_names, degree))
        chosen = rng.sample(idxs, min(2, len(idxs)))
        sigma = smooth_form(zch, {idx: _random_coeff(rng, zch.names)
                                  for idx in chosen})
        v = d_h_squared_check(sigma, theta, reeb, tol=1e-9)
        assert v.passed, trial


def test_criterion_06_b2_example_exact():
    zch = _torus_chart(3)
    theta = smooth_form(zch, {("t1",): ONE})
    reeb = make_form(zch, 1, [(0, ONE, ("t1",))], "vector")
    sigma = smooth_form(zch, {("t3",): cos(var("t1"))})
    assert horizontal_d(sigma, theta, reeb).is_zero_form
    lr = lie_derivative(sigma, reeb)
    want = smooth_form(zch, {("t3",): mul(Const(Fraction(-1)),
                                          sin(var("t1")))})
    assert (lr + want.scale(Const(Fraction(-1)))).is_zero_form


# ---------------------------------------------------------------------------
# 7. b^k torus cohomology formula


def test_criterion_07_bk_poisson_torus_formula():
    for n in (1, 2):
        prof = BettiProfile.bk_torus(n)
        dim = 2 * n
        for k in (1, 2, 3):
            for p in range(dim + 1):
                rep = bk_poisson(prof, p, k)
                # finite part: H^p(T^{2n}) plus two Z = T^{2n-1} factors
                expect_finite = math.comb(dim, p)
                if p >= 1:
                    expect_finite += 2 * math.comb(dim - 1, p - 1)
                assert rep.finite_rank == expect_finite, (n, k, p)
                infs = [s for s in rep.summands
                        if isinstance(s, InfiniteDimensional)]
                if k == 1:
                    assert not infs, (n, p)
                    assert all(isinstance(s, FiniteRank)
                               for s in rep.summands)
                else:
                    degrees = [q for q in (p - 2, p - 1) if q >= 0]
                    assert len(infs) == 2 * (k - 1) * len(degrees), (n, k, p)
                    for q in degrees:
                        want = f"C^inf(S^1; H^{q}(T^{dim - 2}))"
                        assert sum(1 for s in infs
                                   if s.descriptor == want) == 2 * (k - 1)


# ---------------------------------------------------------------------------
# 8. no-go obstruction


@pytest.mark.parametrize("m,k,dim", [(1, 0, 4), (1, 2, 4), (2, 3, 6)])
def test_criterion_08_no_go(m, k, dim):
    rep = no_go_check(m, k, dim, seed=SEED)
    assert rep.applicable
    assert rep.beta_forced_zero
    assert rep.top_power_vanishes
    assert rep.refutes


# ---------------------------------------------------------------------------
# 9. filling criterion


@pytest.mark.parametrize("z", ["s1", "t3"])
def test_criterion_09_symplectization_fills(z):
    rec = build_example("symplectization", z=z)
    omega = rec.omega
    verdict = strong_filling_check(omega, tol=1e-9)
    assert verdict.filling and verdict.passed
    # i_V omega = alpha / x^2 for V = -(x/2) d/dx, checked at tolerance 1e-9
    ch = omega.chart
    v = make_form(ch, 1, [(-1, Const(Fraction(-1, 2)), (ch.x,))], "vector")
    alpha = rec.extras["contact"].alpha
    assert forms_equal(interior_product(v, omega), lift(alpha, ch, k=2),
                       tol=1e-9).is_zero


def test_criterion_09_nonzero_slots_block_filling():
    ch = darboux_chart(2)
    alpha = darboux_contact_primitive(ch, 2, inner_sign=-1)
    zch = z_chart(ch)
    with_b1 = normal_form(ch, alpha, smooth_form(zch, {("x2",): ONE}), None)
    v1 = strong_filling_check(with_b1)
    assert not v1.filling and v1.nonzero_slot == "b1"
    with_b2 = normal_form(ch, alpha, None,
                          smooth_form(zch, {("x2", "y2"): ONE}))
    v2 = strong_filling_check(with_b2)
    assert not v2.filling and v2.nonzero_slot == "b2"


# ---------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_reports_byte_identical(tmp_path):
    digests = []
    for tag in ("first", "second"):
        blob = b""
        for name in list_examples():
            out = tmp_path / f"{tag}-{name}.json"
            code = main(["catalog", "run", name, "--seed", str(SEED),
                         "--out", str(out)])
            assert code == EXIT_PASS, name
            blob += out.read_bytes()
        for extra in (
            ["cohomology", "--theorem", "bk-poisson",
             "--profile", "bk-torus:2", "--p", "2", "--k", "3"],
            ["glue", "--kind", "folded"],
            ["verify", "--no-go", "--m", "1", "--k", "2", "--dim", "4"],
        ):
            out = tmp_path / f"{tag}-{extra[0]}-{len(blob)}.json"
            main([*extra, "--seed", str(SEED), "--out", str(out)])
            blob += out.read_bytes()
        digests.append(blob)
    assert digests[0] == digests[1]
