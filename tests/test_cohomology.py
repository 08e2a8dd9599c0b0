"""Cohomology formulas, the horizontal complex, and the quotient-complex
kernel relations."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from scatsym.cohomology import (
    BettiProfile, CohomologyError, FiniteRank, InfiniteDimensional,
    Unresolved, Zero, bk_poisson, kunneth, sc_derham, sc_poisson,
    torus_betti,
)
from scatsym.expr import Const, ONE, cos, mul, sin, var
from scatsym.geometry import (
    Chart, exact_singular, exterior_derivative, forms_equal, interior_product,
    make_form, smooth_form, wedge, zero_form,
)
from scatsym.quotient import (
    assemble_sc_quotient, d_h_squared_check, horizontal_d, lie_derivative,
    quotient_kernel_check_rigged, quotient_kernel_check_sc,
    rigged_closed_representative, sc_reduction_primitive,
)
from scatsym.structures import ContactData

TWO_PI = 2.0 * math.pi


def _circle_betti():
    return (1, 1)


def test_kunneth_rebuilds_torus_betti():
    # independent oracle: T^d Betti numbers by iterated products of S^1
    for dim in range(1, 6):
        betti = (1, 1)
        for _ in range(dim - 1):
            betti = kunneth(betti, _circle_betti())
        assert tuple(betti) == tuple(torus_betti(dim))
        assert betti == tuple(math.comb(dim, p) for p in range(dim + 1))


def test_sc_derham_summands():
    prof = BettiProfile.torus(4)
    rep = sc_derham(prof, 1)
    assert rep.summands[0] == FiniteRank(4, "H^1(M)")
    assert rep.summands[1] == FiniteRank(1, "H^0(Z)")
    assert isinstance(rep.summands[2], InfiniteDimensional)
    assert len(sc_derham(prof, 0).summands) == 1


def test_sc_poisson_kernel_slot():
    prof = BettiProfile.torus(4)
    rep = sc_poisson(prof, 2, 2)
    assert any(isinstance(s, Zero) and s.label == "K^0" for s in rep.summands)


def test_bk_poisson_k1_collapses():
    prof = BettiProfile.torus(4)
    rep = bk_poisson(prof, 2, 1)
    assert all(isinstance(s, FiniteRank) for s in rep.summands)
    assert rep.finite_rank == prof.b_m(2) + prof.z_components * prof.b_z(1)


def test_bk_poisson_torus_family():
    prof = BettiProfile.bk_torus(2)
    rep = bk_poisson(prof, 2, 3)
    assert rep.finite_rank == 6 + 2 * 3
    infs = [s for s in rep.summands if isinstance(s, InfiniteDimensional)]
    # 2 components x (k - 1) copies x 2 horizontal degrees
    assert len(infs) == 2 * 2 * 2


@pytest.fixture
def torus3():
    names = ("t1", "t2", "t3")
    return Chart(names, ((0.0, TWO_PI),) * 3, None, frozenset(names))


@pytest.fixture
def with_x(torus3):
    return Chart(("x",) + torus3.names, ((-1.0, 1.0),) + torus3.ranges, "x",
                 torus3.circles)


def test_horizontal_d_example(torus3):
    theta = smooth_form(torus3, {("t1",): ONE})
    reeb = make_form(torus3, 1, [(0, ONE, ("t1",))], "vector")
    sigma = smooth_form(torus3, {("t3",): cos(var("t1"))})
    assert horizontal_d(sigma, theta, reeb).is_zero_form
    lr = lie_derivative(sigma, reeb)
    want = smooth_form(torus3, {("t3",): mul(Const(Fraction(-1)),
                                             sin(var("t1")))})
    assert (lr + want.scale(Const(Fraction(-1)))).is_zero_form


def test_horizontal_d_rejects_non_horizontal(torus3):
    theta = smooth_form(torus3, {("t1",): ONE})
    reeb = make_form(torus3, 1, [(0, ONE, ("t1",))], "vector")
    sigma = smooth_form(torus3, {("t1",): cos(var("t2"))})
    with pytest.raises(CohomologyError):
        horizontal_d(sigma, theta, reeb)


def test_d_h_squared(torus3):
    theta = smooth_form(torus3, {("t1",): ONE})
    reeb = make_form(torus3, 1, [(0, ONE, ("t1",))], "vector")
    sigma = smooth_form(torus3, {("t2",): mul(sin(var("t1")),
                                              cos(var("t3")))})
    assert d_h_squared_check(sigma, theta, reeb).passed


def _random_alphas(torus3, p):
    coeffs = [cos(var("t3")), sin(var("t1")), mul(cos(var("t1")),
                                                  sin(var("t2")))]
    idxs = list(combinations(torus3.names, p - 1)) or [()]
    return [smooth_form(torus3, {idxs[i % len(idxs)]: coeffs[i % 3]})
            if p > 1 else
            make_form(torus3, 0, [(0, coeffs[i % 3], ())])
            for i in range(p)]


def test_sc_quotient_relations(torus3, with_x):
    p = 3
    alphas = _random_alphas(torus3, p)
    betas = [exterior_derivative(a).scale(Const(Fraction(-1, p - i)))
             for i, a in enumerate(alphas)]
    v = quotient_kernel_check_sc(with_x, alphas, betas, p)
    assert v.closed.is_zero and v.relations_hold and v.consistent

    bad = list(betas)
    bad[1] = bad[1] + smooth_form(torus3, {("t1", "t2", "t3"): ONE})
    v2 = quotient_kernel_check_sc(with_x, alphas, bad, p)
    assert not v2.closed.is_zero and not v2.relations_hold and v2.consistent
    assert 1 in v2.offending


def test_sc_reduction_identity(torus3, with_x):
    p = 3
    alphas = _random_alphas(torus3, p)
    betas = [exterior_derivative(a).scale(Const(Fraction(-1, p - i)))
             for i, a in enumerate(alphas)]
    nu = assemble_sc_quotient(with_x, alphas, betas, p)
    primitive = sc_reduction_primitive(with_x, alphas, p)
    reduced = nu - exterior_derivative(primitive)
    want = exact_singular(alphas[0], with_x, p)
    assert forms_equal(reduced, want).is_zero


@pytest.fixture
def contact3(torus3):
    alpha = smooth_form(torus3, {("t2",): cos(var("t1")),
                                 ("t3",): sin(var("t1"))})
    reeb = make_form(torus3, 1, [(0, cos(var("t1")), ("t2",)),
                                 (0, sin(var("t1")), ("t3",))], "vector")
    return ContactData(torus3, alpha, reeb)


def test_rigged_quotient_relations(torus3, with_x, contact3):
    k = 3
    etas = [smooth_form(torus3, {("t1", "t2"): cos(var("t3"))}),
            smooth_form(torus3, {("t2", "t3"): sin(var("t1"))})]
    betas = [exterior_derivative(e).scale(Const(Fraction(-1, 2 * k - i)))
             for i, e in enumerate(etas)]
    # theta in the annihilator of the Reeb field with d(alpha) ^ theta = 0
    theta = make_form(torus3, 1, [
        (0, mul(Const(Fraction(-1)), sin(var("t1"))), ("t2",)),
        (0, cos(var("t1")), ("t3",))])
    dth = exterior_derivative(theta)
    gamma = (dth - wedge(contact3.alpha,
                         interior_product(contact3.reeb, dth))
             ).scale(Const(Fraction(1, 2 * k + 1)))
    v = quotient_kernel_check_rigged(with_x, contact3, etas, betas, theta,
                                     gamma, k)
    assert v.closed.is_zero and v.relations_hold and v.consistent

    bad_gamma = gamma + wedge(theta, smooth_form(
        torus3, {("t1",): Const(Fraction(1, 3))}))
    v2 = quotient_kernel_check_rigged(with_x, contact3, etas, betas, theta,
                                      bad_gamma, k)
    assert not v2.closed.is_zero and not v2.relations_hold and v2.consistent
    assert "gamma" in v2.offending


def test_rigged_representative_closed(torus3, with_x, contact3):
    theta = make_form(torus3, 1, [
        (0, mul(Const(Fraction(-1)), sin(var("t1"))), ("t2",)),
        (0, cos(var("t1")), ("t3",))])
    delta0 = theta
    gamma0 = make_form(torus3, 0, [(0, cos(var("t1")), ())])
    delta1 = theta.scale(sin(var("t1")))
    nu = rigged_closed_representative(with_x, contact3, delta0, gamma0,
                                      delta1, None, 2)
    assert forms_equal(exterior_derivative(nu),
                       zero_form(with_x, nu.degree + 1)).is_zero


def test_rigged_representative_rejects_non_xi_theta(torus3, with_x, contact3):
    # theta = alpha pairs with the Reeb field, so it is not xi-supported
    theta = contact3.alpha
    zero1 = zero_form(torus3, 1)
    zero0 = zero_form(torus3, 0)
    with pytest.raises(CohomologyError):
        rigged_closed_representative(with_x, contact3, zero1, zero0, zero1,
                                     theta, 3)
