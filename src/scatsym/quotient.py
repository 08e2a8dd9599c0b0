"""Quotient-complex relation checkers of the scattering and rigged
algebroids (acceptance criteria 05 and 06), and the horizontal foliation
differential d_h.  The closed cohomology formulas are in `cohomology`; no
CLI request but the b2-r-times-t3 record's horizontal-example check
imports this module."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .certificates import Certificate, all_of
from .cohomology import CohomologyError
from .expr import Const, Record
from .geometry import (
    Chart, SingularForm, ZeroVerdictMap, exact_singular, exterior_derivative,
    forms_equal, interior_product, lift, make_form, scalar_one, wedge,
    zero_form,
)
from .structures import ContactData


# ---------------------------------------------------------------------------
# horizontal foliation differential


def lie_derivative(f: SingularForm, field: SingularForm) -> SingularForm:
    return (interior_product(field, exterior_derivative(f))
            + exterior_derivative(interior_product(field, f)))


def horizontal_d(sigma: SingularForm, theta: SingularForm,
                 reeb_field: SingularForm, tol: float = 1e-9) -> SingularForm:
    """d_h sigma = d sigma - theta wedge L_R sigma on horizontal forms."""
    ch = sigma.chart
    if sigma.degree > 0 and not forms_equal(
            interior_product(reeb_field, sigma),
            zero_form(ch, sigma.degree - 1), tol=tol).is_zero:
        raise CohomologyError("input form is not horizontal (i_R sigma != 0)")
    if not forms_equal(interior_product(reeb_field, theta), scalar_one(ch),
                       tol=tol).is_zero:
        raise CohomologyError("theta(R) must equal 1")
    return exterior_derivative(sigma) - wedge(theta, lie_derivative(sigma, reeb_field))


def d_h_squared_check(sigma: SingularForm, theta: SingularForm,
                      reeb_field: SingularForm,
                      tol: float = 1e-9) -> Certificate:
    """d_h(d_h sigma) = 0 and i_R(d_h sigma) = 0."""
    ds = horizontal_d(sigma, theta, reeb_field, tol)
    contraction = forms_equal(interior_product(reeb_field, ds),
                              zero_form(sigma.chart, sigma.degree), tol=tol)
    dds = horizontal_d(ds, theta, reeb_field, tol)
    squared = forms_equal(dds, zero_form(sigma.chart, sigma.degree + 2),
                          tol=tol)
    return all_of("d_h is a differential on horizontal forms",
                  d_squared=squared, reeb_contraction=contraction)


# ---------------------------------------------------------------------------
# quotient complex of the scattering algebroid


class QuotientVerdict(Record):
    closed: ZeroVerdictMap
    relations: tuple  # of (name, ZeroVerdictMap)
    offending: tuple = ()

    @property
    def relations_hold(self) -> bool:
        return all(v.is_zero for _, v in self.relations)

    @property
    def consistent(self) -> bool:
        return self.closed.is_zero == self.relations_hold


def _prefix_dx(ch: Chart, f: SingularForm, pole: int) -> SingularForm:
    """dx / x^pole wedge (a form given on the Z chart)."""
    return make_form(ch, f.degree + 1,
                     [(pole, c, (ch.x,) + idx) for k, c, idx in f.terms])


def assemble_sc_quotient(ch: Chart, alphas: Sequence[SingularForm],
                         betas: Sequence[SingularForm], p: int) -> SingularForm:
    """nu = sum_i dx/x^{p+1} wedge alpha_i x^i + beta_i x^i / x^p."""
    if len(alphas) != p or len(betas) != p:
        raise CohomologyError("need coefficients for i = 0 .. p-1")
    out = zero_form(ch, p)
    for i, (a, b) in enumerate(zip(alphas, betas)):
        if a.degree != p - 1 or b.degree != p:
            raise CohomologyError("alpha_i must have degree p-1, beta_i degree p")
        out = out + _prefix_dx(ch, a, p + 1 - i) + lift(b, ch, k=p - i)
    return out


def quotient_kernel_check_sc(ch: Chart, alphas: Sequence[SingularForm],
                             betas: Sequence[SingularForm], p: int,
                             n_samples: int = 100,
                             tol: float = 1e-9) -> QuotientVerdict:
    """The assembled element is closed iff beta_i = -d(alpha_i)/(p - i)."""
    nu = assemble_sc_quotient(ch, alphas, betas, p)
    closed = forms_equal(exterior_derivative(nu), zero_form(ch, p + 1),
                         n_samples=n_samples, tol=tol)
    relations = []
    offending = []
    for i, (a, b) in enumerate(zip(alphas, betas)):
        want = exterior_derivative(a).scale(Const(Fraction(-1, p - i)))
        v = forms_equal(b, want, n_samples=n_samples, tol=tol)
        relations.append((f"beta_{i} = -d(alpha_{i})/{p - i}", v))
        if not v.is_zero:
            offending.append(i)
    return QuotientVerdict(closed, tuple(relations), tuple(offending))


def sc_reduction_primitive(ch: Chart, alphas: Sequence[SingularForm],
                           p: int) -> SingularForm:
    """nu~ with d(nu~) removing every slot above i = 0 from a closed element:
    nu~ = sum_{i=1}^{p-1} -alpha_i x^{i-1} / ((p-i) x^{p-1})."""
    out = zero_form(ch, p - 1)
    for i in range(1, p):
        piece = lift(alphas[i].scale(Const(Fraction(-1, p - i))), ch,
                     k=p - i)
        out = out + piece
    return out


# ---------------------------------------------------------------------------
# quotient complex of the rigged algebroid (scattering case)


def _check_xi_support(contact: ContactData, forms, tol: float = 1e-9):
    for name, f in forms:
        if f is None or not f.terms or f.degree == 0:
            continue
        ir = interior_product(contact.reeb, f)
        if not forms_equal(ir, zero_form(f.chart, f.degree - 1),
                           tol=tol).is_zero:
            raise CohomologyError(f"{name} is not supported in the contact "
                                  f"distribution (i_R {name} != 0)")


def assemble_rigged(ch: Chart, contact: ContactData,
                    etas: Sequence[SingularForm], betas: Sequence[SingularForm],
                    theta: Optional[SingularForm], gamma: Optional[SingularForm],
                    k: int) -> SingularForm:
    """nu = dx/x^{2k+1} wedge sum eta_i x^i + x^{-2k} sum beta_i x^i
         + dx wedge alpha wedge theta / x^{2k+2} + alpha wedge gamma / x^{2k+1}."""
    if len(etas) != len(betas):
        raise CohomologyError("eta and beta slot counts differ")
    if len(etas) > 2 * k:
        raise CohomologyError("at most 2k polynomial slots")
    out = zero_form(ch, k)
    for i, (e, b) in enumerate(zip(etas, betas)):
        out = out + _prefix_dx(ch, e, 2 * k + 1 - i) + lift(b, ch, k=2 * k - i)
    alpha = contact.alpha
    if theta is not None and theta.terms:
        out = out + _prefix_dx(ch, wedge(alpha, theta), 2 * k + 2)
    if gamma is not None and gamma.terms:
        out = out + lift(wedge(alpha, gamma), ch, k=2 * k + 1)
    return out


def quotient_kernel_check_rigged(ch: Chart, contact: ContactData,
                                 etas: Sequence[SingularForm],
                                 betas: Sequence[SingularForm],
                                 theta: Optional[SingularForm],
                                 gamma: Optional[SingularForm], k: int,
                                 n_samples: int = 100,
                                 tol: float = 1e-9) -> QuotientVerdict:
    """Closed iff beta_i = -d(eta_i)/(2k - i),
    gamma = (d theta - alpha wedge i_R d theta)/(2k + 1), and
    d alpha wedge theta = 0."""
    _check_xi_support(contact, [("theta", theta), ("gamma", gamma)])
    zch = contact.chart
    nu = assemble_rigged(ch, contact, etas, betas, theta, gamma, k)
    closed = forms_equal(exterior_derivative(nu), zero_form(ch, k + 1),
                         n_samples=n_samples, tol=tol)
    relations = []
    offending = []
    for i, (e, b) in enumerate(zip(etas, betas)):
        want = exterior_derivative(e).scale(Const(Fraction(-1, 2 * k - i)))
        v = forms_equal(b, want, n_samples=n_samples, tol=tol)
        relations.append((f"beta_{i} = -d(eta_{i})/{2 * k - i}", v))
        if not v.is_zero:
            offending.append(f"beta_{i}")
    # the theta slot only exists for k >= 2; below that gamma must vanish
    th = theta if theta is not None else zero_form(zch, max(k - 2, 0))
    gm = gamma if gamma is not None else zero_form(zch, k - 1)
    if k >= 2 and th.terms:
        dth = exterior_derivative(th)
        want_gamma = (dth - wedge(contact.alpha,
                                  interior_product(contact.reeb, dth))
                      ).scale(Const(Fraction(1, 2 * k + 1)))
    else:
        want_gamma = zero_form(zch, k - 1)
    v_gamma = forms_equal(gm, want_gamma, n_samples=n_samples, tol=tol)
    relations.append(("gamma = (d theta - alpha ^ i_R d theta)/(2k+1)", v_gamma))
    if not v_gamma.is_zero:
        offending.append("gamma")
    supp = wedge(exterior_derivative(contact.alpha), th) if k >= 2 \
        else zero_form(zch, k)
    v_supp = forms_equal(supp, zero_form(zch, k), n_samples=n_samples,
                         tol=tol)
    relations.append(("d alpha ^ theta = 0", v_supp))
    if not v_supp.is_zero:
        offending.append("theta")
    return QuotientVerdict(closed, tuple(relations), tuple(offending))


def rigged_closed_representative(ch: Chart, contact: ContactData,
                                 delta0: SingularForm, gamma0: SingularForm,
                                 delta1: SingularForm,
                                 theta: Optional[SingularForm],
                                 k: int, tol: float = 1e-9) -> SingularForm:
    """nu = dx/x^{2k+1} ^ (delta_0 + alpha ^ gamma_0) + dx/x^{2k+1} ^ x delta_1
    + dx/x^{2k+2} ^ alpha ^ theta - d(delta_0 + alpha ^ gamma_0)/(2k x^{2k})
    - d(delta_1)/((2k-1) x^{2k-1}) - d(alpha ^ theta)/((2k+1) x^{2k+1})."""
    if k < 1:
        raise CohomologyError("representatives need k >= 1")
    _check_xi_support(contact, [("delta_0", delta0), ("gamma_0", gamma0),
                                ("delta_1", delta1), ("theta", theta)])
    zch = contact.chart
    alpha = contact.alpha
    th = theta if theta is not None else zero_form(zch, k - 2)
    if th.terms:
        da_theta = wedge(exterior_derivative(alpha), th)
        if not forms_equal(da_theta, zero_form(zch, k), tol=tol).is_zero:
            raise CohomologyError("theta must satisfy d alpha ^ theta = 0")
    nu = exact_singular(delta0 + wedge(alpha, gamma0), ch, 2 * k)
    nu = nu + exact_singular(delta1, ch, 2 * k - 1)
    if th.terms:
        nu = nu + exact_singular(wedge(alpha, th), ch, 2 * k + 1)
    return nu
