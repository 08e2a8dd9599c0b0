"""Collar gluings along a shared contact hypersurface.

Two convex collars glue to a scattering form on an annulus r1 in (1/2, 2)
with singular locus r1 = 1 (the second collar enters through r2 = 1/r1).
Two concave collars glue to a folded form on r1 in (-2, 2) with fold at
r1 = 0 (r2 = -r1).  A convex/concave pair glues classically to d(e^r alpha).

A gluing is built from the contact form alone: the glued form lives on the
annulus and depends on nothing but alpha, so glue_convex_convex,
glue_concave_concave and glue_convex_concave each take one ContactData,
the contact hypersurface both collars share.

Each glued form is omega = d(B base) for one scalar profile B(r1) and one
1-form base: gamma = e^{-r1} alpha (sc) or alpha (folded, classic).  So
omega = A dr1 wedge base + B d(base) with A = dB/dr1, and the certificates
bound coefficients of omega itself:
- sc: B, and A - B; since d(gamma) = e^{-r1} (d alpha - dr1 wedge alpha),
  omega = e^{-r1} ((A - B) dr1 wedge alpha + B d alpha).
- folded: A on dr1 wedge alpha and B on d alpha, for r1 in (0, 2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .certificates import (
    Certificate, Grid, all_of, axis_points, certify_positive,
    geometric_refinement,
)
from .expr import (
    Const, Exp, Expr, ONE, Piece, PiecewiseDecay, Prod, Record, Sum, ZERO, add,
    differentiate, exp, mul, powx, substitute, var,
)
from .geometry import (
    Chart, SingularForm, exterior_derivative, forms_equal, lift, restrict_to_z,
)
from .structures import (
    ContactData, StructureError, certify_symplectic, verify_folded,
)

GLUE_R = "r1"


class GluingError(StructureError):
    pass


# ---------------------------------------------------------------------------
# bump functions


def _t() -> Expr:
    return var("t")


def bump_phi() -> Expr:
    """Smooth bump supported in (1/2, 2): exp(r / ((r - 1/2)(r - 2))).

    The exponent is invariant under r -> 1/r, so the bump is multiplicatively
    symmetric about 1.
    """
    t = _t()
    g = mul(t, powx(mul(add(t, Const(Fraction(-1, 2))),
                        add(t, Const(Fraction(-2)))), -1))
    return PiecewiseDecay(var("r"), "t", (
        Piece(None, Fraction(1, 2), ZERO),
        Piece(Fraction(1, 2), Fraction(2), exp(g)),
        Piece(Fraction(2), None, ZERO),
    ))


def bump_psi_sc() -> Expr:
    """Smooth step: 1 on (-inf, 7/8], descending on (7/8, 1), 0 on [1, inf).

    The transition is 1 - e^a / (e^a + e^b) with a = -1/(r-1), b = -1/(7/8-r);
    it is rewritten as a logistic in a - b, split at r = 47/50, so that only
    bounded exponentials are ever evaluated.
    """
    t = _t()
    a = mul(Const(Fraction(-1)), powx(add(t, Const(Fraction(-1))), -1))
    b = mul(Const(Fraction(-1)), powx(add(Const(Fraction(7, 8)),
                                          mul(Const(Fraction(-1)), t)), -1))
    # 1 - e^a/(e^a+e^b) = 1/(1 + e^{a-b}) = e^{b-a}/(1 + e^{b-a})
    u = add(a, mul(Const(Fraction(-1)), b))
    low = powx(add(ONE, exp(u)), -1)
    high = mul(exp(mul(Const(Fraction(-1)), u)),
               powx(add(ONE, exp(mul(Const(Fraction(-1)), u))), -1))
    return PiecewiseDecay(var("r"), "t", (
        Piece(None, Fraction(7, 8), ONE),
        Piece(Fraction(7, 8), Fraction(47, 50), low),
        Piece(Fraction(47, 50), Fraction(1), high),
        Piece(Fraction(1), None, ZERO),
    ))


def bump_psi_f() -> Expr:
    """Smooth step: 0 on (-inf, -2], ascending on (-2, -1), 1 on [-1, inf).

    Transition e^a / (e^a + e^b) with a = -1/(r+2), b = -1/(-1-r); both
    exponents stay below -1 on the transition interval.
    """
    t = _t()
    a = mul(Const(Fraction(-1)), powx(add(t, Const(Fraction(2))), -1))
    b = mul(Const(Fraction(-1)), powx(add(Const(Fraction(-1)),
                                          mul(Const(Fraction(-1)), t)), -1))
    mid = mul(exp(a), powx(add(exp(a), exp(b)), -1))
    return PiecewiseDecay(var("r"), "t", (
        Piece(None, Fraction(-2), ZERO),
        Piece(Fraction(-2), Fraction(-1), mid),
        Piece(Fraction(-1), None, ONE),
    ))


def _at(f: Expr, arg: Expr) -> Expr:
    """Compose a bump (an expression in the free variable r) with arg."""
    return substitute(f, {"r": arg})


# ---------------------------------------------------------------------------
# collars


def _annulus_chart(zch: Chart, lo: float, hi: float,
                   x: Optional[str] = None) -> Chart:
    return Chart((GLUE_R,) + zch.names, ((lo, hi),) + zch.ranges, x,
                 zch.circles)


class FillingCollar(Record):
    """Collar Z x [0, 3)_r1 with normal form d(e^{-r1} alpha) (convex)
    or d(e^{r1} alpha) (concave)."""

    contact: ContactData
    convexity: str  # "convex" | "concave"

    def __post_init__(self):
        if self.convexity not in ("convex", "concave"):
            raise GluingError("convexity must be 'convex' or 'concave'")

    def collar_chart(self) -> Chart:
        return _annulus_chart(self.contact.chart, 0.0, 3.0)

    def collar_form(self) -> SingularForm:
        ch = self.collar_chart()
        sign = Fraction(-1) if self.convexity == "convex" else Fraction(1)
        scalar = exp(mul(Const(sign), var(GLUE_R)))
        eta = lift(self.contact.alpha, ch).scale(scalar)
        return exterior_derivative(eta)

    def verify(self, grid=None) -> Certificate:
        """d(e^{-+r1} alpha) is symplectic on the collar."""
        return certify_symplectic(self.collar_form(), grid)


# ---------------------------------------------------------------------------
# glued forms


class GluedForm(Record):
    """omega = d(B base) for the profile B(r1) and the 1-form base
    e^{-r1} alpha ("sc") or alpha ("folded", "classic").

    d(B base) = A dr1 wedge base + B d(base) with A = dB/dr1, so the
    certifiers take A and B from the profile, and both are coefficients of
    omega by construction."""

    kind: str  # "sc" | "folded" | "classic"
    omega: SingularForm
    alpha: SingularForm  # contact form on the Z chart
    profile: Expr  # B, a function of r1


def _glued(kind: str, alpha: SingularForm, base: SingularForm,
           profile: Expr) -> GluedForm:
    return GluedForm(kind, exterior_derivative(base.scale(profile)), alpha,
                     profile)


def glue_convex_convex(contact: ContactData) -> GluedForm:
    """omega = d(f(r1) e^{-r2} alpha) + d(f(r2) e^{-r1} alpha) = d(B gamma),
    r2 = 1/r1, f(s) = phi(s)/(s-1)^2 + psi(s), gamma = e^{-r1} alpha and
    B = e^{r1 - r2} f(r1) + f(r2)."""
    ch = _annulus_chart(contact.chart, 0.5, 2.0)
    r1 = var(GLUE_R)
    r2 = powx(r1, -1)
    neg = Const(Fraction(-1))
    phi, psi = bump_phi(), bump_psi_sc()

    def f(s: Expr) -> Expr:
        return add(mul(_at(phi, s), powx(add(s, neg), -2)), _at(psi, s))

    profile = add(mul(exp(add(mul(neg, r2), r1)), f(r1)), f(r2))
    gamma = lift(contact.alpha, ch).scale(exp(mul(neg, r1)))
    return _glued("sc", contact.alpha, gamma, profile)


def glue_convex_concave(contact: ContactData) -> GluedForm:
    """Classical gluing: omega = d(e^r alpha), smooth symplectic on the
    joined collar r in (-1, 1)."""
    ch = _annulus_chart(contact.chart, -1.0, 1.0)
    return _glued("classic", contact.alpha, lift(contact.alpha, ch),
                  exp(var(GLUE_R)))


def glue_concave_concave(contact: ContactData) -> GluedForm:
    """omega = d(psi(r1) e^{r1} alpha) + d(psi(r2) e^{r2} alpha) = d(B alpha),
    r2 = -r1, B = psi(r1) e^{r1} + psi(r2) e^{r2}; folded with fold at
    r1 = 0."""
    ch = _annulus_chart(contact.chart, -2.0, 2.0, x=GLUE_R)
    r1 = var(GLUE_R)
    r2 = mul(Const(Fraction(-1)), r1)
    psi = bump_psi_f()
    profile = add(mul(_at(psi, r1), exp(r1)), mul(_at(psi, r2), exp(r2)))
    return _glued("folded", contact.alpha, lift(contact.alpha, ch), profile)


# ---------------------------------------------------------------------------
# certification


def certify_sc_gluing(g: GluedForm) -> Certificate:
    """Certify B > 0 and A - B > 0 on r1 in (1/2, 1) (the symmetric half),
    plus the two slope constants the positivity argument rests on."""
    if g.kind != "sc":
        raise GluingError("expected a convex-convex glued form")
    phi, psi = bump_phi(), bump_psi_sc()
    # (phi/(r-1)^2)' = phi'/(r-1)^2 - 2 phi/(r-1)^3
    quotient = differentiate(
        mul(phi, powx(add(var("r"), Const(Fraction(-1))), -2)), "r")
    # the margins below are raw Sum/Prod nodes, not add/mul, so that they
    # compute a + (-b) and (-1) * b, which are a - b and -b bit for bit
    pts = Grid([("r", axis_points(0.875, 1.0, 10000))])
    c_phi = certify_positive(
        Sum((quotient, Const(-139))), pts, 0.0,
        detail="phi'/(r-1)^2 - 2 phi/(r-1)^3 - 139 on (7/8, 1)")
    # inf psi' = -128 exactly (at r = 15/16), so the bound is non-strict
    c_psi = certify_positive(
        Sum((differentiate(psi, "r"), Const(128))), pts, -1e-9,
        detail="psi' + 128 on (7/8, 1), non-strict")

    b = g.profile
    grid = Grid([(GLUE_R, geometric_refinement(1.0, 0.5, 1.0))])
    c_b = certify_positive(b, grid, 0.0, detail="B on (1/2, 1)")
    c_ab = certify_positive(
        Sum((differentiate(b, GLUE_R), Prod((Const(-1), b)))), grid, 0.0,
        detail="A - B on (1/2, 1)")
    return all_of("sc gluing: B > 0 and A - B > 0 on (1/2, 1)",
                  phi_quotient_exceeds_139=c_phi,
                  psi_slope_at_least_minus_128=c_psi,
                  b_positive=c_b, a_minus_b_positive=c_ab)


def certify_folded_gluing(g: GluedForm) -> Certificate:
    """The positivity clauses behind folded non-degeneracy for r1 > 0, the
    two explicit exponential inequalities, and the fold at r1 = 0."""
    if g.kind != "folded":
        raise GluingError("expected a concave-concave glued form")
    points = 2000
    gap_pts = Grid([("r", axis_points(1.0, 2.0, points))])
    r = var("r")
    # raw nodes, as in certify_sc_gluing: e^r + (-4) e^{(-1) r} is
    # e^r - 4 e^{-r} bit for bit
    gap = certify_positive(
        Sum((Exp(r), Prod((Const(-4), Exp(Prod((Const(-1), r))))))),
        gap_pts, 0.0, detail="e^r - 4 e^{-r} on (1, 2); equivalently e^2 > 4")
    ratio = certify_positive(
        Sum((Exp(Prod((Const(2), r))), Const(-1))),
        Grid([("r", axis_points(0.0, 1.0, points, include=(1.0,)))]), 0.0,
        detail="e^{2r} - 1 on (0, 1]")

    grid = Grid([(GLUE_R, axis_points(0.0, 2.0, points))])
    pos_a = certify_positive(
        differentiate(g.profile, GLUE_R), grid, 0.0,
        detail="dr1 wedge alpha coefficient on (0, 2)")
    pos_b = certify_positive(
        g.profile, grid, 0.0,
        detail="d alpha coefficient on (0, 2)")

    fold = verify_folded(g.omega)
    da2 = exterior_derivative(g.alpha).scale(Const(Fraction(2)))
    restr = forms_equal(restrict_to_z(g.omega), da2, tol=1e-9)
    return all_of("folded gluing: positive for r1 > 0, folded at r1 = 0",
                  gap_on_1_2=gap, ratio_on_0_1=ratio,
                  dr_alpha_coefficient_positive=pos_a,
                  dalpha_coefficient_positive=pos_b, fold=fold,
                  restriction_is_2_dalpha=restr)
