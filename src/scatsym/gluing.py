"""Collar gluings along a shared contact hypersurface.

Two convex collars glue to a scattering form on an annulus r1 in (1/2, 2)
with singular locus r1 = 1 (the second collar enters through r2 = 1/r1).
Two concave collars glue to a folded form on r1 in (-2, 2) with fold at
r1 = 0 (r2 = -r1).  A convex/concave pair glues classically to d(e^r alpha).

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
    Certificate, all_of, axis_points, certify_positive, geometric_refinement,
)
from .expr import (
    Const, Expr, ONE, Piece, PiecewiseDecay, Record, ZERO, add, compile_float,
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


class BumpFunctions(Record):
    phi: Expr
    psi_sc: Expr
    psi_f: Expr

    @classmethod
    def default(cls) -> "BumpFunctions":
        return cls(bump_phi(), bump_psi_sc(), bump_psi_f())


def _at(f: Expr, arg: Expr) -> Expr:
    """Compose a bump (an expression in the free variable r) with arg."""
    return substitute(f, {"r": arg})


# ---------------------------------------------------------------------------
# collars


class FillingCollar(Record):
    """Collar Z x [0, length)_r with normal form d(e^{-r} alpha) (convex)
    or d(e^{r} alpha) (concave)."""

    contact: ContactData
    convexity: str  # "convex" | "concave"
    length: float = 3.0
    r: str = GLUE_R

    def __post_init__(self):
        if self.convexity not in ("convex", "concave"):
            raise GluingError("convexity must be 'convex' or 'concave'")
        if self.length <= 0:
            raise GluingError("collar length must be positive")

    def collar_chart(self) -> Chart:
        zch = self.contact.chart
        return Chart((self.r,) + zch.names,
                     ((0.0, self.length),) + zch.ranges, None, zch.circles)

    def collar_form(self) -> SingularForm:
        ch = self.collar_chart()
        sign = Fraction(-1) if self.convexity == "convex" else Fraction(1)
        scalar = exp(mul(Const(sign), var(self.r)))
        eta = lift(self.contact.alpha, ch).scale(scalar)
        return exterior_derivative(eta)

    def verify(self, grid=None, tol: float = 1e-8) -> Certificate:
        """d(e^{-+r} alpha) is symplectic on the collar."""
        return certify_symplectic(self.collar_form(), grid, tol,
                                  closed_detail="collar form not closed",
                                  detail="|top power of the glued form|")


def _check_pair(c1: FillingCollar, c2: FillingCollar, want: tuple):
    if (c1.convexity, c2.convexity) != want and \
            (c2.convexity, c1.convexity) != want:
        raise GluingError(
            f"expected a {want[0]}/{want[1]} pair, got "
            f"{c1.convexity}/{c2.convexity}")
    if c1.contact.chart != c2.contact.chart:
        raise GluingError("collars live over different Z charts")
    if not forms_equal(c1.contact.alpha, c2.contact.alpha).is_zero:
        raise GluingError("collars carry different contact forms")


# ---------------------------------------------------------------------------
# glued forms


class GluedForm(Record):
    """omega = d(B base) for the profile B(r1) and the 1-form base
    e^{-r1} alpha ("sc") or alpha ("folded", "classic").

    d(B base) = A dr1 wedge base + B d(base) with A = dB/dr1, so the
    certifiers take A and B from the profile, and both are coefficients of
    omega by construction."""

    kind: str  # "sc" | "folded" | "classic"
    chart: Chart
    omega: SingularForm
    alpha: SingularForm  # contact form on the Z chart
    profile: Expr  # B, a function of r1
    locus: Optional[float] = None  # r1 value of the singular locus / fold
    bumps: Optional[BumpFunctions] = None


def _annulus_chart(zch: Chart, lo: float, hi: float,
                   x: Optional[str] = None) -> Chart:
    return Chart((GLUE_R,) + zch.names, ((lo, hi),) + zch.ranges, x,
                 zch.circles)


def _glued(kind: str, collar: FillingCollar, base: SingularForm,
           profile: Expr, locus: Optional[float] = None,
           bumps: Optional[BumpFunctions] = None) -> GluedForm:
    return GluedForm(kind, base.chart, exterior_derivative(base.scale(profile)),
                     collar.contact.alpha, profile, locus, bumps)


def glue_convex_convex(c1: FillingCollar, c2: FillingCollar,
                       bumps: Optional[BumpFunctions] = None) -> GluedForm:
    """omega = d(f(r1) e^{-r2} alpha) + d(f(r2) e^{-r1} alpha) = d(B gamma),
    r2 = 1/r1, f(s) = phi(s)/(s-1)^2 + psi(s), gamma = e^{-r1} alpha and
    B = e^{r1 - r2} f(r1) + f(r2)."""
    _check_pair(c1, c2, ("convex", "convex"))
    if min(c1.length, c2.length) <= 2:
        raise GluingError("convex-convex gluing needs collar lengths > 2")
    if bumps is None:
        bumps = BumpFunctions.default()
    ch = _annulus_chart(c1.contact.chart, 0.5, 2.0)
    r1 = var(GLUE_R)
    r2 = powx(r1, -1)
    neg = Const(Fraction(-1))

    def f(s: Expr) -> Expr:
        return add(mul(_at(bumps.phi, s), powx(add(s, neg), -2)),
                   _at(bumps.psi_sc, s))

    profile = add(mul(exp(add(mul(neg, r2), r1)), f(r1)), f(r2))
    gamma = lift(c1.contact.alpha, ch).scale(exp(mul(neg, r1)))
    return _glued("sc", c1, gamma, profile, 1.0, bumps)


def glue_convex_concave(c1: FillingCollar, c2: FillingCollar) -> GluedForm:
    """Classical gluing: omega = d(e^r alpha), smooth symplectic on the
    joined collar r in (-1, 1)."""
    _check_pair(c1, c2, ("convex", "concave"))
    ch = _annulus_chart(c1.contact.chart, -1.0, 1.0)
    return _glued("classic", c1, lift(c1.contact.alpha, ch), exp(var(GLUE_R)))


def glue_concave_concave(c1: FillingCollar, c2: FillingCollar,
                         bumps: Optional[BumpFunctions] = None) -> GluedForm:
    """omega = d(psi(r1) e^{r1} alpha) + d(psi(r2) e^{r2} alpha) = d(B alpha),
    r2 = -r1, B = psi(r1) e^{r1} + psi(r2) e^{r2}; folded with fold at
    r1 = 0."""
    _check_pair(c1, c2, ("concave", "concave"))
    if min(c1.length, c2.length) <= 2:
        raise GluingError("concave-concave gluing needs collar lengths > 2")
    if bumps is None:
        bumps = BumpFunctions.default()
    ch = _annulus_chart(c1.contact.chart, -2.0, 2.0, x=GLUE_R)
    r1 = var(GLUE_R)
    r2 = mul(Const(Fraction(-1)), r1)
    psi = bumps.psi_f
    profile = add(mul(_at(psi, r1), exp(r1)), mul(_at(psi, r2), exp(r2)))
    return _glued("folded", c1, lift(c1.contact.alpha, ch), profile, 0.0,
                  bumps)


# ---------------------------------------------------------------------------
# certification


def certify_sc_gluing(g: GluedForm, grid=None,
                      constant_points: int = 10000) -> Certificate:
    """Certify B > 0 and A - B > 0 on r1 in (1/2, 1) (the symmetric half),
    plus the two slope constants the positivity argument rests on."""
    if g.kind != "sc":
        raise GluingError("expected a convex-convex glued form")
    phi, psi = g.bumps.phi, g.bumps.psi_sc
    dpsi = compile_float(differentiate(psi, "r"))
    # (phi/(r-1)^2)' = phi'/(r-1)^2 - 2 phi/(r-1)^3
    quotient = compile_float(differentiate(
        mul(phi, powx(add(var("r"), Const(Fraction(-1))), -2)), "r"))
    pts = [{"r": v} for v in axis_points(0.875, 1.0, constant_points)]
    c_phi = certify_positive(
        lambda pt: quotient(pt) - 139.0, pts, 0.0,
        detail="phi'/(r-1)^2 - 2 phi/(r-1)^3 - 139 on (7/8, 1)")
    # inf psi' = -128 exactly (at r = 15/16), so the bound is non-strict
    c_psi = certify_positive(
        lambda pt: dpsi(pt) + 128.0, pts, -1e-9,
        detail="psi' + 128 on (7/8, 1), non-strict")

    a_val = compile_float(differentiate(g.profile, GLUE_R))
    b_val = compile_float(g.profile)
    if grid is None:
        grid = [{GLUE_R: v}
                for v in geometric_refinement(1.0, 0.5, 1.0, base=256,
                                              closest=1e-6)]
    c_b = certify_positive(b_val, grid, 0.0, detail="B on (1/2, 1)")
    c_ab = certify_positive(lambda pt: a_val(pt) - b_val(pt),
                            grid, 0.0, detail="A - B on (1/2, 1)")
    return all_of("sc gluing: B > 0 and A - B > 0 on (1/2, 1)",
                  phi_quotient_exceeds_139=c_phi,
                  psi_slope_at_least_minus_128=c_psi,
                  b_positive=c_b, a_minus_b_positive=c_ab)


def certify_folded_gluing(g: GluedForm, grid=None,
                          points: int = 2000) -> Certificate:
    """The positivity clauses behind folded non-degeneracy for r1 > 0, the
    two explicit exponential inequalities, and the fold at r1 = 0."""
    if g.kind != "folded":
        raise GluingError("expected a concave-concave glued form")
    import math
    gap_pts = [{"r": v} for v in axis_points(1.0, 2.0, points)]
    gap = certify_positive(
        lambda pt: math.exp(pt["r"]) - 4.0 * math.exp(-pt["r"]), gap_pts, 0.0,
        detail="e^r - 4 e^{-r} on (1, 2); equivalently e^2 > 4")
    ratio_pts = [{"r": v} for v in axis_points(0.0, 1.0, points, include=(1.0,))]
    ratio = certify_positive(
        lambda pt: math.exp(2.0 * pt["r"]) - 1.0,
        [p for p in ratio_pts if p["r"] > 0], 0.0,
        detail="e^{2r} - 1 on (0, 1]")

    if grid is None:
        grid = [{GLUE_R: v} for v in axis_points(0.0, 2.0, points)]
    pos_a = certify_positive(
        compile_float(differentiate(g.profile, GLUE_R)), grid, 0.0,
        detail="dr1 wedge alpha coefficient on (0, 2)")
    pos_b = certify_positive(
        compile_float(g.profile), grid, 0.0,
        detail="d alpha coefficient on (0, 2)")

    fold = verify_folded(g.omega)
    da2 = exterior_derivative(g.alpha).scale(Const(Fraction(2)))
    restr = forms_equal(restrict_to_z(g.omega), da2, tol=1e-9)
    return all_of("folded gluing: positive for r1 > 0, folded at r1 = 0",
                  gap_on_1_2=gap, ratio_on_0_1=ratio,
                  dr_alpha_coefficient_positive=pos_a,
                  dalpha_coefficient_positive=pos_b, fold=fold,
                  restriction_is_2_dalpha=restr)
