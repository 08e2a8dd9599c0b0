"""Symplectic, Poisson, contact, and cosymplectic verifications."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebroids import AlgebroidFrame, certify_volume, coframe, is_smooth_section
from .certificates import (
    Certificate, all_of, certify_nonvanishing, certify_positive, chart_grid,
    proven, refuted, verified,
)
from .expr import (
    Const, Record, ZERO, add, canon, differentiate, is_zero, mul, nan_max,
    powx, substitute,
)
from .geometry import (  # z_chart, restrict_to_z, lift: re-exported
    Chart, GeometryError, SingularForm, ZeroVerdictMap, exact_singular,
    exterior_derivative, forms_equal, interior_product, laurent_decompose,
    lift, make_form, restrict_to_z, scalar_one, top_power, wedge, z_chart,
    zero_form,
)
from .linalg import sym_inverse

TOL_CLOSED = 1e-9
TOL_NONDEG = 1e-8


class StructureError(GeometryError):
    pass


def closedness(f: SingularForm, tol: float = TOL_CLOSED) -> ZeroVerdictMap:
    df = exterior_derivative(f)
    return forms_equal(df, zero_form(f.chart, f.degree + 1), 500, tol)


def verify_sc_symplectic(omega: SingularForm, frame: Optional[AlgebroidFrame] = None,
                         grid=None, tol_closed: float = TOL_CLOSED,
                         tol_nondeg: float = TOL_NONDEG) -> Certificate:
    """A smooth section of the frame (sc by default), closed, and
    non-degenerate against the frame volume."""
    if omega.degree != 2:
        raise StructureError("expected a degree-2 form")
    if frame is None:
        frame = coframe("sc", omega.chart)
    section = is_smooth_section(omega, frame)
    closed = closedness(omega, tol_closed)
    nd = certify_volume(omega, frame, grid, tol_nondeg) if section.passed \
        else section
    return all_of(f"closed, non-degenerate section of the {frame.flavor} "
                  "frame", section=section,
                  closed=closed, nondegeneracy=nd)


def certify_symplectic(omega: SingularForm, grid=None,
                       closed_detail: str = "form not closed",
                       detail: str = "|top power|") -> Certificate:
    """A smooth degree-2 form is symplectic: closed, and its top power is
    nonvanishing on the grid."""
    if omega.chart.dim % 2:
        raise StructureError("even-dimensional chart required")
    if not closedness(omega).is_zero:
        return refuted({}, detail=closed_detail)
    return certify_nonvanishing(top_power(omega, omega.chart.dim // 2), grid,
                                TOL_NONDEG, detail)


# ---------------------------------------------------------------------------
# contact / cosymplectic data


def _reeb_identities(field: SingularForm, one: SingularForm,
                     two: SingularForm) -> bool:
    """one(field) = 1 and i_field(two) = 0."""
    ch = one.chart
    return (forms_equal(interior_product(field, one), scalar_one(ch),
                        tol=TOL_NONDEG).is_zero
            and forms_equal(interior_product(field, two), zero_form(ch, 1),
                            tol=TOL_NONDEG).is_zero)


def _reeb_volume(one: SingularForm, two: SingularForm):
    """(pw, vol) with pw = two^{n-1} (the constant 1 when n = 1) and the top
    form vol = one wedge pw, on a chart of odd dimension 2n - 1."""
    ch = one.chart
    if ch.dim % 2 == 0:
        raise StructureError("odd-dimensional chart required")
    n = (ch.dim + 1) // 2
    pw = top_power(two, n - 1)
    return pw, wedge(one, pw)


def _verify_reeb_pair(one: SingularForm, two: SingularForm,
                      field: SingularForm, grid, detail: str) -> Certificate:
    """one wedge two^{n-1} nonvanishing on the grid, then the Reeb
    identities."""
    cert = certify_nonvanishing(_reeb_volume(one, two)[1], grid, TOL_NONDEG,
                                detail)
    if cert.passed and not _reeb_identities(field, one, two):
        return refuted({}, detail="Reeb identities fail")
    return cert


class ContactData(Record):
    chart: Chart  # chart of Z
    alpha: SingularForm
    reeb: SingularForm  # kind vector

    def verify(self, grid=None) -> Certificate:
        return _verify_reeb_pair(self.alpha, exterior_derivative(self.alpha),
                                 self.reeb, grid,
                                 "|alpha wedge (d alpha)^{n-1}|")


class CosymplecticData(Record):
    chart: Chart
    theta: SingularForm  # closed 1-form
    eta: SingularForm  # closed 2-form
    reeb: SingularForm  # kind vector

    def verify(self, grid=None) -> Certificate:
        if not closedness(self.theta).is_zero:
            return refuted({}, detail="theta not closed")
        if not closedness(self.eta).is_zero:
            return refuted({}, detail="eta not closed")
        return _verify_reeb_pair(self.theta, self.eta, self.reeb, grid,
                                 "|theta wedge eta^{n-1}|")


def reeb(alpha: SingularForm,
         closed_two: Optional[SingularForm] = None) -> SingularForm:
    """The field R with alpha(R) = 1 and i_R d(alpha) = 0 (i_R eta = 0 for
    the cosymplectic pair when closed_two = eta is given), in closed form.

    On a chart of dimension 2n - 1 with volume dx_1 ^ ... ^ dx_{2n-1}, the
    field v with i_v(volume) = two^{n-1} has i_v two = 0 and
    alpha(v) volume = alpha ^ two^{n-1}, so R = v / alpha(v): component i
    (counting from 0) is (-1)^i times the coefficient of two^{n-1} on the
    index without coordinate i, over the coefficient of alpha ^ two^{n-1}.
    An even-dimensional chart or an identically zero alpha ^ two^{n-1} has
    no Reeb field and raises StructureError."""
    ch = alpha.chart
    two = closed_two if closed_two is not None else exterior_derivative(alpha)
    pw, vol = _reeb_volume(alpha, two)
    if vol.is_zero_form:
        raise StructureError("alpha wedge two^{n-1} vanishes identically; "
                             "no Reeb field")
    (top,) = vol.pole_sums().values()
    inv = powx(top, -1)
    coeffs = pw.pole_sums()
    terms = []
    for i, name in enumerate(ch.names):
        c = coeffs.get(ch.names[:i] + ch.names[i + 1:])
        if c is not None:
            terms.append((0, mul((-1) ** i, c, inv), (name,)))
    return make_form(ch, 1, terms, "vector")


# ---------------------------------------------------------------------------
# contact structure induced on Z


def induced_contact(omega: SingularForm) -> ContactData:
    """Read alpha from the dx/x^3 slot and check the x^{-2} slot is -d(alpha)/2
    at Z."""
    slots = laurent_decompose(omega)
    if 3 not in slots or slots[3].dx_part.is_zero_form:
        raise StructureError("no dx/x^3 slot; not a scattering form")
    alpha = slots[3].dx_part
    zch = alpha.chart
    beta = slots[2].rest if 2 in slots else zero_form(zch, 2)
    expected = exterior_derivative(alpha).scale(Const(Fraction(-1, 2)))
    diff = forms_equal(beta, expected, tol=TOL_CLOSED)
    if not diff.is_zero:
        raise StructureError("x^{-2} slot does not equal -d(alpha)/2 at Z; "
                             "form is not closed")
    return ContactData(zch, alpha, reeb(alpha))


# ---------------------------------------------------------------------------
# duality


def _full_matrix(f: SingularForm):
    """Symbolic antisymmetric coefficient matrix with poles folded in."""
    ch = f.chart
    d = ch.dim
    m = [[ZERO] * d for _ in range(d)]
    for (a, b), entry in f.pole_sums().items():
        i, j = ch.index(a), ch.index(b)
        m[i][j] = entry
        m[j][i] = mul(Const(Fraction(-1)), entry)
    return m


def _matrix_to_bivector(ch: Chart, m, kind: str) -> SingularForm:
    d = ch.dim
    terms = [(0, m[i][j], (ch.names[i], ch.names[j]))
             for i in range(d) for j in range(i + 1, d)]
    return make_form(ch, 2, terms, kind)


def dualize(f: SingularForm) -> SingularForm:
    """The inverse of a degree-2 form or bivector: a form gives the bivector
    whose matrix is the inverse of its own, so that the sharp map of pi
    inverts the flat map of omega, and a bivector gives the form back."""
    if f.degree != 2:
        raise StructureError("dualize expects a degree-2 form or bivector")
    kind = "vector" if f.kind == "form" else "form"
    return _matrix_to_bivector(f.chart, sym_inverse(_full_matrix(f)), kind)


def dual_roundtrip_check(omega: SingularForm) -> Certificate:
    """pi-sharp after omega-flat is the identity: P W = I to TOL_NONDEG at
    each of 100 sample points on the chart box, W the matrix of omega and
    P = W^{-1}; an undefined or singular W, or a non-finite P, refutes."""
    from .duality import NOT_FINITE, _dual_samples, _finite
    tol = TOL_NONDEG
    run = _dual_samples(omega, False)
    worst = 0.0
    for pt, w, _, p in run.samples:
        if not _finite(p):
            return refuted(pt, detail=NOT_FINITE)
        err = nan_max(abs(sum([row[i] * w[i][j] for i in rows], 0.0)
                          - (k == j))
                      for k, row in enumerate(p)
                      for j, rows in enumerate(run.w_cols))
        if not err <= tol:  # NaN fails too
            return refuted(pt, tol - err, detail="P W differs from the identity")
        worst = max(worst, err)
    if run.stop is not None:
        return refuted(run.stop[0], detail=run.stop[1])
    return verified(len(run.samples), tol, tol - worst,
                    detail="pi-sharp . omega-flat = id (P W = I)")


def dual_jacobi_check(omega: SingularForm) -> Certificate:
    """[pi, pi] = 0 to TOL_CLOSED for pi the dual of omega, by the
    coordinate Schouten formula on P = W^{-1} and d_m P = -P (d_m W) P at
    each of 100 sample points on the chart box.  An undefined or singular
    W at any sample refutes first, then a non-finite P at its point."""
    from .duality import NOT_FINITE, _dual_samples, _finite, _jacobi_kernel
    tol = TOL_CLOSED
    run = _dual_samples(omega, True)
    if run.stop is not None:
        return refuted(run.stop[0], detail=run.stop[1])
    d = omega.chart.dim
    if d <= 2:
        return proven(detail="Jacobi is automatic below three components")
    kernel, worst = _jacobi_kernel(d, run.slots), 0.0
    for pt, _, dw, p in run.samples:
        if not _finite(p):
            return refuted(pt, detail=NOT_FINITE)
        comp, at = kernel(p, dw, tol)
        if at is not None:
            return refuted(pt, tol - comp,
                           detail="[pi,pi]^({},{},{}) != 0".format(*at))
        worst = max(worst, comp)
    return verified(len(run.samples), tol, tol - worst, detail="[pi,pi] = 0")


# ---------------------------------------------------------------------------
# normal form and filling


def normal_form(ch: Chart, alpha: SingularForm, beta1: Optional[SingularForm],
                beta2: Optional[SingularForm]) -> SingularForm:
    """omega = dx/x^3 wedge (alpha + x^2 beta1) - d(alpha)/(2 x^2) + beta2,
    inputs given on the Z chart of ch."""
    zch = z_chart(ch)
    for b in (beta1, beta2):
        if b is not None and not closedness(b).is_zero:
            raise StructureError("beta inputs must be closed")
    omega = exact_singular(alpha, ch, 2)
    terms = list(omega.terms)
    if beta1 is not None:
        terms += [(1, c, (ch.x,) + idx) for _, c, idx in beta1.terms]
    if beta2 is not None:
        terms += [(0, c, idx) for _, c, idx in beta2.terms]
    return make_form(ch, 2, terms)


class FillingVerdict(Record):
    filling: bool
    nonzero_slot: Optional[str] = None  # "b1" | "b2"
    liouville_contraction: Optional[ZeroVerdictMap] = None
    liouville_derivative: Optional[ZeroVerdictMap] = None

    @property
    def passed(self) -> bool:
        if not self.filling:
            return False
        return (self.liouville_contraction.is_zero
                and self.liouville_derivative.is_zero)


def decompose(omega: SingularForm):
    """Cohomology decomposition slots (a, b1, b2) of a normal-form omega."""
    zch = z_chart(omega.chart)
    slots = laurent_decompose(omega)
    a = slots[3].dx_part if 3 in slots else zero_form(zch, 1)
    b1 = slots[1].dx_part if 1 in slots else zero_form(zch, 1)
    b2 = slots[0].rest if 0 in slots else zero_form(zch, 2)
    return a, b1, b2


def strong_filling_check(omega: SingularForm, tol: float = TOL_CLOSED) -> FillingVerdict:
    """Filling iff the b1 and b2 slots vanish; then the Liouville field
    V = -(x/2) d/dx satisfies i_V omega = alpha/x^2 and L_V omega = omega."""
    ch = omega.chart
    a, b1, b2 = decompose(omega)
    if not b1.is_zero_form:
        return FillingVerdict(False, "b1")
    if not b2.is_zero_form:
        return FillingVerdict(False, "b2")
    xname = ch.x
    v = make_form(ch, 1, [(-1, Const(Fraction(-1, 2)), (xname,))], "vector")
    ivo = interior_product(v, omega)
    # i_V omega = -a/(2 x^2); for d(alpha/x^2) the slot is a = -2 alpha, so
    # this reads i_V omega = alpha/x^2 in terms of the contact primitive
    expected = lift(a.scale(Const(Fraction(-1, 2))), ch, k=2)
    c1 = forms_equal(ivo, expected, tol=tol)
    lie = exterior_derivative(ivo) + interior_product(v, exterior_derivative(omega))
    c2 = forms_equal(lie, omega, tol=tol)
    return FillingVerdict(True, None, c1, c2)


def cosymplectic_extract(omega: SingularForm, k: int) -> CosymplecticData:
    """theta from the dx/x^k slot and eta from the smooth slot, at Z, with
    their Reeb field.  It only extracts: CosymplecticData.verify certifies."""
    slots = laurent_decompose(omega)
    if k not in slots or slots[k].dx_part.is_zero_form:
        raise StructureError(f"no dx/x^{k} slot")
    theta = slots[k].dx_part
    zch = theta.chart
    eta = slots[0].rest if 0 in slots else zero_form(zch, 2)
    return CosymplecticData(zch, theta, eta, reeb(theta, closed_two=eta))


# ---------------------------------------------------------------------------
# folded forms


def verify_folded(omega: SingularForm, grid=None) -> Certificate:
    """omega smooth and closed; top power vanishes transversally exactly on
    the declared fold {x = 0}; omega^{d-1} pulls back nonvanishingly to Z."""
    ch = omega.chart
    if omega.max_pole() > 0:
        raise StructureError("folded verification expects a smooth form")
    if ch.dim % 2:
        raise StructureError("even-dimensional chart required")
    d = ch.dim // 2
    closed = closedness(omega)
    coeff = add(ZERO, *top_power(omega, d).pole_sums().values())
    at_z = canon(substitute(coeff, {ch.x: ZERO}))
    zch = z_chart(ch)
    vanish = is_zero(at_z, zch.box() or {"_": (0, 1)}, 200, TOL_CLOSED)
    ddx = canon(substitute(differentiate(coeff, ch.x), {ch.x: ZERO}))
    zgrid = chart_grid(zch) if grid is None else grid
    transversal = certify_positive([ddx], zgrid, TOL_NONDEG,
                                   "|d/dx of top coefficient| on the fold")
    sub = top_power(omega, d - 1)
    nonvanish = certify_nonvanishing(
        restrict_to_z(sub), zgrid, TOL_NONDEG,
        detail="|omega^{d-1} restricted to the fold|")
    return all_of(f"folded along {ch.x} = 0", closed=closed,
                  vanishing_on_fold=vanish, transversal=transversal,
                  restriction_nonvanishing=nonvanish)
