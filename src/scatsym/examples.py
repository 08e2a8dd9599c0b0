"""The catalog's record builders and the checks their runs perform.

`catalog` names the records (catalog.EXAMPLES) and imports this module
only to build or run one, so `catalog list` and the requests that run no
record never compile it."""

from __future__ import annotations

import math
from fractions import Fraction

from .algebroids import coframe
from .catalog import (
    TWO_PI, CatalogError, ExampleRecord, _circle_ranges, _dependent_sqrt,
    _round_sphere_primitive, s2xs1_contact, torus_contact,
)
from .certificates import (
    Certificate, all_of, chart_grid, exact, refuted, verified,
)
from .expr import (
    Const, Expr, ONE, ZERO, add, canon, is_provably_zero, mul, nan_max, powx,
    sin, cos, var,
)
from .geometry import (
    Chart, SingularForm, evaluate_form, exact_singular, exterior_derivative,
    make_form, smooth_form, wedge,
)
from .gluing import (
    GLUE_R, FillingCollar, certify_folded_gluing, certify_sc_gluing,
    glue_concave_concave, glue_convex_convex,
)
from .structures import (
    ContactData, StructureError, certify_symplectic,
    cosymplectic_extract, dual_jacobi_check, dual_roundtrip_check, dualize,
    induced_contact, lift, normal_form, strong_filling_check, verify_folded,
    verify_sc_symplectic, z_chart,
)

MAX_PARAM = 4
_FLOAT_TOL = 1e-12  # loci and pole-symplectic compare floats to this


# ---------------------------------------------------------------------------
# sphere constructions


def sphere_chart(n: int) -> Chart:
    """Chart U_{x1} of the 2n-sphere: free coordinates (y1, x2, y2, ..., z)
    with x1 = sqrt(1 - the rest) and the equator at z = 0."""
    names = ["y1"]
    for i in range(2, n + 1):
        names += [f"x{i}", f"y{i}"]
    names.append("z")
    return Chart(tuple(names), tuple((-0.3, 0.3) for _ in names), "z")


def sphere_primitive(n: int) -> SingularForm:
    """sigma = (1/2) sum (x_i dy_i - y_i dx_i) on the chart U_{x1}."""
    pairs = [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
    return _round_sphere_primitive(sphere_chart(n), pairs, "x1", half=True)


def sphere_form(n: int) -> SingularForm:
    """beta = -2 dz/z^3 wedge sigma + d(sigma)/z^2 = d(sigma/z^2)."""
    sigma = sphere_primitive(n)
    return exterior_derivative(lift(sigma, sigma.chart, 2))


def sphere_pole_chart(n: int) -> Chart:
    names = []
    for i in range(1, n + 1):
        names += [f"x{i}", f"y{i}"]
    return Chart(tuple(names), tuple((-0.3, 0.3) for _ in names), None)


def sphere_pole_form(n: int) -> SingularForm:
    """The same beta written in the pole chart, where z = sqrt(1 - r^2) is a
    smooth positive function; at the pole it equals sum dx_i wedge dy_i."""
    ch = sphere_pole_chart(n)
    zdep = _dependent_sqrt(ch.names)
    pairs = [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
    sigma = _round_sphere_primitive(ch, pairs, dependent="", half=True)
    dz = make_form(ch, 1, [(0, mul(Const(Fraction(-1)), var(nm), powx(zdep, -1)),
                            (nm,)) for nm in ch.names])
    beta = wedge(dz.scale(mul(Const(Fraction(-2)), powx(zdep, -3))), sigma)
    return beta + exterior_derivative(sigma).scale(powx(zdep, -2))


def sphere_slot_coefficient(omega: SingularForm, a: str, b: str) -> Expr:
    """Total coefficient of dz/z^3 wedge (the a, b slot), reassembled across
    Laurent grading: sum of c * z^{3 - k} over terms with index {a, b}."""
    want = tuple(sorted((a, b), key=omega.chart.index))
    sign = 1 if (a, b) == want else -1
    total = omega.pole_sums(3).get(want, ZERO)
    return canon(mul(Const(Fraction(sign)), total))


# ---------------------------------------------------------------------------
# symplectization charts


def circle_contact() -> ContactData:
    names = ("theta",)
    zch = Chart(names, _circle_ranges(names), None, frozenset(names))
    alpha = smooth_form(zch, {("theta",): ONE})
    reeb = make_form(zch, 1, [(0, ONE, ("theta",))], "vector")
    return ContactData(zch, alpha, reeb)


def _x_chart(contact: ContactData) -> Chart:
    zch = contact.chart
    return Chart(("x",) + zch.names, ((-0.5, 0.5),) + zch.ranges, "x",
                 zch.circles)


# ---------------------------------------------------------------------------
# Darboux models


def darboux_chart(n: int, bound: float = 0.5) -> Chart:
    names = []
    for i in range(1, n + 1):
        names += [f"x{i}", f"y{i}"]
    return Chart(tuple(names), tuple((-bound, bound) for _ in names), "x1")


def darboux_contact_primitive(ch: Chart, n: int, inner_sign: int) -> SingularForm:
    """alpha = dy1 + sum_{i>=2} sign * (x_i dy_i - y_i dx_i) on the Z chart."""
    zch = z_chart(ch)
    terms = [(0, ONE, ("y1",))]
    for i in range(2, n + 1):
        terms.append((0, mul(Const(Fraction(inner_sign)), var(f"x{i}")),
                      (f"y{i}",)))
        terms.append((0, mul(Const(Fraction(-inner_sign)), var(f"y{i}")),
                      (f"x{i}",)))
    return make_form(zch, 1, terms)


def darboux_dual_model(ch: Chart, n: int) -> SingularForm:
    """The bivector x1^3 dy1^dx1 + x1^2 dy1^(sum y_i dy_i + x_i dx_i)
    + x1^2 sum dx_i^dy_i, written in chart term order."""
    terms = [(-3, Const(Fraction(-1)), ("x1", "y1"))]
    for i in range(2, n + 1):
        terms.append((-2, var(f"x{i}"), ("y1", f"x{i}")))
        terms.append((-2, var(f"y{i}"), ("y1", f"y{i}")))
        terms.append((-2, ONE, (f"x{i}", f"y{i}")))
    return make_form(ch, 2, terms, "vector")


# ---------------------------------------------------------------------------
# records


def _check_param(name, value, hi=MAX_PARAM):
    if not isinstance(value, int):
        raise CatalogError(f"parameter {name}={value} is not an integer")
    if not 1 <= value <= hi:
        raise CatalogError(f"parameter {name}={value} outside [1, {hi}]")


def _euclidean_end(n: int = 2) -> ExampleRecord:
    _check_param("n", n)
    names = ["x", "t1"]
    for i in range(2, n + 1):
        names += [f"s{i}", f"t{i}"]
    ch = Chart(tuple(names), tuple((-0.3, 0.3) for _ in names), "x")
    pairs = [(f"s{i}", f"t{i}") for i in range(1, n + 1)]
    alpha = _round_sphere_primitive(ch, pairs, "s1", half=False,
                                    exclude=("x",))
    omega = exact_singular(alpha, ch, 2)
    return ExampleRecord("euclidean-end", (("n", n),), "sc", omega,
                         ("sc-symplectic", "filling", "dual-jacobi",
                          "dual-roundtrip"), {})


def _sc_sphere(n: int = 2) -> ExampleRecord:
    _check_param("n", n)
    omega = sphere_form(n)
    return ExampleRecord(
        "sc-sphere", (("n", n),), "sc", omega,
        ("sc-symplectic", "sphere-coefficient", "pole-symplectic",
         "dual-roundtrip"),
        {"pole_form": sphere_pole_form(n)})


def _symplectization(z: str = "s1") -> ExampleRecord:
    if z == "s1":
        contact = circle_contact()
    elif z == "t3":
        contact = torus_contact()
    else:
        raise CatalogError(f"unknown symplectization base '{z}'")
    ch = _x_chart(contact)
    omega = exterior_derivative(lift(contact.alpha, ch, 2))
    return ExampleRecord("symplectization", (("z", z),), "sc", omega,
                         ("sc-symplectic", "filling", "induced-contact",
                          "dual-roundtrip"),
                         {"contact": contact})


def _off_glue(omega: SingularForm) -> SingularForm:
    """omega on r1 in (0.55, 0.9), off the gluing locus r1 = 1, where the
    piecewise coefficients lose absolute precision to cancellation."""
    ch = omega.chart
    box = dict(ch.box(), **{GLUE_R: (0.55, 0.9)})
    off = Chart(ch.names, tuple(box.values()), ch.x, ch.circles)
    return make_form(off, 2, omega.terms)


def _t2xs2() -> ExampleRecord:
    contact = torus_contact()
    glued = glue_convex_convex(contact)
    return ExampleRecord("t2xs2", (), "sc", glued.omega,
                         ("contact", "collar", "sc-gluing", "folded-gluing",
                          "glued-dual"),
                         {"contact": contact,
                          "collar": FillingCollar(contact, "convex"),
                          "glued_sc": glued,
                          "glued_folded": glue_concave_concave(contact),
                          "dual_form": _off_glue(glued.omega)})


def _s3xs1() -> ExampleRecord:
    contact = s2xs1_contact()
    glued = glue_convex_convex(contact)
    names = ("u", "v", "w", "theta")
    interior_chart = Chart(names, ((-0.5, 0.5),) * 3 + ((0.0, TWO_PI),), None,
                           frozenset({"theta"}))
    interior = make_form(interior_chart, 2, [
        (0, Const(Fraction(2)), ("u", "v")), (0, ONE, ("w", "theta"))])
    return ExampleRecord("s3xs1", (), "sc", glued.omega,
                         ("contact", "symplectic", "sc-gluing", "glued-dual"),
                         {"contact": contact, "glued_sc": glued,
                          "symplectic_form": interior,
                          "dual_form": _off_glue(glued.omega)})


def _torus_sc_folded(m: int = 2, n: int = 1) -> ExampleRecord:
    _check_param("m", m)
    _check_param("n", n, hi=2)
    if n == 1:
        names = ("theta", "phi")
        beta_slots = {("phi",): ONE}
    else:
        names = ("theta", "t", "q1", "q2")
        beta_slots = {("q1",): cos(var("t")), ("q2",): sin(var("t"))}
    ch = Chart(names, _circle_ranges(names), None, frozenset(names))
    denom = powx(sin(mul(Const(Fraction(m)), var("theta"))), -2)
    eta = make_form(ch, 1, [(0, mul(denom, c), idx)
                            for idx, c in sorted(beta_slots.items())])
    omega = exterior_derivative(eta)
    sc_loci = [j * math.pi / m for j in range(2 * m)]
    fold_loci = [(2 * j + 1) * math.pi / (2 * m) for j in range(2 * m)]
    lo, hi = 0.15 * math.pi / m, 0.35 * math.pi / m
    off = Chart(names, ((lo, hi),) + _circle_ranges(names[1:]), None,
                frozenset(names[1:]))
    off_omega = make_form(off, 2, omega.terms)
    return ExampleRecord(
        "torus-sc-folded", (("m", m), ("n", n)), "scattering-folded", omega,
        ("closed-proven", "loci", "symplectic-off-loci"),
        {"sc_loci": sc_loci, "fold_loci": fold_loci,
         "locus_factors": ((sin, sc_loci), (cos, fold_loci)), "m": m,
         "symplectic_form": off_omega})


def _bk_torus(k: int = 2, n: int = 2) -> ExampleRecord:
    _check_param("k", k)
    _check_param("n", n)
    names = ["theta", "phi"]
    for i in range(1, n):
        names += [f"u{i}", f"v{i}"]
    ch = Chart(tuple(names), _circle_ranges(names), None, frozenset(names))
    beta_terms = [(0, ONE, (f"u{i}", f"v{i}")) for i in range(1, n)]
    omega = make_form(ch, 2, [(0, powx(sin(var("theta")), -k),
                               ("theta", "phi"))] + beta_terms)
    nf_names = ("x",) + tuple(names[1:])
    nf_ch = Chart(nf_names, ((-0.5, 0.5),) + _circle_ranges(names[1:]), "x",
                  frozenset(names[1:]))
    nf = make_form(nf_ch, 2, [(k, ONE, ("x", "phi"))] + beta_terms)
    off = Chart(tuple(names), ((0.3, 2.8),) + _circle_ranges(names[1:]), None,
                frozenset(names[1:]))
    off_omega = make_form(off, 2, omega.terms)
    return ExampleRecord(
        "bk-torus", (("k", k), ("n", n)), "b^k", omega,
        ("closed-proven", "bk-symplectic", "cosymplectic",
         "symplectic-off-loci"),
        {"normal_form": nf, "k": k, "symplectic_form": off_omega})


def _b2_r_times_t3() -> ExampleRecord:
    names = ("x", "t1", "t2", "t3")
    ch = Chart(names, ((-1.0, 1.0),) + _circle_ranges(names[1:]), "x",
               frozenset(names[1:]))
    omega = make_form(ch, 2, [(2, ONE, ("x", "t1")), (0, ONE, ("t2", "t3"))])
    return ExampleRecord(
        "b2-r-times-t3", (), "b^k", omega,
        ("closed-proven", "bk-symplectic", "cosymplectic",
         "horizontal-example"),
        {"normal_form": omega, "k": 2})


def _folded_darboux(n: int = 2) -> ExampleRecord:
    _check_param("n", n)
    ch = darboux_chart(n, bound=1.0)
    terms = [(0, var("x1"), ("x1", "y1"))]
    terms += [(0, ONE, (f"x{i}", f"y{i}")) for i in range(2, n + 1)]
    omega = make_form(ch, 2, terms)
    return ExampleRecord("folded-darboux", (("n", n),), "folded", omega,
                         ("folded",), {})


def _sc_darboux(n: int = 2) -> ExampleRecord:
    _check_param("n", n)
    ch = darboux_chart(n)
    alpha = darboux_contact_primitive(ch, n, inner_sign=-1)
    omega = normal_form(ch, alpha, None, None)
    return ExampleRecord("sc-darboux", (("n", n),), "sc", omega,
                         ("sc-symplectic", "filling", "dual-roundtrip"), {})


def _sc_poisson_darboux(n: int = 2) -> ExampleRecord:
    _check_param("n", n)
    ch = darboux_chart(n)
    alpha = darboux_contact_primitive(ch, n, inner_sign=1)
    omega = normal_form(ch, alpha, None, None)
    return ExampleRecord(
        "sc-poisson-darboux", (("n", n),), "sc", omega,
        ("sc-symplectic", "darboux-dual", "dual-jacobi", "dual-roundtrip"),
        {"dual_model": darboux_dual_model(ch, n)})


BUILDERS = {
    "euclidean-end": _euclidean_end,
    "sc-sphere": _sc_sphere,
    "symplectization": _symplectization,
    "t2xs2": _t2xs2,
    "s3xs1": _s3xs1,
    "torus-sc-folded": _torus_sc_folded,
    "bk-torus": _bk_torus,
    "b2-r-times-t3": _b2_r_times_t3,
    "folded-darboux": _folded_darboux,
    "sc-darboux": _sc_darboux,
    "sc-poisson-darboux": _sc_poisson_darboux,
}


# ---------------------------------------------------------------------------
# checks


def _float_check(errors, detail: str) -> Certificate:
    """Every (error, witness) pair within _FLOAT_TOL; the worst pair, a NaN
    before any number, refutes with its witness."""
    err, witness = nan_max(errors, key=lambda e: e[0])
    if not err <= _FLOAT_TOL:
        return refuted(witness, _FLOAT_TOL - err, detail)
    return verified(len(errors), _FLOAT_TOL, _FLOAT_TOL - err, detail)


def _check_loci(rec: ExampleRecord) -> Certificate:
    """Each factor vanishes on its 2m claimed loci, and the 4m loci are
    spaced by pi/2m."""
    m = rec.extras["m"]
    factors = rec.extras["locus_factors"]
    if any(len(loci) != 2 * m or len(set(loci)) != 2 * m
           for _, loci in factors):
        return refuted({}, detail="locus count is not 2m")
    combined = sorted(rec.extras["sc_loci"] + rec.extras["fold_loci"])
    errors = [(abs((math.sin if fn is sin else math.cos)(m * z)),
               {"theta": z}) for fn, loci in factors for z in loci]
    errors += [(abs(b - a - math.pi / (2 * m)), {"theta": b})
               for a, b in zip(combined, combined[1:])]
    return _float_check(errors, f"{2 * m} singular and {2 * m} folding "
                        "hypersurfaces")


def _run_check(rec: ExampleRecord, check: str, per_axis: int) -> Certificate:
    omega = rec.omega
    if check in ("sc-symplectic", "bk-symplectic"):
        f, frame = omega, None
        if check == "bk-symplectic":
            f = rec.extras["normal_form"]
            frame = coframe("b^k", f.chart, k=rec.extras["k"])
        return verify_sc_symplectic(f, frame, chart_grid(f.chart, per_axis))
    if check in ("symplectic", "symplectic-off-loci"):
        f = rec.extras["symplectic_form"]
        return certify_symplectic(f, chart_grid(f.chart, per_axis))
    if check == "pole-symplectic":
        f = rec.extras["pole_form"]
        symplectic = certify_symplectic(f, chart_grid(f.chart, per_axis))
        if not symplectic.passed:
            return symplectic
        origin = {nm: 0.0 for nm in f.chart.names}
        vals = evaluate_form(f, origin)
        n = f.chart.dim // 2
        want = {(f"x{i}", f"y{i}"): 1.0 for i in range(1, n + 1)}
        errors = [(abs(vals.get(idx, 0.0) - want.get(idx, 0.0)), origin)
                  for idx in set(vals) | set(want)]
        return all_of("at the pole the form is sum dx_i wedge dy_i",
                      symplectic=symplectic,
                      at_pole=_float_check(errors, "coefficients at the pole"))
    if check == "sphere-coefficient":
        actual = sphere_slot_coefficient(omega, "z", "y1")
        x1 = _dependent_sqrt(list(omega.chart.names))
        want = canon(mul(Const(Fraction(-1)),
                         add(x1, mul(var("y1"), var("y1"), powx(x1, -1)),
                             mul(var("z"), var("z"), powx(x1, -1)))))
        diff = canon(add(actual, mul(Const(Fraction(-1)), want)))
        return exact(is_provably_zero(diff), "dz/z^3 wedge dy1 coefficient "
                                             "is -(x1 + y1^2/x1 + z^2/x1)")
    if check == "filling":
        v = strong_filling_check(omega)
        if not v.filling:
            return refuted({}, detail=f"NotFilling({v.nonzero_slot})")
        return all_of("Filling", liouville_contraction=v.liouville_contraction,
                      liouville_derivative=v.liouville_derivative)
    if check == "induced-contact":
        data = induced_contact(omega)
        return data.verify(chart_grid(data.chart, per_axis))
    if check == "contact":
        data = rec.extras["contact"]
        return data.verify(chart_grid(data.chart, per_axis))
    if check == "collar":
        collar = rec.extras["collar"]
        ch = collar.collar_chart()
        return collar.verify(chart_grid(ch, per_axis))
    if check == "sc-gluing":
        return certify_sc_gluing(rec.extras["glued_sc"])
    if check == "folded-gluing":
        return certify_folded_gluing(rec.extras["glued_folded"])
    if check == "folded":
        return verify_folded(omega, chart_grid(z_chart(omega.chart), per_axis))
    if check == "closed-proven":
        return exact(exterior_derivative(omega).is_zero_form,
                     "d(omega) vanishes structurally")
    if check == "cosymplectic":
        try:
            data = cosymplectic_extract(rec.extras["normal_form"],
                                        rec.extras["k"])
        except StructureError as e:
            return refuted({}, detail=str(e))
        return data.verify(chart_grid(data.chart, per_axis))
    if check == "loci":
        return _check_loci(rec)
    if check == "dual-jacobi":
        return dual_jacobi_check(omega)
    if check == "dual-roundtrip":
        return dual_roundtrip_check(omega)
    if check == "glued-dual":
        # keyword arguments run in order: Jacobi first, and the round trip
        # reuses its pass
        f = rec.extras["dual_form"]
        return all_of("pi = omega^{-1} is Poisson and inverts omega",
                      jacobi=dual_jacobi_check(f),
                      roundtrip=dual_roundtrip_check(f))
    if check == "darboux-dual":
        pi = dualize(omega)
        diff = pi + rec.extras["dual_model"].scale(Const(Fraction(-1)))
        return exact(diff.is_zero_form,
                     "dual bivector matches the Darboux model exactly")
    if check == "horizontal-example":
        from .quotient import horizontal_d, lie_derivative
        zch = z_chart(omega.chart)
        theta = smooth_form(zch, {("t1",): ONE})
        reeb = make_form(zch, 1, [(0, ONE, ("t1",))], "vector")
        sigma = smooth_form(zch, {("t3",): cos(var("t1"))})
        dh = horizontal_d(sigma, theta, reeb)
        lr = lie_derivative(sigma, reeb)
        want = smooth_form(zch, {("t3",): mul(Const(Fraction(-1)),
                                              sin(var("t1")))})
        holds = dh.is_zero_form and (lr + want.scale(Const(Fraction(-1)))
                                     ).is_zero_form
        return exact(holds, "d_h(cos t1 dt3) = 0 and "
                            "L_R(cos t1 dt3) = -sin t1 dt3")
    raise CatalogError(f"unknown check '{check}'")
