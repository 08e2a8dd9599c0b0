"""Cohomology descriptor calculators, quotient-complex relation checkers,
and the horizontal foliation differential.

Reports mix finite Betti ranks with infinite-dimensional function-space
summands; the latter are carried as first-class entries and never dropped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .certificates import Certificate, all_of
from .expr import Const, Record
from .geometry import (
    Chart, SingularForm, ZeroVerdictMap, exact_singular, exterior_derivative,
    forms_equal, interior_product, lift, make_form, scalar_one, wedge,
    zero_form,
)
from .structures import ContactData, StructureError


class CohomologyError(StructureError):
    pass


# ---------------------------------------------------------------------------
# Betti profiles


def kunneth(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Betti numbers of a product from those of the factors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def torus_betti(dim: int) -> tuple:
    return tuple(math.comb(dim, p) for p in range(dim + 1))


def sphere_betti(dim: int) -> tuple:
    if dim == 0:
        return (2,)
    if dim == 1:
        return (1, 1)
    return (1,) + (0,) * (dim - 1) + (1,)


class BettiProfile(Record):
    dim_m: int
    betti_m: tuple
    dim_z: int
    betti_z: tuple  # of one Z component
    z_components: int = 1
    tag: str = ""

    def __post_init__(self):
        if self.dim_m < 0 or self.dim_z < 0:
            raise CohomologyError("dimensions must be nonnegative")
        if len(self.betti_m) != self.dim_m + 1 or len(self.betti_z) != self.dim_z + 1:
            raise CohomologyError("Betti table length must be dim + 1")
        for b in self.betti_m + self.betti_z:
            if b < 0:
                raise CohomologyError("Betti numbers must be nonnegative")
        if self.betti_m[0] < 1 or self.betti_z[0] < 1:
            raise CohomologyError("b_0 must be at least 1")
        if self.z_components < 1:
            raise CohomologyError("Z must have at least one component")

    def b_m(self, p: int) -> int:
        return self.betti_m[p] if 0 <= p <= self.dim_m else 0

    def b_z(self, p: int) -> int:
        return self.betti_z[p] if 0 <= p <= self.dim_z else 0

    @classmethod
    def torus(cls, dim: int, z_components: int = 1,
              tag: str = "torus") -> "BettiProfile":
        return cls(dim, torus_betti(dim), dim - 1, torus_betti(dim - 1),
                   z_components, tag)

    @classmethod
    def sphere(cls, n: int) -> "BettiProfile":
        return cls(2 * n, sphere_betti(2 * n), 2 * n - 1,
                   sphere_betti(2 * n - 1), 1, "sphere")

    @classmethod
    def bk_torus(cls, n: int) -> "BettiProfile":
        """T^{2n} with the two disjoint singular tori T^{2n-1}."""
        return cls(2 * n, torus_betti(2 * n), 2 * n - 1,
                   torus_betti(2 * n - 1), 2, "bk-torus")


# ---------------------------------------------------------------------------
# report summands


class FiniteRank(Record):
    rank: int
    label: str


class Zero(Record):
    label: str


class InfiniteDimensional(Record):
    descriptor: str


class Unresolved(Record):
    descriptor: str


class CohomologyReport(Record):
    theorem: str
    degree: int
    summands: tuple

    @property
    def finite_rank(self) -> int:
        return sum(s.rank for s in self.summands if isinstance(s, FiniteRank))


def sc_derham(profile: BettiProfile, p: int) -> CohomologyReport:
    """H^p of the scattering de Rham complex:
    H^p(M) + H^{p-1}(Z) + Omega^{p-1}(Z; |N*Z|^{-p}), per Z component."""
    if p < 0 or p > profile.dim_m:
        raise CohomologyError(f"degree {p} out of range")
    summands = [FiniteRank(profile.b_m(p), f"H^{p}(M)")]
    if p >= 1:
        for _ in range(profile.z_components):
            summands.append(FiniteRank(profile.b_z(p - 1), f"H^{p-1}(Z)"))
            summands.append(InfiniteDimensional(
                f"Omega^{p-1}(Z; |N*Z|^{-p})"))
    return CohomologyReport("sc-derham", p, tuple(summands))


def _kernel_slot(k: int, n: int) -> object:
    """K^k = ker(d alpha wedge: Omega_xi^k -> Omega_xi^{k+2}) on Z of
    dimension 2n - 1; zero for k <= n-1 (injective range and the k <= 0
    convention), all of Omega_xi^k where the wedge map vanishes."""
    if k <= n - 1:
        return Zero(f"K^{k}")
    if k in (2 * n, 2 * n + 1):
        return InfiniteDimensional(f"Omega_xi^{k}(Z)")
    return Unresolved(
        f"ker(d alpha wedge: Omega_xi^{k}(Z) -> Omega_xi^{k+2}(Z))")


def sc_poisson(profile: BettiProfile, p: int, n: int) -> CohomologyReport:
    """Poisson cohomology of a non-degenerate scattering bivector:
    H^p(M) + H^{p-1}(Z) + Omega^{p-1}(Z) + Omega_xi^{p-1}(Z) + K^{p-2}."""
    if profile.dim_z != 2 * n - 1:
        raise CohomologyError("Z dimension must be 2n - 1")
    if p < 0 or p > profile.dim_m:
        raise CohomologyError(f"degree {p} out of range")
    summands = [FiniteRank(profile.b_m(p), f"H^{p}(M)")]
    for _ in range(profile.z_components):
        if p >= 1:
            summands.append(FiniteRank(profile.b_z(p - 1), f"H^{p-1}(Z)"))
            summands.append(InfiniteDimensional(f"Omega^{p-1}(Z)"))
            summands.append(InfiniteDimensional(f"Omega_xi^{p-1}(Z)"))
        else:
            summands.append(Zero(f"H^{p-1}(Z)"))
            summands.append(Zero(f"Omega^{p-1}(Z)"))
            summands.append(Zero(f"Omega_xi^{p-1}(Z)"))
        summands.append(_kernel_slot(p - 2, n))
    return CohomologyReport("sc-poisson", p, tuple(summands))


def _horizontal_slot(profile: BettiProfile, q: int) -> object:
    if q < 0:
        return Zero(f"H_h^{q}(F_R)")
    if profile.tag == "bk-torus":
        fiber = profile.dim_m - 2
        return InfiniteDimensional(f"C^inf(S^1; H^{q}(T^{fiber}))")
    return Unresolved(f"H_h^{q}(F_R)")


def bk_poisson(profile: BettiProfile, p: int, k: int) -> CohomologyReport:
    """Poisson cohomology of a non-degenerate b^k bivector: H^p(M) +
    H^{p-1}(Z) for k = 1, with (H_h^{p-2})^{k-1} + (H_h^{p-1})^{k-1}
    appended per Z component for k >= 2."""
    if k < 1:
        raise CohomologyError("k must be at least 1")
    if p < 0 or p > profile.dim_m:
        raise CohomologyError(f"degree {p} out of range")
    summands = [FiniteRank(profile.b_m(p), f"H^{p}(M)")]
    for _ in range(profile.z_components):
        if p >= 1:
            summands.append(FiniteRank(profile.b_z(p - 1), f"H^{p-1}(Z)"))
        if k >= 2:
            for q in (p - 2, p - 1):
                slot = _horizontal_slot(profile, q)
                if isinstance(slot, Zero):
                    continue
                summands.extend([slot] * (k - 1))
    return CohomologyReport("bk-poisson", p, tuple(summands))


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
