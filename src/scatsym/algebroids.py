"""Rescaled coframes and the judgments they induce.

A frame is a list of generators (smooth covector, weight w): the actual
coframe element is covector / x^w.  A singular form is a smooth section of
the frame when, rewritten in the coframe basis, every coefficient has
Laurent exponent <= 0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .certificates import (
    Certificate, certify_positive, chart_grid, proven, refuted,
)
from .expr import (
    Const, ONE, Record, ZERO, add, canon, collect_x_powers, compile_float,
    is_provably_zero, mul, powx, substitute, var,
)
from .geometry import (
    Chart, GeometryError, SingularForm, exterior_derivative, laurent_decompose,
    make_form, restrict_to_z, smooth_form, top_power, z_chart, zero_form,
)
from .linalg import sym_det, sym_inverse

class FrameError(GeometryError):
    pass


class AlgebroidFrame(Record):
    flavor: str
    chart: Chart
    generators: tuple  # of (label: str, covector: SingularForm deg 1 smooth, weight: int)

    def __post_init__(self):
        if len(self.generators) != self.chart.dim:
            raise FrameError("frame rank must equal chart dimension")

    @property
    def weights(self) -> tuple:
        return tuple(w for _, _, w in self.generators)

    @property
    def labels(self) -> tuple:
        return tuple(lbl for lbl, _, _ in self.generators)

    def coefficient_matrix(self):
        """Rows: generator covectors expressed in the coordinate basis."""
        ch = self.chart
        m = []
        for _, cov, _ in self.generators:
            row = [ZERO] * ch.dim
            for k, c, (name,) in cov.terms:
                if k != 0:
                    raise FrameError("frame covectors must be smooth")
                row[ch.index(name)] = c
            m.append(row)
        return m

    def volume_weight(self) -> int:
        return sum(self.weights)


def _coordinate_covector(ch: Chart, name: str) -> SingularForm:
    return smooth_form(ch, {(name,): ONE})


def coframe(flavor: str, chart_: Chart, k: int = 1, m: int = 1,
            aux: Optional[dict] = None) -> AlgebroidFrame:
    """Build the coframe of the requested flavor on a chart with Z = {x=0}.

    Weight tables (weight w means generator = covector / x^w):
      b            dx/x,      dy_j
      zero         dx/x,      dy_j/x
      sc           dx/x^2,    dy_j/x
      sc^k         dx/x^{k+1}, dy_j/x^k
      b^k          dx/x^k,    dy_j
      zero^m-b^k   dx/x^{k+m}, dy_j/x^m
      rigged-sc    dx/x^3, alpha/x^3, xi-covectors/x^2   (aux: alpha, xi)
      rigged-b^k   dx/x^k, theta/x^k, rest smooth        (aux: theta, rest)
    """
    if chart_.x is None:
        raise FrameError("coframe requires a chart with a Z coordinate")
    xname = chart_.x
    others = [n for n in chart_.names if n != xname]
    dxc = _coordinate_covector(chart_, xname)

    def plain(wx: int, wy: int) -> AlgebroidFrame:
        gens = [(f"d{xname}", dxc, wx)]
        gens += [(f"d{n}", _coordinate_covector(chart_, n), wy) for n in others]
        return AlgebroidFrame(flavor, chart_, tuple(gens))

    if flavor == "b":
        return plain(1, 0)
    if flavor == "zero":
        return plain(1, 1)
    if flavor == "sc":
        return plain(2, 1)
    if flavor == "sc^k":
        return plain(k + 1, k)
    if flavor == "b^k":
        return plain(k, 0)
    if flavor == "zero^m-b^k":
        return plain(k + m, m)
    if flavor == "rigged-sc":
        if not aux or "alpha" not in aux or "xi" not in aux:
            raise FrameError("rigged-sc needs aux={'alpha': 1-form, 'xi': [1-forms]}")
        gens = [(f"d{xname}", dxc, 3), ("alpha", aux["alpha"], 3)]
        gens += [(f"xi{i}", covec, 2) for i, covec in enumerate(aux["xi"])]
        return AlgebroidFrame(flavor, chart_, tuple(gens))
    if flavor == "rigged-b^k":
        if not aux or "theta" not in aux or "rest" not in aux:
            raise FrameError("rigged-b^k needs aux={'theta': 1-form, 'rest': [1-forms]}")
        gens = [(f"d{xname}", dxc, k), ("theta", aux["theta"], k)]
        gens += [(f"h{i}", covec, 0) for i, covec in enumerate(aux["rest"])]
        return AlgebroidFrame(flavor, chart_, tuple(gens))
    raise FrameError(f"unknown flavor '{flavor}'")


def rewrite_in_frame(f: SingularForm, frame: AlgebroidFrame):
    """Express f in the frame's coframe basis.

    Returns {(exponent, generator-label multi-index): coeff} where the form
    equals sum coeff * x^{-exponent} * wedge of generators.
    """
    if f.chart != frame.chart:
        raise FrameError("chart mismatch")
    ch = f.chart
    mat = frame.coefficient_matrix()
    inv = sym_inverse(mat)
    weights = frame.weights
    labels = frame.labels
    # dc_j = sum_l inv[j][l] * x^{w_l} * gen_l
    terms = []
    for k, c, idx in f.terms:
        expansions = [
            [(l, inv[ch.index(name)][l]) for l in range(ch.dim)
             if not is_provably_zero(inv[ch.index(name)][l])]
            for name in idx
        ]
        for combo in itertools.product(*expansions):
            ls = [l for l, _ in combo]
            if len(set(ls)) != len(ls):
                continue
            sign = _perm_sign(ls)
            coeff = mul(Const(Fraction(sign)), c, *[e for _, e in combo])
            wsum = sum(weights[l] for l in ls)
            terms.append((k - wsum, coeff, tuple(sorted(ls))))
    return {(expo, tuple(labels[l] for l in ls)): coeff
            for (expo, ls), coeff in collect_x_powers(terms, ch.x).items()}


def _perm_sign(seq) -> int:
    sign = 1
    s = list(seq)
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[i] > s[j]:
                sign = -sign
    return sign


def is_smooth_section(f: SingularForm, frame: AlgebroidFrame) -> Certificate:
    """Proven when every coefficient in the frame basis has Laurent exponent
    <= 0; refuted otherwise, naming the (exponent, labels) slots above."""
    coeffs = rewrite_in_frame(f, frame)
    bad = tuple(sorted((expo, labels) for (expo, labels) in coeffs if expo > 0))
    if bad:
        return refuted({}, detail=f"not a smooth section: {bad}")
    return proven(f"smooth section of the {frame.flavor} frame")


def nondegenerate(f: SingularForm, frame: AlgebroidFrame, grid=None,
                  tol: float = 1e-8) -> Certificate:
    """Certify wedge^n f is nonzero against the frame volume, x = 0 included."""
    section = is_smooth_section(f, frame)
    return certify_volume(f, frame, grid, tol) if section.passed else section


def certify_volume(f: SingularForm, frame: AlgebroidFrame, grid=None,
                   tol: float = 1e-8) -> Certificate:
    """nondegenerate, for an f already shown to be a smooth section."""
    if f.degree != 2:
        raise FrameError("non-degeneracy expects a degree-2 form")
    ch = f.chart
    if ch.dim % 2:
        raise FrameError("non-degeneracy expects an even-dimensional chart")
    n = ch.dim // 2
    top = top_power(f, n)
    wsum = frame.volume_weight()
    det = sym_det(frame.coefficient_matrix())
    # top = sum_t c_t x^{-k_t} dVol; frame volume = det / x^{wsum} dVol
    if top.max_pole() > wsum:
        return refuted({}, detail=f"top power exceeds frame volume pole "
                                  f"({top.max_pole()} > {wsum})")
    if top.is_zero_form:
        return refuted({}, detail="top power vanishes identically")
    (volume,) = top.pole_sums(wsum).values()
    scalar = compile_float(canon(mul(volume, powx(det, -1))))
    if grid is None:
        grid = chart_grid(ch)
    return certify_positive(lambda pt: abs(scalar(pt)), grid, tol,
                            detail="|wedge^n omega / frame volume|")


class NoGoReport(Record):
    applicable: bool
    beta_forced_zero: Optional[bool] = None
    top_power_vanishes: Optional[bool] = None
    detail: str = ""

    @property
    def refutes(self) -> bool:
        return bool(self.applicable and self.beta_forced_zero
                    and self.top_power_vanishes)


def no_go_check(m: int, k: int, dim: int, seed: int = 1) -> NoGoReport:
    """For omega = dx/x^{k+m} wedge alpha + beta/x^m with m > 0, k != 1,
    dim > 2: closedness forces beta|_Z = 0, and then wedge^n omega vanishes
    at Z.  Both facts are derived on randomized smooth alpha, beta."""
    if m <= 0 or k == 1 or dim <= 2 or dim % 2:
        return NoGoReport(False, detail="parameters outside the obstruction range")
    n = dim // 2
    names = ["x"] + [f"y{i}" for i in range(1, dim)]
    ch = Chart(tuple(names), tuple((-1.0, 1.0) for _ in names), "x")

    rng = _lcg(seed)
    ys = names[1:]

    def rand_coeff():
        terms = [Const(Fraction(next(rng) % 7 - 3))]
        for nm in ys[:3]:
            terms.append(mul(Const(Fraction(next(rng) % 5 - 2)), var(nm)))
        return add(*terms)

    alpha = smooth_form(ch, {(nm,): rand_coeff() for nm in ys})
    beta_terms = {}
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            beta_terms[(ys[i], ys[j])] = rand_coeff()
    beta = smooth_form(ch, beta_terms)

    omega = make_form(ch, 2,
                      [(k + m, c, ("x",) + idx) for _, c, idx in alpha.terms]
                      + [(m, c, idx) for _, c, idx in beta.terms])
    d_omega = exterior_derivative(omega)

    # closedness at the x^{-(m+1)} dx-slot: equals -m * beta|_Z exactly,
    # because k + m != m + 1 keeps the d(alpha) term out of this slot
    target = beta.scale(Const(Fraction(-m)))
    slot = {s.exponent: s for s in laurent_decompose(d_omega)}.get(m + 1)
    dx_part = slot.dx_part if slot else zero_form(z_chart(ch), 2)
    slot_ok = (dx_part - restrict_to_z(target)).is_zero_form

    # impose beta|_Z = 0 (beta -> x * beta) and inspect the top power at Z
    omega2 = make_form(ch, 2,
                       [(k + m, c, ("x",) + idx) for _, c, idx in alpha.terms]
                       + [(m - 1, c, idx) for _, c, idx in beta.terms])
    top = top_power(omega2, n)
    vol_pole = k + m * n
    vanishes = True
    for kt, c, _ in top.terms:
        # frame-normalized coefficient is c * x^{vol_pole - kt}; it must
        # vanish at x = 0
        if kt < vol_pole:
            continue
        at_z = canon(substitute(c, {"x": ZERO}))
        if not is_provably_zero(at_z):
            vanishes = False
    return NoGoReport(True, slot_ok, vanishes,
                      detail=f"m={m}, k={k}, dim={dim}")


def _lcg(seed: int):
    state = seed * 2654435761 % (2 ** 31)
    while True:
        state = (1103515245 * state + 12345) % (2 ** 31)
        yield state
