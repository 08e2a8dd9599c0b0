"""Rescaled coframes and the judgments they induce.

A frame is a flavor and two weights: its coframe is dx/x^wx together with
dy_j/x^wy for every other coordinate y_j.  A singular form is a smooth
section of the frame when, written in that coframe, every coefficient has
Laurent exponent <= 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .certificates import (
    Certificate, certify_positive, chart_grid, proven, refuted,
)
from .expr import (
    Const, Record, ZERO, add, canon, collect_x_powers, is_provably_zero, mul,
    substitute, var,
)
from .geometry import (
    Chart, GeometryError, SingularForm, exterior_derivative, laurent_decompose,
    make_form, restrict_to_z, smooth_form, top_power, z_chart, zero_form,
)

class FrameError(GeometryError):
    pass


class AlgebroidFrame(Record):
    flavor: str
    chart: Chart
    wx: int  # the coframe holds dx/x^wx
    wy: int  # and dy_j/x^wy for each other coordinate

    def weight(self, idx) -> int:
        """w with dx_idx = x^w times the coframe wedge over idx."""
        return sum(self.wx if n == self.chart.x else self.wy for n in idx)

    def labels(self, idx) -> tuple:
        """The d<name> labels of idx: dx first, the rest in chart order."""
        ch = self.chart
        return tuple(f"d{n}" for n in
                     sorted(idx, key=lambda n: (n != ch.x, ch.index(n))))

    def volume_weight(self) -> int:
        return self.weight(self.chart.names)


def coframe(flavor: str, chart_: Chart, k: int = 1,
            m: int = 1) -> AlgebroidFrame:
    """Build the coframe of the requested flavor on a chart with Z = {x=0}.

    Weight tables (weight w means generator = dx_i / x^w):
      b            dx/x,      dy_j
      zero         dx/x,      dy_j/x
      sc           dx/x^2,    dy_j/x
      sc^k         dx/x^{k+1}, dy_j/x^k
      b^k          dx/x^k,    dy_j
      zero^m-b^k   dx/x^{k+m}, dy_j/x^m
    """
    if chart_.x is None:
        raise FrameError("coframe requires a chart with a Z coordinate")
    weights = {"b": (1, 0), "zero": (1, 1), "sc": (2, 1), "sc^k": (k + 1, k),
               "b^k": (k, 0), "zero^m-b^k": (k + m, m)}
    if flavor not in weights:
        raise FrameError(f"unknown flavor '{flavor}'")
    return AlgebroidFrame(flavor, chart_, *weights[flavor])


def is_smooth_section(f: SingularForm, frame: AlgebroidFrame) -> Certificate:
    """Proven when every coefficient in the frame basis has Laurent exponent
    <= 0; refuted otherwise, naming the (exponent, labels) slots above."""
    if f.chart != frame.chart:
        raise FrameError("chart mismatch")
    # c x^{-k} dx_idx = c x^{-(k - w)} times the coframe wedge over idx
    coeffs = collect_x_powers([(k - frame.weight(idx), c, idx)
                               for k, c, idx in f.terms], f.chart.x)
    bad = tuple(sorted((expo, frame.labels(idx))
                       for expo, idx in coeffs if expo > 0))
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
    # top = sum_t c_t x^{-k_t} dVol; the frame volume is +-dVol/x^{wsum},
    # and the sign drops out of |.|
    if top.max_pole() > wsum:
        return refuted({}, detail=f"top power exceeds frame volume pole "
                                  f"({top.max_pole()} > {wsum})")
    if top.is_zero_form:
        return refuted({}, detail="top power vanishes identically")
    (volume,) = top.pole_sums(wsum).values()
    if grid is None:
        grid = chart_grid(ch)
    return certify_positive([canon(volume)], grid, tol,
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
    slot = laurent_decompose(d_omega).get(m + 1)
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
