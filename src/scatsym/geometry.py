"""Charts and Laurent-graded exterior calculus.

A SingularForm is a sum of terms ``coeff * x^{-k} * dI`` where coeff is a
symbolic expression, x is the chart's Z-defining coordinate, k is an exact
integer, and dI is a strictly increasing covector multi-index.  The same
container (kind="vector") holds multivector fields, where k <= 0 records
the vanishing order at Z on the vector side.

Only this module reads the grading.  There are two ways out of it:
``SingularForm.pole_sums`` folds each pole back into one coefficient per
multi-index (the matrices, top-power scalars and numeric values are built
from it), and ``laurent_decompose`` splits the form into its dx and rest
slots per exponent, as forms on the chart of Z.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .expr import (
    Const,
    Expr,
    ExprError,
    ONE,
    PiecewiseDecay,
    Record,
    ZERO,
    add,
    collect_x_powers,
    differentiate,
    evaluate,
    free_vars,
    is_zero,
    mul,
    pfaffians,
    powx,
    ser,
    substitute,
    var,
)


class GeometryError(ExprError):
    pass


class Chart(Record):
    """Named coordinates with ranges; at most one Z-defining coordinate."""

    names: tuple
    ranges: tuple  # ((lo, hi) per coordinate), floats
    x: Optional[str] = None  # Z-defining coordinate, Z = {x = 0}
    circles: frozenset = frozenset()  # names of circle-valued coordinates

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise GeometryError("duplicate coordinate names")
        if len(self.ranges) != len(self.names):
            raise GeometryError("ranges must match coordinates")
        if self.x is not None and self.x not in self.names:
            raise GeometryError(f"Z coordinate '{self.x}' not in chart")
        for lo, hi in self.ranges:
            if not lo < hi:
                raise GeometryError("empty coordinate range")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GeometryError(f"unknown coordinate '{name}'") from None

    def box(self) -> dict:
        return {n: r for n, r in zip(self.names, self.ranges)}


def _sorted_index(chart_: Chart, idx: Sequence[str]):
    """Sort a multi-index into chart order, returning (sign, tuple) or None
    on a repeated coordinate."""
    positions = [chart_.index(n) for n in idx]
    if len(set(positions)) != len(positions):
        return None
    sign = 1
    order = list(range(len(positions)))
    # insertion sort, counting swaps
    for i in range(1, len(order)):
        j = i
        while j > 0 and positions[order[j - 1]] > positions[order[j]]:
            order[j - 1], order[j] = order[j], order[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(idx[o] for o in order)


class SingularForm(Record):
    chart: Chart
    degree: int
    terms: tuple  # of (k: int, coeff: Expr, idx: tuple[str])
    kind: str = "form"  # or "vector"

    def __add__(self, other: "SingularForm") -> "SingularForm":
        if self.chart != other.chart or self.kind != other.kind:
            raise GeometryError("chart/kind mismatch in form addition")
        if self.terms and other.terms and self.degree != other.degree:
            raise GeometryError("degree mismatch in form addition")
        deg = self.degree if self.terms else other.degree
        return make_form(self.chart, deg,
                         list(self.terms) + list(other.terms), self.kind)

    def __sub__(self, other: "SingularForm") -> "SingularForm":
        return self + other.scale(Const(Fraction(-1)))

    def __neg__(self) -> "SingularForm":
        return self.scale(Const(Fraction(-1)))

    def scale(self, factor) -> "SingularForm":
        return make_form(self.chart, self.degree,
                         [(k, mul(factor, c), i) for k, c, i in self.terms],
                         self.kind)

    @property
    def is_zero_form(self) -> bool:
        return not self.terms

    def max_pole(self) -> int:
        return max((k for k, _, _ in self.terms), default=0)

    def pole_sums(self, shift: int = 0) -> dict:
        """The coefficient of x^{-shift} dI per multi-index I: the sum of
        c * x^{shift-k} over the terms (k, c, I), added in term order."""
        out: dict = {}
        for k, c, idx in self.terms:
            part = mul(c, powx(var(self.chart.x), shift - k)) if k != shift else c
            out[idx] = add(out.get(idx, ZERO), part)
        return out


def make_form(chart_: Chart, degree: int, terms, kind: str = "form") -> SingularForm:
    """Normalize: sort indices, absorb bare x powers from coefficients into
    the Laurent exponent, merge duplicates, drop zero coefficients."""
    signed = []
    for k, coeff, idx in terms:
        if len(idx) != degree:
            raise GeometryError(f"index {idx} does not match degree {degree}")
        srt = _sorted_index(chart_, idx)
        if srt is None:
            continue
        sign, key = srt
        signed.append((int(k), mul(sign, coeff), key))
    out = [(k, c, key)
           for (k, key), c in collect_x_powers(signed, chart_.x).items()]
    out.sort(key=lambda t: (-t[0], t[2]))
    return SingularForm(chart_, degree, tuple(out), kind)


def zero_form(chart_: Chart, degree: int) -> SingularForm:
    return SingularForm(chart_, degree, ())


def scalar_one(chart_: Chart) -> SingularForm:
    """The constant function 1 as a 0-form."""
    return make_form(chart_, 0, [(0, ONE, ())])


def smooth_form(chart_: Chart, coeff_by_index: Mapping[tuple, Expr]) -> SingularForm:
    terms = [(0, c, idx) for idx, c in coeff_by_index.items()]
    degree = len(next(iter(coeff_by_index))) if coeff_by_index else 0
    return make_form(chart_, degree, terms)


def wedge(a: SingularForm, b: SingularForm) -> SingularForm:
    if a.chart != b.chart:
        raise GeometryError("chart mismatch in wedge")
    if a.kind != b.kind:
        raise GeometryError("kind mismatch in wedge")
    terms = []
    for k1, c1, i1 in a.terms:
        for k2, c2, i2 in b.terms:
            if set(i1) & set(i2):
                continue
            terms.append((k1 + k2, mul(c1, c2), i1 + i2))
    return make_form(a.chart, a.degree + b.degree, terms, a.kind)


def exterior_derivative(f: SingularForm) -> SingularForm:
    """d(x^{-k} g dI) = -k x^{-k-1} dx wedge g dI + x^{-k} dg wedge dI."""
    if f.kind != "form":
        raise GeometryError("exterior derivative applies to forms")
    ch = f.chart
    terms = []
    for k, c, idx in f.terms:
        if ch.x is not None and k != 0 and ch.x not in idx:
            terms.append((k + 1, mul(-k, c), (ch.x,) + idx))
        for name in ch.names:
            if name in idx:
                continue
            terms.append((k, differentiate(c, name), (name,) + idx))
    return make_form(ch, f.degree + 1, terms)


def interior_product(v: SingularForm, f: SingularForm) -> SingularForm:
    """Contraction of a multivector into a form; i_{X wedge Y} = i_X i_Y."""
    if v.chart != f.chart:
        raise GeometryError("chart mismatch in contraction")
    if v.kind != "vector" or f.kind != "form":
        raise GeometryError("contraction takes (multivector, form)")
    if v.degree > f.degree:
        raise GeometryError("multivector degree exceeds form degree")
    out_terms = []
    for kv, cv, iv in v.terms:
        partial = [(kf, mul(cv, cf), idxf) for kf, cf, idxf in f.terms]
        # contract the vector factors right-to-left: i_{v1^v2} = i_v1 i_v2
        for name in reversed(iv):
            nxt = []
            for k, c, idx in partial:
                if name not in idx:
                    continue
                pos = idx.index(name)
                sign = (-1) ** pos
                nxt.append((k, mul(sign, c), idx[:pos] + idx[pos + 1:]))
            partial = nxt
        out_terms.extend((kv + k, c, idx) for k, c, idx in partial)
    return make_form(f.chart, f.degree - v.degree, out_terms)


def top_power(f: SingularForm, n: int) -> SingularForm:
    """f^n = n! sum_S Pf(W_S) dx_S over the 2n-subsets S of the chart's
    coordinates, W the antisymmetric matrix of f's pole sums: one exact
    Pfaffian expansion and one make_form.  f^0 is the constant 1, and f^1
    has f's terms."""
    if f.degree != 2:
        raise GeometryError("top_power expects a degree-2 form")
    if n < 0:
        raise GeometryError("top_power expects n >= 0")
    ch = f.chart
    entries = {tuple(map(ch.index, idx)): c for idx, c in f.pole_sums().items()}
    pfs = pfaffians(entries, ch.dim, 2 * n, math.factorial(n))
    return make_form(ch, 2 * n,
                     [(0, c, tuple(ch.names[i] for i in s)) for s, c in pfs.items()],
                     f.kind)


def z_chart(ch: Chart) -> Chart:
    if ch.x is None:
        raise GeometryError("chart has no Z coordinate")
    names = tuple(n for n in ch.names if n != ch.x)
    ranges = tuple(r for n, r in zip(ch.names, ch.ranges) if n != ch.x)
    circles = frozenset(c for c in ch.circles if c != ch.x)
    return Chart(names, ranges, None, circles)


def restrict_to_z(f: SingularForm) -> SingularForm:
    """Restrict a smooth form to Z = {x = 0}: drop dx terms, set x = 0."""
    ch = f.chart
    terms = []
    for k, c, idx in f.terms:
        # x^{-k} c vanishes at Z when k < 0
        if k != 0 or ch.x in idx:
            continue
        terms.append((0, substitute(c, {ch.x: ZERO}), idx))
    return make_form(z_chart(ch), f.degree, terms)


def lift(f: SingularForm, ch: Chart, k: int = 0) -> SingularForm:
    """Interpret a form on Z as a form on the chart with x, scaled x^{-k}."""
    return make_form(ch, f.degree, [(k + k0, c, idx) for k0, c, idx in f.terms],
                     f.kind)


def exact_singular(f: SingularForm, ch: Chart, j: int) -> SingularForm:
    """-d(f/x^j)/j = dx/x^{j+1} wedge f - d(f)/(j x^j), f on the Z chart."""
    return exterior_derivative(lift(f, ch, j)).scale(Const(Fraction(-1, j)))


class LaurentSlot(Record):
    dx_part: SingularForm  # alpha with term x^{-k} dx wedge alpha, on Z
    rest: SingularForm  # beta with term x^{-k} beta (no dx factor), on Z


def laurent_decompose(f: SingularForm) -> dict:
    """Expand coefficients in x about Z and split off dx components.

    Returns {exponent: LaurentSlot} in decreasing exponent, from the
    deepest pole down to 0, with both parts of each slot forms on
    z_chart(f.chart).  Coefficients must be analytic in x at 0;
    PiecewiseDecay nodes in x are rejected.
    """
    ch = f.chart
    if ch.x is None:
        raise GeometryError("chart has no Z-defining coordinate")
    xname = ch.x
    slots: dict = {}

    def put(expo, idx, coeff):
        has_dx = xname in idx
        if has_dx:
            pos = idx.index(xname)
            sign = (-1) ** pos
            idx = idx[:pos] + idx[pos + 1:]
            coeff = mul(sign, coeff)
        dx_terms, rest_terms = slots.setdefault(expo, ([], []))
        (dx_terms if has_dx else rest_terms).append((0, coeff, idx))

    for k, c, idx in f.terms:
        _check_expandable(c, xname)
        g = c
        for j in range(k + 1):
            cj = substitute(g, {xname: ZERO})
            put(k - j, idx, mul(Fraction(1, math.factorial(j)), cj))
            g = differentiate(g, xname)
    zch = z_chart(ch)
    out = {}
    for expo in sorted(slots, reverse=True):
        dx_terms, rest_terms = slots[expo]
        dxf = make_form(zch, f.degree - 1, dx_terms)
        restf = make_form(zch, f.degree, rest_terms)
        if dxf.is_zero_form and restf.is_zero_form:
            continue
        out[expo] = LaurentSlot(dxf, restf)
    return out


def _check_expandable(e: Expr, xname: str):
    if isinstance(e, PiecewiseDecay):
        if xname in free_vars(e.arg):
            raise GeometryError("piecewise coefficient straddles x = 0; "
                                "expansion unsupported")
        return
    for child in _children(e):
        _check_expandable(child, xname)


def _children(e: Expr):
    from .expr import Sum, Prod, Pow, Exp, Sin, Cos
    if isinstance(e, (Sum, Prod)):
        return e.args
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Exp, Sin, Cos)):
        return (e.arg,)
    return ()


# ---------------------------------------------------------------------------
# pointwise evaluation


def evaluate_form(f: SingularForm, point: Mapping[str, float]) -> dict:
    """Numeric coefficients keyed by multi-index (poles evaluated)."""
    return {idx: float(evaluate(c, point)) for idx, c in f.pole_sums().items()}


def forms_equal(a: SingularForm, b: SingularForm, n_samples: int = 200,
                tol: float = 1e-9) -> ZeroVerdictMap:
    """Per-slot zero verdicts for a - b on a's chart box."""
    diff = a - b
    dom = a.chart.box()
    verdicts = {}
    for k, c, idx in diff.terms:
        verdicts[(k, idx)] = is_zero(c, dom, n_samples, tol)
    return ZeroVerdictMap(verdicts)


def off_pole_domain(ch: Chart) -> dict:
    """The chart's box with the x axis kept away from the pole locus x = 0
    and inside the box."""
    dom = ch.box()
    if ch.x is not None and ch.x in dom:
        lo, hi = (float(v) for v in dom[ch.x])
        if lo < 0.0 < hi:
            dom[ch.x] = (min(0.05 * (hi - lo), hi / 2), hi)
    return dom


class ZeroVerdictMap(Record):
    verdicts: dict

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.verdicts.values())


# ---------------------------------------------------------------------------
# serialization


def form_to_json(f: SingularForm) -> str:
    doc = {
        "chart": {
            "names": list(f.chart.names),
            "ranges": [list(r) for r in f.chart.ranges],
            "x": f.chart.x,
            "circles": sorted(f.chart.circles),
        },
        "degree": f.degree,
        "kind": f.kind,
        "terms": [
            {"k": k, "coeff": ser(c), "index": list(idx)} for k, c, idx in f.terms
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def form_from_json(text: str) -> SingularForm:
    from .reader import parse
    doc = json.loads(text)
    c = doc["chart"]
    ch = Chart(tuple(c["names"]), tuple(tuple(r) for r in c["ranges"]),
               c.get("x"), frozenset(c.get("circles", ())))
    terms = [(t["k"], parse(t["coeff"]), tuple(t["index"])) for t in doc["terms"]]
    return make_form(ch, doc["degree"], terms, doc.get("kind", "form"))
