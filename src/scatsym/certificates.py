"""Verdict objects and grid helpers for numerical certification."""

from __future__ import annotations

import itertools
import math
from typing import Callable, Mapping, Optional, Sequence

from .expr import DomainError, Record
from .geometry import Chart, SingularForm, compile_form

DEFAULT_POINTS_PER_AXIS = 17
MAX_GRID_POINTS = 20000


class Certificate(Record):
    kind: str  # "proven" | "numerically-verified" | "refuted"
    grid_points: int = 0
    tolerance: float = 0.0
    min_margin: Optional[float] = None
    witness: Optional[tuple] = None  # ((name, value), ...) for refutations
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.kind in ("proven", "numerically-verified")


def proven(detail: str = "") -> Certificate:
    return Certificate("proven", detail=detail)


def verified(grid_points: int, tol: float, min_margin: float,
             detail: str = "") -> Certificate:
    return Certificate("numerically-verified", grid_points, tol, min_margin,
                       detail=detail)


def refuted(witness: Mapping[str, float], value: float = 0.0,
            detail: str = "") -> Certificate:
    return Certificate("refuted", witness=tuple(sorted(witness.items())),
                       min_margin=value, detail=detail)


def axis_points(lo: float, hi: float, count: int, include: Sequence[float] = ()):
    """Evenly spaced interior points plus any requested values in range."""
    pts = []
    for i in range(count):
        t = (i + 0.5) / count
        pts.append(lo + t * (hi - lo))
    for v in include:
        if lo <= v <= hi and v not in pts:
            pts.append(v)
    return sorted(pts)


def chart_grid(chart_: Chart, per_axis: int = DEFAULT_POINTS_PER_AXIS,
               max_points: int = MAX_GRID_POINTS):
    """Tensor grid over the chart, always including the x = 0 slice.

    Axis counts shrink uniformly until the total stays under max_points.
    """
    if per_axis < 1:
        raise ValueError(
            f"grid needs at least one point per axis, got {per_axis}")
    n = chart_.dim
    count = per_axis
    while count > 2 and count ** n > max_points:
        count -= 1
    axes = []
    for name, (lo, hi) in zip(chart_.names, chart_.ranges):
        include = (0.0,) if name == chart_.x else ()
        axes.append([(name, v) for v in axis_points(lo, hi, count, include)])
    return [dict(combo) for combo in itertools.product(*axes)]


def certify_positive(fn: Callable[[dict], float], points, tol: float,
                     detail: str = "") -> Certificate:
    """fn(point) > tol on every grid point, reporting the minimum margin.

    A point where fn is undefined (DomainError) refutes, with that point as
    the witness.  No points certify nothing, so an empty set refutes."""
    points = list(points)
    if not points:
        return refuted({}, detail=f"{detail}: no grid points")
    min_margin = math.inf
    for pt in points:
        try:
            v = fn(pt)
        except DomainError as e:
            return refuted(pt, detail=f"{detail}: undefined, {e}")
        if not v > tol:  # NaN fails too
            return refuted(pt, v, detail=detail)
        min_margin = min(min_margin, v)
    return verified(len(points), tol, min_margin, detail=detail)


def certify_nonvanishing(form: SingularForm, grid, tol: float,
                         detail: str = "") -> Certificate:
    """max |coefficient| of form stays above tol on every grid point (by
    default the chart grid of the form's chart)."""
    if grid is None:
        grid = chart_grid(form.chart)
    values = compile_form(form)

    def max_abs(pt):
        vals = [abs(v) for v in values(pt).values()]
        # max() keeps a NaN only when it comes first
        return math.nan if any(map(math.isnan, vals)) else max(vals, default=0.0)

    return certify_positive(max_abs, grid, tol, detail=detail)


def geometric_refinement(locus: float, lo: float, hi: float, base: int = 64,
                         closest: float = 1e-6):
    """Points on (lo, hi) accumulating geometrically toward `locus`."""
    pts = []
    span = max(abs(hi - locus), abs(locus - lo))
    d = span
    while d > closest:
        for s in (-1.0, 1.0):
            v = locus + s * d
            if lo < v < hi:
                pts.append(v)
        d *= 0.5
    for i in range(base):
        t = (i + 0.5) / base
        pts.append(lo + t * (hi - lo))
    return sorted(set(pts))
