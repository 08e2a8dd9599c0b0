"""Verdict objects and grid helpers for numerical certification."""

from __future__ import annotations

import itertools
import math
from typing import Callable, Mapping, Optional, Sequence

from .expr import DomainError, Record
from .geometry import Chart, SingularForm, ZeroVerdictMap, compile_form

DEFAULT_POINTS_PER_AXIS = 17
MAX_GRID_POINTS = 20000


# verdict kinds from weakest to strongest, each beside its ZeroVerdict kind
_KINDS = (("refuted", "nonzero"), ("numerically-verified", "numerically-zero"),
          ("proven", "proven-zero"))


class Certificate(Record):
    """A verdict.  min_margin is signed slack: value - bound for a lower
    bound, tol - error for a tolerance.  A composite (see all_of) holds its
    named child verdicts in parts, as ((name, verdict), ...)."""

    kind: str  # "proven" | "numerically-verified" | "refuted"
    grid_points: int = 0
    tolerance: float = 0.0
    min_margin: Optional[float] = None
    witness: Optional[tuple] = None  # ((name, value), ...) for refutations
    detail: str = ""
    parts: tuple = ()

    def __post_init__(self):
        # parts are reported beside the fields, so a name must not shadow one
        clash = {name for name, _ in self.parts} & {
            *self._fields, "type", "passed"}
        if clash:
            raise ValueError(f"part names {sorted(clash)} collide with "
                             "Certificate fields")

    @property
    def passed(self) -> bool:
        return self.kind in ("proven", "numerically-verified")


def proven(detail: str = "") -> Certificate:
    return Certificate("proven", detail=detail)


def verified(grid_points: int, tol: float, min_margin: float,
             detail: str = "") -> Certificate:
    return Certificate("numerically-verified", grid_points, tol, min_margin,
                       detail=detail)


def refuted(witness: Mapping[str, float], margin: Optional[float] = None,
            detail: str = "") -> Certificate:
    return Certificate("refuted", witness=tuple(sorted(witness.items())),
                       min_margin=margin, detail=detail)


def exact(holds: bool, detail: str) -> Certificate:
    """The verdict of an exact (structural) check."""
    return proven(detail) if holds else refuted({}, detail=detail)


def _rank(verdict) -> int:
    """Position in _KINDS of a Certificate or ZeroVerdict, or of the weakest
    slot of a ZeroVerdictMap (an empty map is proven)."""
    if isinstance(verdict, ZeroVerdictMap):
        return min(map(_rank, verdict.verdicts.values()), default=2)
    return next(i for i, kinds in enumerate(_KINDS) if verdict.kind in kinds)


def all_of(detail: str, /, **parts) -> Certificate:
    """Passes iff every part passes; its kind is the weakest part's.  A
    refuted result names its first refuted part and carries its witness."""
    kind = _KINDS[min(map(_rank, parts.values()), default=2)][0]
    witness = None
    for name, part in parts.items():
        if not _rank(part):
            if isinstance(part, ZeroVerdictMap):
                part = next(v for v in part.verdicts.values() if not _rank(v))
            detail, witness = f"{detail}: {name} refuted", part.witness
            break
    return Certificate(kind, witness=witness, detail=detail,
                       parts=tuple(parts.items()))


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
    for name, (lo, hi) in zip(chart_.names, chart_.ranges):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"grid needs a finite range for '{name}', "
                             f"got ({lo}, {hi})")
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
    """fn(point) > tol on every grid point; the margin is min fn - tol.

    A point where fn is undefined (DomainError) refutes, with that point as
    the witness.  No points certify nothing, so an empty set refutes."""
    points = list(points)
    if not points:
        return refuted({}, detail=f"{detail}: no grid points")
    least = math.inf
    for pt in points:
        try:
            v = fn(pt)
        except DomainError as e:
            return refuted(pt, detail=f"{detail}: undefined, {e}")
        if not v > tol:  # NaN fails too
            return refuted(pt, v - tol, detail=detail)
        least = min(least, v)
    return verified(len(points), tol, least - tol, detail=detail)


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
