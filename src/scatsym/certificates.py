"""Verdict objects and grid helpers for numerical certification.

Every leaf verdict is a Certificate, on one ladder of kinds from weakest to
strongest: refuted, numerically-verified, proven.  Its min_margin is signed
slack everywhere, a sampled identity (`expr.is_zero`, so each slot of
`forms_equal` and `closedness`) included: there it is tol - |e|.

A tensor grid is kept as its axes (Grid), not as one dict per point.  A
grid certificate compiles its margin into one grid kernel
(floatcode.compile_margin), which streams the rows of the product of the
axes the margin reads, computes each distinct subtree once per point and
keeps the running minimum; a point becomes a dict, and goes to the tree walk
`evaluate`, only when the kernel cannot settle it.

A `proven` verdict claims an identity between exact normal forms (`canon`),
not definedness on the whole chart: where `canon` cancels a pole, as in
x * x^-1 - 1 on (-1, 1), it holds only off that pole, where `evaluate`
raises (ROADMAP.md item 2)."""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Optional, Sequence, Union

from .expr import (
    DomainError, Expr, Record, evaluate, floor_root, free_vars, nan_max,
)
from .geometry import Chart, SingularForm, ZeroVerdictMap

DEFAULT_POINTS_PER_AXIS = 17
MAX_GRID_POINTS = 20000
REFINEMENT_BASE = 256  # evenly spaced points under a geometric refinement
REFINEMENT_CLOSEST = 1e-6  # its refined points stop this close to the locus


# verdict kinds from weakest to strongest
_KINDS = ("refuted", "numerically-verified", "proven")


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
    """Position in _KINDS of a Certificate, or of the weakest slot of a
    ZeroVerdictMap (an empty map is proven)."""
    if isinstance(verdict, ZeroVerdictMap):
        return min(map(_rank, verdict.verdicts.values()), default=2)
    return _KINDS.index(verdict.kind)


def all_of(detail: str, /, **parts) -> Certificate:
    """Passes iff every part passes; its kind is the weakest part's.  A
    refuted result names its first refuted part and carries its witness."""
    kind = _KINDS[min(map(_rank, parts.values()), default=2)]
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


class Grid:
    """A tensor grid kept as its axes, ((name, values), ...): its points are
    the product of the axes, first axis slowest."""

    def __init__(self, axes):
        self.axes = tuple((name, tuple(values)) for name, values in axes)
        self.names = tuple(name for name, _ in self.axes)

    def __len__(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    def rows(self):
        """The points as tuples of values in the order of names."""
        return itertools.product(*(values for _, values in self.axes))

    def __iter__(self):
        """The points as {name: value} dicts."""
        return (dict(zip(self.names, row)) for row in self.rows())


def chart_grid(chart_: Chart, per_axis: int = DEFAULT_POINTS_PER_AXIS) -> Grid:
    """Tensor grid over the chart, always including the x = 0 slice.

    per_axis shrinks to the largest count, but not below 2, whose n-th
    power keeps an n-D grid within MAX_GRID_POINTS (before any x = 0
    point is added).
    """
    if per_axis < 1:
        raise ValueError(
            f"grid needs at least one point per axis, got {per_axis}")
    for name, (lo, hi) in zip(chart_.names, chart_.ranges):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"grid needs a finite range for '{name}', "
                             f"got ({lo}, {hi})")
    count, n = per_axis, chart_.dim
    if n:
        count = min(count, max(2, floor_root(MAX_GRID_POINTS, n)))
    return Grid((name, axis_points(lo, hi, count,
                                   (0.0,) if name == chart_.x else ()))
                for name, (lo, hi) in zip(chart_.names, chart_.ranges))


def _dict_rows(points: list, names: tuple):
    """The rows of dict points in the order names; a point that lacks a
    name gives (), which the kernel cannot unpack, so the tree walk settles
    it."""
    for pt in points:
        try:
            yield tuple([pt[name] for name in names])
        except KeyError:
            yield ()


def certify_positive(margin: Union[Expr, Sequence[Expr]], points, tol: float,
                     detail: str = "") -> Certificate:
    """margin > tol on every grid point; min_margin is min margin - tol.

    The margin is an expression, read with its sign, or a list of
    expressions, read as max |e| (0.0 for an empty list).  points is a
    Grid, or point dicts, read as rows in the key order of the first.  The
    kernel of floatcode.compile_margin streams the rows in order; a point it
    cannot settle is settled by the tree walk, and the kernel resumes after
    it.  A point where the margin is undefined (DomainError) refutes, with
    that point as the witness.  No points certify nothing, so an empty set
    refutes."""
    grid = isinstance(points, Grid)
    if not grid:
        points = list(points)
    if not len(points):
        return refuted({}, detail=f"{detail}: no grid points")
    magnitude = not isinstance(margin, Expr)
    exprs = list(margin) if magnitude else [margin]
    if grid:
        # scan only the axes the margin reads; the first grid point with a
        # given value on them has every other axis at its first value
        read = frozenset().union(*map(free_vars, exprs))
        first = {name: values[0] for name, values in points.axes}
        sub = Grid(axis for axis in points.axes if axis[0] in read)
        names, rows = sub.names, sub.rows()
    else:
        names = tuple(points[0])
        rows = _dict_rows(points, names)
    from .floatcode import compile_margin
    kernel = compile_margin(exprs, magnitude, names)
    i, row, least = kernel(rows, 0, math.inf, tol)
    while row is not None:
        # the one place a grid point becomes a dict; a dict is walked as given
        pt = first | dict(zip(names, row)) if grid else points[i]
        try:
            values = [float(evaluate(e, pt)) for e in exprs]
        except DomainError as e:
            return refuted(pt, detail=f"{detail}: undefined, {e}")
        v = nan_max(map(abs, values), default=0.0) if magnitude else values[0]
        if not v > tol:  # NaN fails too
            return refuted(pt, v - tol, detail=detail)
        i, row, least = kernel(rows, i + 1, min(least, v), tol)
    return verified(len(points) if grid else i, tol, least - tol,
                    detail=detail)


def certify_nonvanishing(form: SingularForm, grid, tol: float,
                         detail: str = "") -> Certificate:
    """max |coefficient| of form stays above tol on every grid point (by
    default the chart grid of the form's chart)."""
    if grid is None:
        grid = chart_grid(form.chart)
    return certify_positive(list(form.pole_sums().values()), grid, tol,
                            detail=detail)


def geometric_refinement(locus: float, lo: float, hi: float):
    """Points on (lo, hi) accumulating geometrically toward `locus`, down to
    REFINEMENT_CLOSEST from it, plus REFINEMENT_BASE evenly spaced ones."""
    pts = []
    span = max(abs(hi - locus), abs(locus - lo))
    d = span
    while d > REFINEMENT_CLOSEST:
        for s in (-1.0, 1.0):
            v = locus + s * d
            if lo < v < hi:
                pts.append(v)
        d *= 0.5
    for i in range(REFINEMENT_BASE):
        t = (i + 0.5) / REFINEMENT_BASE
        pts.append(lo + t * (hi - lo))
    return sorted(set(pts))
