"""Registry of worked examples: each record bundles charts, forms, and the
properties its verification run is expected to reproduce.  run_example
reports each check as the Certificate it returned, parts and all.

This module names the records and holds the contact data `glue` shares
with them; the builders and the checks live in `examples`, which is
imported only to build or run a record."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .certificates import DEFAULT_POINTS_PER_AXIS
from .expr import (
    Const, Expr, ONE, Record, add, canon, mul, powx, sin, cos, sqrt, var,
)
from .geometry import Chart, SingularForm, make_form, smooth_form
from .structures import ContactData, StructureError

TWO_PI = 2.0 * math.pi
# the record names, one per builder in examples.BUILDERS
EXAMPLES = ("b2-r-times-t3", "bk-torus", "euclidean-end", "folded-darboux",
            "s3xs1", "sc-darboux", "sc-poisson-darboux", "sc-sphere",
            "symplectization", "t2xs2", "torus-sc-folded")


class CatalogError(StructureError):
    pass


class ExampleRecord(Record, uncompared=("extras",)):
    name: str
    params: tuple  # sorted ((key, value), ...)
    flavor: str
    omega: Optional[SingularForm]
    expected: tuple  # of check names, see examples._run_check
    extras: dict  # named builder outputs the checks read


# ---------------------------------------------------------------------------
# chart helpers


def _circle_ranges(names):
    return tuple((0.0, TWO_PI) for _ in names)


def _sum_of_squares(names):
    return add(*[mul(var(n), var(n)) for n in names])


def _dependent_sqrt(names) -> Expr:
    """sqrt(1 - sum of squares of the listed coordinates)."""
    return sqrt(add(ONE, mul(Const(Fraction(-1)), _sum_of_squares(names))))


def _round_sphere_primitive(ch: Chart, pairs, dependent: str,
                            half: bool, exclude: tuple = ()) -> SingularForm:
    """sum over (a, b) pairs of (a db - b da) / (2 if half else 1), where the
    coordinate `dependent` is sqrt(1 - the rest) and its differential is
    expanded by the chain rule; `exclude` lists chart coordinates that are
    not sphere coordinates."""
    free = [n for n in ch.names if n != dependent and n not in exclude]
    dep = _dependent_sqrt(free)
    scalar = Const(Fraction(1, 2)) if half else ONE
    terms = []

    def d_of(name):
        # differential of a coordinate as {basis name: coefficient}
        if name != dependent:
            return {name: ONE}
        return {n: canon(mul(Const(Fraction(-1)), var(n), powx(dep, -1)))
                for n in free}

    for a, b in pairs:
        aval = dep if a == dependent else var(a)
        bval = dep if b == dependent else var(b)
        for nm, c in d_of(b).items():
            terms.append((0, mul(scalar, aval, c), (nm,)))
        for nm, c in d_of(a).items():
            terms.append((0, mul(Const(Fraction(-1)), scalar, bval, c), (nm,)))
    return make_form(ch, 1, terms)


# ---------------------------------------------------------------------------
# contact data used by several records


def torus_contact() -> ContactData:
    """alpha = cos(theta) dq1 + sin(theta) dq2 on T^3, Reeb
    cos(theta) d/dq1 + sin(theta) d/dq2."""
    names = ("theta", "q1", "q2")
    zch = Chart(names, _circle_ranges(names), None, frozenset(names))
    th = var("theta")
    alpha = smooth_form(zch, {("q1",): cos(th), ("q2",): sin(th)})
    reeb = make_form(zch, 1, [(0, cos(th), ("q1",)), (0, sin(th), ("q2",))],
                     "vector")
    return ContactData(zch, alpha, reeb)


def s2xs1_contact() -> ContactData:
    """alpha = u dv - v du + z dtheta on S^2 x S^1 with z = sqrt(1-u^2-v^2);
    Reeb = (-v d/du + u d/dv + 2z d/dtheta) / (1 + z^2)."""
    names = ("u", "v", "theta")
    zch = Chart(names, ((-0.5, 0.5), (-0.5, 0.5), (0.0, TWO_PI)), None,
                frozenset({"theta"}))
    zdep = _dependent_sqrt(["u", "v"])
    alpha = _round_sphere_primitive(zch, [("u", "v")], dependent="",
                                    half=False) \
        + smooth_form(zch, {("theta",): zdep})
    denom = powx(add(ONE, mul(zdep, zdep)), -1)
    reeb = make_form(zch, 1, [
        (0, mul(Const(Fraction(-1)), var("v"), denom), ("u",)),
        (0, mul(var("u"), denom), ("v",)),
        (0, mul(Const(Fraction(2)), zdep, denom), ("theta",)),
    ], "vector")
    return ContactData(zch, alpha, reeb)


# ---------------------------------------------------------------------------
# registry


def list_examples():
    return list(EXAMPLES)


def build_example(name: str, **params) -> ExampleRecord:
    if name not in EXAMPLES:
        raise CatalogError(f"unknown example '{name}'")
    from .examples import BUILDERS
    builder = BUILDERS[name]
    code = builder.__code__
    takes = code.co_varnames[:code.co_argcount]
    for key in params:
        if key not in takes:
            raise CatalogError(
                f"example '{name}' has no parameter '{key}'; it takes "
                f"{', '.join(takes) if takes else 'none'}")
    return builder(**params)


# ---------------------------------------------------------------------------
# checks


def run_example(rec: ExampleRecord,
                per_axis: int = DEFAULT_POINTS_PER_AXIS) -> dict:
    from .examples import _run_check
    checks = {name: _run_check(rec, name, per_axis) for name in rec.expected}
    return {
        "name": rec.name,
        "params": {k: v for k, v in rec.params},
        "flavor": rec.flavor,
        "checks": checks,
        "passed": all(c.passed for c in checks.values()),
    }
