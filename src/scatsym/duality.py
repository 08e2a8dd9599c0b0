"""The duality pass behind structures.dual_roundtrip_check and
structures.dual_jacobi_check: the matrix W of a form, and optionally its
partials, sampled at 100 points through one compiled function and
inverted once per point, and the Schouten kernel the Jacobi check runs
on it.  Only requests that check a dual import this module."""

from __future__ import annotations

import functools
from typing import Optional

from .expr import DomainError, Record, ZERO, differentiate, sample_points
from .floatcode import compile_floats
from .geometry import SingularForm, off_pole_domain
from .linalg import float_inverse
from .structures import _full_matrix


class _DualPass(Record):
    """One sampling of the matrix W of a form for the dual checks: samples
    holds (point, W, dw, P = W^{-1}) at each sample point up to the first
    one where W, or a partial with partials set, is undefined or W is
    singular; stop is that point and its refutation detail.  dw holds the
    values of the structurally nonzero entries slots ((m, i, j), ...) of
    the partials d_m W, and w_cols[j] the rows i with W[i][j] not ZERO."""

    form: SingularForm
    partials: bool
    slots: tuple
    w_cols: tuple
    samples: list
    stop: Optional[tuple] = None  # (point, detail)
    undefined: bool = False  # stop is a DomainError


_last_pass: Optional[_DualPass] = None


def _dual_samples(omega: SingularForm, partials: bool) -> _DualPass:
    """The duality pass of omega on 100 points of its chart box, the x
    axis kept off the pole: W and, if partials, the nonzero entries of
    each d_m W are compiled once into one function (compile_floats), and
    each sample point is evaluated and each W inverted once.  The last
    pass is kept, so a check on an equal form samples nothing.  A pass
    with partials serves a check without them unless a DomainError
    stopped it: a partial can be undefined where W is defined."""
    global _last_pass
    last = _last_pass
    if last is not None and last.form == omega and (
            last.partials == partials or last.partials and not last.undefined):
        return last
    ch, m = omega.chart, _full_matrix(omega)
    d = ch.dim
    exprs, slots = [e for row in m for e in row], []
    if partials:
        for k, name in enumerate(ch.names):
            for i, row in enumerate(m):
                for j, e in enumerate(row):
                    de = differentiate(e, name)
                    if de != ZERO:
                        exprs.append(de)
                        slots.append((k, i, j))
    values_at = compile_floats(exprs)
    samples, stop, undefined = [], None, False
    for pt in sample_points(ch.names, off_pole_domain(ch), 100):
        try:
            flat = values_at(pt)
        except DomainError as e:
            stop, undefined = (pt, f"coefficient matrix undefined, {e}"), True
            break
        w = [flat[i:i + d] for i in range(0, d * d, d)]
        p = float_inverse(w)
        if p is None:
            stop = (pt, "coefficient matrix is singular")
            break
        samples.append((pt, w, flat[d * d:], p))
    w_cols = tuple(tuple(i for i in range(d) if m[i][j] != ZERO)
                   for j in range(d))
    _last_pass = _DualPass(omega, partials, tuple(slots), w_cols, samples, stop,
                           undefined)
    return _last_pass


NOT_FINITE = "P = W^{-1} has a non-finite entry"


def _finite(p) -> bool:
    """Every entry of the float matrix p is finite (inf - inf is NaN)."""
    return all(v - v == 0.0 for row in p for v in row)


# A term dropped from a product below is a finite entry times a ZERO entry,
# i.e. +-0.0.  Each dot product starts at +0.0, as sum() does, and a sum
# that starts at +0.0 is never -0.0, so adding +-0.0 leaves it unchanged:
# dropping those terms is exact.  A dropped term could be NaN where P has a
# non-finite entry, so both checks refute there first (NOT_FINITE).


def _dot(terms: list) -> str:
    """Code for sum(terms) starting at +0.0, rounded as sum() rounds."""
    if len(terms) == 1:
        return f"(0.0 + {terms[0]})"
    return f"sum(({', '.join(terms)}), 0.0)"


@functools.lru_cache(maxsize=None)
def _jacobi_kernel(d: int, slots: tuple):
    """kernel(p, dw, tol): the coordinate Schouten bracket [pi, pi] at one
    sample point, with p = W^{-1} finite, dw the values of d_m W at slots,
    and d_m P = -(P d_m W) P, as straight-line code generated once per (d,
    slots).  Each component (i, j, l), i < j < l, is summed over m in
    order; the kernel returns (|component|, (i, j, l)) for the first one
    not within tol, else (the largest, None).  It reads only the slots,
    the nonzero columns of P d_m W and the m with d_m W not identically
    ZERO, which is exact where p is finite."""
    at = {s: f"x{n}" for n, s in enumerate(slots)}
    triples = [(i, j, l) for i in range(d) for j in range(i + 1, d)
               for l in range(j + 1, d)]
    pairs = sorted({pair for i, j, l in triples
                    for pair in ((j, l), (l, i), (i, j))})
    lines = ["def kernel(p, dw, tol):", "    " + ", ".join(
        "(" + ", ".join(f"p{i}_{j}" for j in range(d)) + ",)"
        for i in range(d)) + ", = p"]
    if slots:
        lines.append(f"    {', '.join(at.values())}, = dw")
    ms = sorted({m for m, _, _ in slots})
    for m in ms:
        cols = sorted({k for n, _, k in slots if n == m})
        for i in sorted({i for i, _ in pairs}):
            for k in cols:
                terms = [f"p{i}_{j} * {at[m, j, k]}"
                         for j in range(d) if (m, j, k) in at]
                lines.append(f"    t{i}_{k} = {_dot(terms)}")
        for i, j in pairs:
            lines.append(f"    q{m}_{i}_{j} = "
                         f"-{_dot([f't{i}_{k} * p{k}_{j}' for k in cols])}")
    lines.append("    w = 0.0")
    for i, j, l in triples:
        comp = " + ".join(["0.0"] + [
            f"(p{m}_{i} * q{m}_{j}_{l} + p{m}_{j} * q{m}_{l}_{i}"
            f" + p{m}_{l} * q{m}_{i}_{j})" for m in ms])
        lines += [f"    c = abs({comp})",
                  f"    if not c <= tol: return c, ({i}, {j}, {l})",
                  "    if c > w: w = c"]
    lines.append("    return w, None")
    ns = {}
    exec(compile("\n".join(lines), "<jacobi>", "exec"), ns)
    return ns["kernel"]
