"""Small coefficient matrices: symbolic determinant, adjugate and inverse,
and a float inverse (Gauss-Jordan) and product for their values at a point."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .expr import Const, Expr, ExprError, ZERO, add, canon, mul, powx


def _laplace(m: List[List[Expr]]) -> Expr:
    """Raw (uncanonicalized) Laplace expansion of the determinant."""
    n = len(m)
    if n == 0:
        return Const(Fraction(1))
    if n == 1:
        return m[0][0]
    terms = []
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        sign = Const(Fraction((-1) ** j))
        terms.append(mul(sign, m[0][j], _laplace(minor)))
    return add(*terms)


def sym_det(m: List[List[Expr]]) -> Expr:
    return canon(_laplace(m))


def sym_adjugate(m: List[List[Expr]]) -> List[List[Expr]]:
    n = len(m)
    adj = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:]
                     for r, row in enumerate(m) if r != i]
            sign = Const(Fraction((-1) ** (i + j)))
            adj[j][i] = canon(mul(sign, _laplace(minor)))
    return adj


def sym_inverse(m: List[List[Expr]]) -> List[List[Expr]]:
    """Adjugate inverse; entries are adj / det.  Raises on a provably
    singular matrix."""
    n = len(m)
    if n > 8:
        raise ExprError("symbolic inversion capped at 8x8")
    det = sym_det(m)
    from .expr import is_provably_zero
    if is_provably_zero(det):
        raise ExprError("matrix is singular")
    adj = sym_adjugate(m)
    inv_det = powx(det, -1)
    return [[canon(mul(adj[i][j], inv_det)) for j in range(n)] for i in range(n)]


def float_inverse(m: List[List[float]]) -> Optional[List[List[float]]]:
    """Gauss-Jordan inverse with partial pivoting; None if m is singular."""
    n = len(m)
    a = [list(row) + [float(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        r = max(range(c, n), key=lambda i: abs(a[i][c]))
        if a[r][c] == 0.0:
            return None
        a[c], a[r] = a[r], a[c]
        piv = a[c][c]
        a[c] = [v / piv for v in a[c]]
        for i in range(n):
            f = a[i][c]
            if i != c and f != 0.0:
                a[i] = [v - f * w for v, w in zip(a[i], a[c])]
    return [row[n:] for row in a]


def float_matmul(a: List[List[float]], b: List[List[float]]) -> List[List[float]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def mat_vec(m: List[List[Expr]], v: List[Expr]) -> List[Expr]:
    return [canon(add(*[mul(m[i][j], v[j]) for j in range(len(v))]))
            for i in range(len(m))]
