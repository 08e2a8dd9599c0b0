"""Symbolic scalar expressions with exact rational constants.

Expression trees are immutable values: variables, rationals, sums,
products, rational powers, exp/sin/cos, and a dedicated piecewise node
for bump functions built from exp(-1/(r-a))-style branches.  All
operations (differentiation, evaluation, zero testing) are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

DEFAULT_SEED = 0x5CA77E12

Rational = Union[Fraction, int]
Number = Union[Fraction, int, float]


class ExprError(Exception):
    pass


class UnknownVariableError(ExprError):
    pass


class DomainError(ExprError):
    """Evaluation hit a pole / invalid operand; carries the offending subtree."""

    def __init__(self, message: str, subtree: "Expr"):
        super().__init__(f"{message}: {ser(subtree)}")
        self.subtree = subtree


def _frac(q: Number) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    if isinstance(q, float):
        if not q.is_integer():
            raise ExprError(f"non-exact constant {q}; pass a Fraction")
        return Fraction(int(q))
    raise ExprError(f"not a rational constant: {q!r}")


class Expr:
    """Base class; subclasses are frozen dataclasses."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return add(self, mul(Const(Fraction(-1)), _as_expr(other)))

    def __rsub__(self, other):
        return add(_as_expr(other), mul(Const(Fraction(-1)), self))

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return mul(self, powx(_as_expr(other), -1))

    def __rtruediv__(self, other):
        return mul(_as_expr(other), powx(self, -1))

    def __pow__(self, q):
        return powx(self, q)

    def __neg__(self):
        return mul(Const(Fraction(-1)), self)


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Const(Fraction(v))
    raise ExprError(f"cannot coerce {v!r} to an expression")


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", _frac(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Sum(Expr):
    args: tuple


@dataclass(frozen=True)
class Prod(Expr):
    args: tuple


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "exponent", _frac(self.exponent))


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Piece:
    """One branch of a PiecewiseDecay; lo/hi are rationals or None for ±inf."""

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    expr: Expr

    def __post_init__(self):
        if self.lo is not None:
            object.__setattr__(self, "lo", _frac(self.lo))
        if self.hi is not None:
            object.__setattr__(self, "hi", _frac(self.hi))


@dataclass(frozen=True)
class PiecewiseDecay(Expr):
    """Piecewise function of `arg`, branches written in bound variable `var`.

    Pieces partition the line; non-constant branches are exp/rational
    compositions that are smoothly flat at the breakpoints, so at a
    breakpoint evaluation returns the adjacent constant branch's value.
    """

    arg: Expr
    var: str
    pieces: tuple  # of Piece

    def __post_init__(self):
        lo = None
        for p in self.pieces:
            if p.lo != lo:
                raise ExprError("PiecewiseDecay pieces must partition the line")
            lo = p.hi
        if self.pieces[0].lo is not None or self.pieces[-1].hi is not None:
            raise ExprError("PiecewiseDecay pieces must cover (-inf, inf)")


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
HALF = Const(Fraction(1, 2))


# ---------------------------------------------------------------------------
# smart constructors


def add(*args) -> Expr:
    flat = []
    const = Fraction(0)
    for a in args:
        a = _as_expr(a)
        if isinstance(a, Sum):
            flat.extend(a.args)
        elif isinstance(a, Const):
            const += a.value
        else:
            flat.append(a)
    if const:
        flat.append(Const(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*args) -> Expr:
    flat = []
    const = Fraction(1)
    for a in args:
        a = _as_expr(a)
        if isinstance(a, Prod):
            flat.extend(a.args)
        elif isinstance(a, Const):
            const *= a.value
        else:
            flat.append(a)
    if const == 0:
        return ZERO
    if const != 1:
        flat.insert(0, Const(const))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def powx(base, q) -> Expr:
    base = _as_expr(base)
    q = _frac(q)
    if q == 0:
        return ONE
    if q == 1:
        return base
    if isinstance(base, Const):
        if q.denominator == 1:
            if base.value == 0 and q < 0:
                raise ExprError("0 raised to a negative power")
            return Const(base.value ** q.numerator)
        exact = _exact_root(base.value, q)
        if exact is not None:
            return Const(exact)
    if isinstance(base, Pow):
        return powx(base.base, base.exponent * q)
    return Pow(base, q)


def _exact_root(c: Fraction, q: Fraction) -> Optional[Fraction]:
    """c**q as an exact rational, or None."""
    if c < 0:
        return None
    if c == 0:
        return Fraction(0) if q > 0 else None
    num = round(c.numerator ** float(q))
    den = round(c.denominator ** float(q))
    cand = Fraction(num, den) if den else None
    if cand is not None and cand > 0 and cand ** (1 / q) == c:
        return cand
    return None


def exp(a) -> Expr:
    a = _as_expr(a)
    if isinstance(a, Const) and a.value == 0:
        return ONE
    return Exp(a)


def sin(a) -> Expr:
    a = _as_expr(a)
    if isinstance(a, Const) and a.value == 0:
        return ZERO
    return Sin(a)


def cos(a) -> Expr:
    a = _as_expr(a)
    if isinstance(a, Const) and a.value == 0:
        return ONE
    return Cos(a)


def sqrt(a) -> Expr:
    return powx(a, Fraction(1, 2))


def var(name: str) -> Var:
    return Var(name)


def const(q) -> Const:
    return Const(_frac(q))


# ---------------------------------------------------------------------------
# free variables


@functools.lru_cache(maxsize=None)
def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset([e.name])
    if isinstance(e, (Sum, Prod)):
        out = frozenset()
        for a in e.args:
            out |= free_vars(a)
        return out
    if isinstance(e, Pow):
        return free_vars(e.base)
    if isinstance(e, (Exp, Sin, Cos)):
        return free_vars(e.arg)
    if isinstance(e, PiecewiseDecay):
        return free_vars(e.arg)
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr, v: str) -> Expr:
    if not isinstance(v, str):
        raise UnknownVariableError(f"variable name expected, got {v!r}")
    return _diff(e, v)


def _diff(e: Expr, v: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Sum):
        return add(*[_diff(a, v) for a in e.args])
    if isinstance(e, Prod):
        terms = []
        for i, a in enumerate(e.args):
            da = _diff(a, v)
            if da is ZERO or (isinstance(da, Const) and da.value == 0):
                continue
            rest = list(e.args)
            rest[i] = da
            terms.append(mul(*rest))
        return add(*terms)
    if isinstance(e, Pow):
        return mul(Const(e.exponent), powx(e.base, e.exponent - 1), _diff(e.base, v))
    if isinstance(e, Exp):
        return mul(e, _diff(e.arg, v))
    if isinstance(e, Sin):
        return mul(cos(e.arg), _diff(e.arg, v))
    if isinstance(e, Cos):
        return mul(Const(Fraction(-1)), sin(e.arg), _diff(e.arg, v))
    if isinstance(e, PiecewiseDecay):
        inner = PiecewiseDecay(
            e.arg, e.var, tuple(Piece(p.lo, p.hi, _diff(p.expr, e.var)) for p in e.pieces)
        )
        return mul(inner, _diff(e.arg, v))
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, point: Mapping[str, Number]) -> Number:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return point[e.name]
        except KeyError:
            raise UnknownVariableError(f"unbound variable '{e.name}'") from None
    if isinstance(e, Sum):
        return _num_sum(evaluate(a, point) for a in e.args)
    if isinstance(e, Prod):
        out = Fraction(1)
        for a in e.args:
            av = evaluate(a, point)
            if av == 0:
                return av * 0  # keep type (Fraction 0 or float 0.0)
            out = out * av
        return out
    if isinstance(e, Pow):
        b = evaluate(e.base, point)
        q = e.exponent
        if b == 0:
            if q < 0:
                raise DomainError("division by zero", e)
            return Fraction(0) if isinstance(b, Fraction) else 0.0
        if q.denominator == 1:
            if isinstance(b, (Fraction, int)):
                return Fraction(b) ** q.numerator
            return b ** q.numerator
        if b < 0:
            raise DomainError("fractional power of a negative value", e)
        return float(b) ** float(q)
    if isinstance(e, Exp):
        a = float(evaluate(e.arg, point))
        if a > 700:
            raise DomainError("exp overflow", e)
        return math.exp(a)
    if isinstance(e, Sin):
        return math.sin(float(evaluate(e.arg, point)))
    if isinstance(e, Cos):
        return math.cos(float(evaluate(e.arg, point)))
    if isinstance(e, PiecewiseDecay):
        t = evaluate(e.arg, point)
        return _eval_piecewise(e, t)
    raise ExprError(f"unknown node {e!r}")


def evaluate_dag(e: Expr, point: Mapping[str, Number], cache: dict) -> Number:
    """evaluate with per-point memoization on node identity.

    Expressions with heavy structural sharing (the entries of a coefficient
    matrix and their partial derivatives) evaluate in time proportional to
    the number of distinct nodes; the cache must not be reused across
    points.  The cache also keeps every node it has evaluated alive, under
    the key None, so that a freed node's id cannot be reused while the
    cache lives.
    """
    key = id(e)
    if key in cache:
        return cache[key]
    if isinstance(e, Const):
        out = e.value
    elif isinstance(e, Var):
        try:
            out = point[e.name]
        except KeyError:
            raise UnknownVariableError(f"unbound variable '{e.name}'") from None
    elif isinstance(e, Sum):
        out = _num_sum(evaluate_dag(a, point, cache) for a in e.args)
    elif isinstance(e, Prod):
        out = Fraction(1)
        for a in e.args:
            av = evaluate_dag(a, point, cache)
            if av == 0:
                out = av * 0
                break
            out = out * av
    elif isinstance(e, Pow):
        b = evaluate_dag(e.base, point, cache)
        q = e.exponent
        if b == 0:
            if q < 0:
                raise DomainError("division by zero", e)
            out = Fraction(0) if isinstance(b, Fraction) else 0.0
        elif q.denominator == 1:
            if isinstance(b, (Fraction, int)):
                out = Fraction(b) ** q.numerator
            else:
                out = b ** q.numerator
        elif b < 0:
            raise DomainError("fractional power of a negative value", e)
        else:
            out = float(b) ** float(q)
    elif isinstance(e, Exp):
        a = float(evaluate_dag(e.arg, point, cache))
        if a > 700:
            raise DomainError("exp overflow", e)
        out = math.exp(a)
    elif isinstance(e, Sin):
        out = math.sin(float(evaluate_dag(e.arg, point, cache)))
    elif isinstance(e, Cos):
        out = math.cos(float(evaluate_dag(e.arg, point, cache)))
    elif isinstance(e, PiecewiseDecay):
        out = _eval_piecewise(e, evaluate_dag(e.arg, point, cache))
    else:
        raise ExprError(f"unknown node {e!r}")
    cache[key] = out
    alive = cache.get(None)
    if alive is None:
        alive = cache[None] = []
    alive.append(e)
    return out


def _num_sum(vals: Iterable[Number]) -> Number:
    out = Fraction(0)
    for v in vals:
        out = out + v
    return out


def _eval_piecewise(e: PiecewiseDecay, t: Number) -> Number:
    pieces = e.pieces
    for i, p in enumerate(pieces):
        lo_ok = p.lo is None or t > p.lo
        hi_ok = p.hi is None or t < p.hi
        if lo_ok and hi_ok:
            return evaluate(p.expr, {e.var: t})
        if p.hi is not None and t == p.hi:
            # breakpoint: smooth flatness means the adjacent constant branch
            # (on whichever side) gives the two-sided value
            nxt = pieces[i + 1]
            for cand in (p, nxt):
                if isinstance(cand.expr, Const):
                    return cand.expr.value
            raise DomainError("piecewise breakpoint with no constant branch", e)
    raise DomainError("piecewise evaluation fell through", e)


# ---------------------------------------------------------------------------
# substitution


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Sum):
        return add(*[substitute(a, mapping) for a in e.args])
    if isinstance(e, Prod):
        return mul(*[substitute(a, mapping) for a in e.args])
    if isinstance(e, Pow):
        return powx(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Exp):
        return exp(substitute(e.arg, mapping))
    if isinstance(e, Sin):
        return sin(substitute(e.arg, mapping))
    if isinstance(e, Cos):
        return cos(substitute(e.arg, mapping))
    if isinstance(e, PiecewiseDecay):
        return PiecewiseDecay(substitute(e.arg, mapping), e.var, e.pieces)
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# canonical polynomial normalization
#
# A normalized expression is a sum of monomials: rational coefficient times a
# product of atoms raised to rational powers.  Atoms are variables and
# opaque nodes (exp, sin, cos, piecewise, non-expandable powers) with
# canonicalized arguments.  Equal canonical forms imply equal functions; the
# converse fails (e.g. sin^2 + cos^2 - 1), which is what sampling is for.

_Poly = dict  # monomial tuple -> Fraction


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    d = dict(m1)
    for atom, q in m2:
        q2 = d.get(atom, Fraction(0)) + q
        if q2:
            d[atom] = q2
        elif atom in d:
            del d[atom]
    return tuple(sorted(d.items(), key=lambda kv: _sort_key(kv[0])))


def _poly_mul(p1: _Poly, p2: _Poly) -> _Poly:
    out: _Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_mul(m1, m2)
            c = out.get(m, Fraction(0)) + c1 * c2
            if c:
                out[m] = c
            elif m in out:
                del out[m]
    return out


def _poly_add(p1: _Poly, p2: _Poly) -> _Poly:
    out = dict(p1)
    for m, c in p2.items():
        c2 = out.get(m, Fraction(0)) + c
        if c2:
            out[m] = c2
        elif m in out:
            del out[m]
    return out


@functools.lru_cache(maxsize=None)
def _sort_key(e: Expr) -> str:
    return ser(e)


def _atom(e: Expr, q: Fraction = Fraction(1)) -> _Poly:
    return {((e, q),): Fraction(1)}


@functools.lru_cache(maxsize=None)
def poly(e: Expr) -> tuple:
    """Canonical polynomial form as a sorted tuple of (monomial, coeff)."""
    p = _poly(e)
    return tuple(sorted(p.items(), key=lambda kv: tuple(map(_sort_key, (a for a, _ in kv[0])))))


def _poly(e: Expr) -> _Poly:
    if isinstance(e, Const):
        return {(): e.value} if e.value else {}
    if isinstance(e, Var):
        return _atom(e)
    if isinstance(e, Sum):
        out: _Poly = {}
        for a in e.args:
            out = _poly_add(out, _poly(a))
        return out
    if isinstance(e, Prod):
        out = {(): Fraction(1)}
        for a in e.args:
            out = _poly_mul(out, _poly(a))
        return out
    if isinstance(e, Pow):
        return _poly_pow(e.base, e.exponent)
    if isinstance(e, Exp):
        a = canon(e.arg)
        if isinstance(a, Const) and a.value == 0:
            return {(): Fraction(1)}
        return _atom(Exp(a))
    if isinstance(e, Sin):
        a = canon(e.arg)
        if isinstance(a, Const) and a.value == 0:
            return {}
        return _atom(Sin(a))
    if isinstance(e, Cos):
        a = canon(e.arg)
        if isinstance(a, Const) and a.value == 0:
            return {(): Fraction(1)}
        return _atom(Cos(a))
    if isinstance(e, PiecewiseDecay):
        return _atom(PiecewiseDecay(canon(e.arg), e.var, e.pieces))
    raise ExprError(f"unknown node {e!r}")


def _poly_pow(base: Expr, q: Fraction) -> _Poly:
    pb = _poly(base)
    if not pb:
        if q <= 0:
            raise ExprError("0 raised to a nonpositive power")
        return {}
    if q == 0:
        return {(): Fraction(1)}
    if q.denominator == 1 and q > 0:
        out = {(): Fraction(1)}
        k = q.numerator
        acc = pb
        while k:
            if k & 1:
                out = _poly_mul(out, acc)
            k >>= 1
            if k:
                acc = _poly_mul(acc, acc)
        return out
    if len(pb) == 1:
        (mono, c), = pb.items()
        scaled = tuple(
            sorted(((a, e0 * q) for a, e0 in mono), key=lambda kv: _sort_key(kv[0]))
        )
        if q.denominator == 1:
            coeff = c ** q.numerator
            return {scaled: coeff}
        if c == 1:
            return {scaled: Fraction(1)}
        root = _exact_root(c, q)
        if root is not None:
            return {scaled: root}
        cpart = _atom(Const(c), q)
        return _poly_mul({scaled: Fraction(1)}, cpart)
    # opaque power of a multi-term base
    return _atom(_rebuild(dict(pb)), q)


def _rebuild(p: _Poly) -> Expr:
    terms = []
    items = sorted(p.items(), key=lambda kv: tuple(map(_sort_key, (a for a, _ in kv[0]))))
    for mono, c in items:
        factors = [Const(c)] if (c != 1 or not mono) else []
        for atom, q in mono:
            factors.append(atom if q == 1 else Pow(atom, q))
        terms.append(mul(*factors) if factors else ONE)
    return add(*terms)


@functools.lru_cache(maxsize=None)
def canon(e: Expr) -> Expr:
    """Canonical rebuilt form; equal canonical forms are structurally equal."""
    return _rebuild(dict(poly(e)))


def is_provably_zero(e: Expr) -> bool:
    return not poly(e)


def split_x_power(e: Expr, x: str) -> dict:
    """Split into {j: coeff} with e = sum_j x**j * coeff, x-free coeffs.

    Integer powers of the bare variable `x` are extracted per monomial;
    occurrences of x inside opaque atoms stay in place (mapped to j=0).
    """
    xv = Var(x)
    out: dict = {}
    for mono, c in poly(e):
        j = Fraction(0)
        rest = []
        for atom, q in mono:
            if atom == xv and q.denominator == 1:
                j = q
            else:
                rest.append((atom, q))
        key = int(j)
        p = out.setdefault(key, {})
        mono2 = tuple(rest)
        p[mono2] = p.get(mono2, Fraction(0)) + c
    return {j: _rebuild(p) for j, p in out.items() if p}


# ---------------------------------------------------------------------------
# zero testing


@dataclass(frozen=True)
class ZeroVerdict:
    kind: str  # "proven-zero" | "numerically-zero" | "nonzero"
    max_abs: float = 0.0
    tolerance: float = 0.0
    witness: Optional[tuple] = None  # ((name, value), ...) for nonzero
    value: Optional[float] = None

    @property
    def is_zero(self) -> bool:
        return self.kind in ("proven-zero", "numerically-zero")


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _halton(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def sample_points(names, domain, n_samples, seed=DEFAULT_SEED):
    """Deterministic low-discrepancy points in the open box `domain`."""
    names = list(names)
    if len(names) > len(_PRIMES):
        raise ExprError("too many dimensions for the sampler")
    offset = (seed % 7919) + 1
    pts = []
    for i in range(n_samples):
        point = {}
        for d, name in enumerate(names):
            lo, hi = domain[name]
            u = _halton(i + offset, _PRIMES[d])
            u = 1e-9 + (1 - 2e-9) * u
            point[name] = float(lo) + u * (float(hi) - float(lo))
        pts.append(point)
    return pts


def is_zero(e: Expr, domain: Mapping[str, tuple], n_samples: int = 100,
            tol: float = 1e-12, seed: int = DEFAULT_SEED) -> ZeroVerdict:
    if n_samples < 1:
        raise ExprError("n_samples must be >= 1")
    for name, (lo, hi) in domain.items():
        if not float(lo) < float(hi):
            raise ExprError(f"empty domain for '{name}'")
    if is_provably_zero(e):
        return ZeroVerdict("proven-zero", tolerance=tol)
    names = sorted(free_vars(e))
    missing = [n for n in names if n not in domain]
    if missing:
        raise UnknownVariableError(f"domain does not bind {missing}")
    max_abs = 0.0
    for point in sample_points(names, domain, n_samples, seed):
        v = float(evaluate(e, point))
        if abs(v) > tol:
            witness = tuple(sorted(point.items()))
            return ZeroVerdict("nonzero", max_abs=abs(v), tolerance=tol,
                               witness=witness, value=v)
        max_abs = max(max_abs, abs(v))
    return ZeroVerdict("numerically-zero", max_abs=max_abs, tolerance=tol)


# ---------------------------------------------------------------------------
# S-expression serialization


def ser(e: Expr) -> str:
    if isinstance(e, Const):
        return _ser_frac(e.value)
    if isinstance(e, Var):
        return f"(var {e.name})"
    if isinstance(e, Sum):
        return "(add " + " ".join(ser(a) for a in e.args) + ")"
    if isinstance(e, Prod):
        return "(mul " + " ".join(ser(a) for a in e.args) + ")"
    if isinstance(e, Pow):
        return f"(pow {ser(e.base)} {_ser_frac(e.exponent)})"
    if isinstance(e, Exp):
        return f"(exp {ser(e.arg)})"
    if isinstance(e, Sin):
        return f"(sin {ser(e.arg)})"
    if isinstance(e, Cos):
        return f"(cos {ser(e.arg)})"
    if isinstance(e, PiecewiseDecay):
        parts = " ".join(
            f"(piece {_ser_bound(p.lo)} {_ser_bound(p.hi)} {ser(p.expr)})"
            for p in e.pieces
        )
        return f"(pwd {ser(e.arg)} {e.var} {parts})"
    raise ExprError(f"unknown node {e!r}")


def _ser_frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ser_bound(b: Optional[Fraction]) -> str:
    return "none" if b is None else _ser_frac(b)


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse(text: str) -> Expr:
    tokens = _tokenize(text)
    e, rest = _parse(tokens)
    if rest:
        raise ExprError(f"trailing tokens: {rest[:5]}")
    return e


def _parse(tokens):
    if not tokens:
        raise ExprError("unexpected end of input")
    tok, rest = tokens[0], tokens[1:]
    if tok != "(":
        return _parse_scalar(tok), rest
    head, rest = rest[0], rest[1:]
    args = []
    while rest and rest[0] != ")":
        if head == "pwd" and len(args) == 1 and rest[0] != "(":
            args.append(rest[0])  # bound variable name
            rest = rest[1:]
            continue
        if head == "var" and rest[0] != "(":
            args.append(rest[0])
            rest = rest[1:]
            continue
        if head == "piece" and len(args) < 2 and rest[0] != "(":
            args.append(rest[0])
            rest = rest[1:]
            continue
        if head == "pow" and len(args) == 1 and rest[0] != "(":
            args.append(_frac_from_str(rest[0]))
            rest = rest[1:]
            continue
        a, rest = _parse(rest)
        args.append(a)
    if not rest:
        raise ExprError("missing closing paren")
    rest = rest[1:]
    return _build(head, args), rest


def _frac_from_str(s: str) -> Fraction:
    return Fraction(s)


def _parse_scalar(tok: str) -> Expr:
    try:
        return Const(Fraction(tok))
    except ValueError:
        return Var(tok)


def _build(head: str, args) -> Expr:
    if head == "var":
        return Var(args[0])
    if head == "add":
        return add(*args)
    if head == "mul":
        return mul(*args)
    if head == "sub":
        a, b = args
        return add(a, mul(Const(Fraction(-1)), b))
    if head == "div":
        a, b = args
        return mul(a, powx(b, -1))
    if head == "neg":
        return mul(Const(Fraction(-1)), args[0])
    if head == "pow":
        base, q = args
        if isinstance(q, Expr):
            if not isinstance(q, Const):
                raise ExprError("pow exponent must be rational")
            q = q.value
        return powx(base, q)
    if head == "exp":
        return exp(args[0])
    if head == "sin":
        return sin(args[0])
    if head == "cos":
        return cos(args[0])
    if head == "sqrt":
        return sqrt(args[0])
    if head == "piece":
        lo = None if args[0] == "none" else Fraction(args[0])
        hi = None if args[1] == "none" else Fraction(args[1])
        return Piece(lo, hi, args[2])
    if head == "pwd":
        arg, bound = args[0], args[1]
        return PiecewiseDecay(arg, bound, tuple(args[2:]))
    raise ExprError(f"unknown head '{head}'")
