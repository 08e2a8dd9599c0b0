"""Symbolic scalar expressions with exact rational constants.

Expression trees are immutable values: variables, rationals, sums,
products, rational powers, exp/sin/cos, and a dedicated piecewise node
for bump functions built from exp(-1/(r-a))-style branches.  All
operations (differentiation, evaluation, zero testing) are pure.
"""

from __future__ import annotations

import functools
import itertools
import math
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


class Record:
    """Immutable value with named fields, built without generated code.

    The fields are the names a subclass annotates, in order after its base
    record's fields; a class attribute of the same name is the default.
    Records take fields positionally or by keyword and run `__post_init__`
    when a class defines one; they compare equal when the type and the field
    tuple match, hash that tuple, print as `Name(field=value, ...)` and
    refuse assignment.  A field named in the class keyword `uncompared`
    stays out of == and the hash.  No code is generated, so defining a
    record costs no more than defining a plain class.
    """

    __slots__ = ()
    _fields = ()
    _compared = ()
    _defaults = {}

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._compared = cls._compared + tuple(
            name for name in own if name not in uncompared)
        cls._defaults = {**cls._defaults, **{
            name: cls.__dict__[name] for name in own if name in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                values[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument '{name}'")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments "
                            f"{sorted(kwargs)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        d = self.__dict__
        body = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")


class Expr(Record):
    """Base class of the expression nodes, which are Records.

    Each node class has an explicit __init__ and __eq__ (construction and
    comparison are hot), and hashes its field tuple once: nodes are hashed
    on every dict and lru_cache lookup, and the hash recurses through the
    whole subtree.  The memo lives in the instance dict as `_hash`, outside
    __eq__, repr and the pickled state.
    """

    __slots__ = ()

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash(self._key())
            return h

    def __getstate__(self):
        # the memoized hash is per process (str hashes are salted)
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Const(Fraction(v))
    raise ExprError(f"cannot coerce {v!r} to an expression")


class Const(Expr):
    value: Fraction

    def __init__(self, value):
        self.__dict__["value"] = _frac(value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def _key(self) -> tuple:
        return (self.value,)

    __hash__ = Expr.__hash__


class Var(Expr):
    name: str

    def __init__(self, name):
        self.__dict__["name"] = name

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def _key(self) -> tuple:
        return (self.name,)

    __hash__ = Expr.__hash__


class _Operands(Expr):
    """Shape of Sum and Prod: one tuple of operands."""

    args: tuple

    def __init__(self, args):
        self.__dict__["args"] = args

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.args == other.args
        return NotImplemented

    def _key(self) -> tuple:
        return (self.args,)

    __hash__ = Expr.__hash__


class Sum(_Operands):
    """args[0] + args[1] + ..."""


class Prod(_Operands):
    """args[0] * args[1] * ..."""


class Pow(Expr):
    base: Expr
    exponent: Fraction

    def __init__(self, base, exponent):
        d = self.__dict__
        d["base"] = base
        d["exponent"] = _frac(exponent)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.exponent) == (other.base, other.exponent)
        return NotImplemented

    def _key(self) -> tuple:
        return (self.base, self.exponent)

    __hash__ = Expr.__hash__


class _Unary(Expr):
    """Shape of Exp, Sin and Cos: one operand."""

    arg: Expr

    def __init__(self, arg):
        self.__dict__["arg"] = arg

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.arg,) == (other.arg,)
        return NotImplemented

    def _key(self) -> tuple:
        return (self.arg,)

    __hash__ = Expr.__hash__


class Exp(_Unary):
    """exp(arg)"""


class Sin(_Unary):
    """sin(arg)"""


class Cos(_Unary):
    """cos(arg)"""


class Piece(Record):
    """One branch of a PiecewiseDecay; lo/hi are rationals or None for ±inf."""

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    expr: Expr

    def __post_init__(self):
        if self.lo is not None:
            object.__setattr__(self, "lo", _frac(self.lo))
        if self.hi is not None:
            object.__setattr__(self, "hi", _frac(self.hi))


class PiecewiseDecay(Expr):
    """Piecewise function of `arg`, branches written in bound variable `var`.

    Pieces partition the line; non-constant branches are exp/rational
    compositions that are smoothly flat at the breakpoints, so at a
    breakpoint evaluation returns the adjacent constant branch's value.
    """

    arg: Expr
    var: str
    pieces: tuple  # of Piece

    def __init__(self, arg, var, pieces):
        lo = None
        for p in pieces:
            if p.lo != lo:
                raise ExprError("PiecewiseDecay pieces must partition the line")
            lo = p.hi
        if pieces[0].lo is not None or pieces[-1].hi is not None:
            raise ExprError("PiecewiseDecay pieces must cover (-inf, inf)")
        d = self.__dict__
        d["arg"] = arg
        d["var"] = var
        d["pieces"] = pieces

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.arg, self.var, self.pieces)
                    == (other.arg, other.var, other.pieces))
        return NotImplemented

    def _key(self) -> tuple:
        return (self.arg, self.var, self.pieces)

    __hash__ = Expr.__hash__


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


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
    # (a^p)^q = a^pq, but for an even p and a fractional q it is |a|^pq
    if isinstance(base, Pow) and (q.denominator == 1
                                  or not _even(base.exponent)):
        return powx(base.base, base.exponent * q)
    return Pow(base, q)


def _even(p: Rational) -> bool:
    return p.denominator == 1 and p.numerator % 2 == 0


def _exact_root(c: Rational, q: Fraction) -> Optional[Fraction]:
    """c**q as an exact rational, or None: c = a/b in lowest terms has a
    rational r-th root (r the denominator of q) only if a and b are r-th
    powers of integers."""
    if c < 0:
        return None
    if c == 0:
        return Fraction(0) if q > 0 else None
    r = q.denominator
    num, den = _int_root(c.numerator, r), _int_root(c.denominator, r)
    if num is None or den is None:
        return None
    return Fraction(num, den) ** q.numerator


def _int_root(n: int, r: int) -> Optional[int]:
    """The integer r-th root of n >= 1, or None if n is not an r-th power."""
    root = floor_root(n, r)
    return root if root ** r == n else None


def floor_root(n: int, r: int) -> int:
    """The largest integer whose r-th power is at most n >= 1."""
    if r == 2:
        return math.isqrt(n)
    root = 1 << -(-n.bit_length() // r)  # >= the root; Newton descends
    while True:
        step = ((r - 1) * root + n // root ** (r - 1)) // r
        if step >= root:
            return root
        root = step


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


@functools.lru_cache(maxsize=None)
def _diff(e: Expr, v: str) -> Expr:
    """d e / d v, memoized on (e, v): derivatives of products and powers
    repeat their operands, so a tree derives each distinct subtree once."""
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
    """Exact tree walk: rationals stay Fractions, floats propagate, and a
    pole, a negative base under a fractional power, an exp argument above
    700, a float overflow or sin/cos of a non-finite value raise
    DomainError naming the subtree."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return point[e.name]
        except KeyError:
            raise UnknownVariableError(f"unbound variable '{e.name}'") from None
    try:
        if isinstance(e, Sum):
            return _num_sum(evaluate(a, point) for a in e.args)
        if isinstance(e, Prod):
            return _num_prod(evaluate(a, point) for a in e.args)
    except OverflowError:  # an exact constant too large for a float met one
        raise DomainError("float overflow", e) from None
    if isinstance(e, Pow):
        return _pow_value(evaluate(e.base, point), e)
    if isinstance(e, (Exp, Sin, Cos)):
        return _unary_value(evaluate(e.arg, point), e)
    if isinstance(e, PiecewiseDecay):
        return _eval_piecewise(e, evaluate(e.arg, point))
    raise ExprError(f"unknown node {e!r}")


def evaluate_dag(e: Expr, point: Mapping[str, Number], cache: dict) -> Number:
    """evaluate with per-point memoization on node identity.

    No code in the package calls it: the duality checks sample their
    matrices through floatcode.compile_floats.  It is kept only because the
    benchmark tracer (perfbench/tracer.py) still times it by name.

    The cache must not be reused across points.  It also keeps every node
    it has evaluated alive, under the key None, so that a freed node's id
    cannot be reused while the cache lives.
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
    elif isinstance(e, (Sum, Prod)):
        vals = (evaluate_dag(a, point, cache) for a in e.args)
        try:
            out = _num_sum(vals) if isinstance(e, Sum) else _num_prod(vals)
        except OverflowError:  # an exact constant too large for a float met one
            raise DomainError("float overflow", e) from None
    elif isinstance(e, Pow):
        out = _pow_value(evaluate_dag(e.base, point, cache), e)
    elif isinstance(e, (Exp, Sin, Cos)):
        out = _unary_value(evaluate_dag(e.arg, point, cache), e)
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


def _num_prod(vals: Iterable[Number]) -> Number:
    """Left-to-right product that stops at the first zero factor; vals may
    be lazy, so later factors are then never computed."""
    out = Fraction(1)
    for v in vals:
        if v == 0:
            return v * 0  # keep type (Fraction 0 or float 0.0)
        out = out * v
    return out


def _pow_value(b: Number, e: Pow) -> Number:
    q = e.exponent
    if b == 0:
        if q < 0:
            raise DomainError("division by zero", e)
        return Fraction(0) if isinstance(b, Fraction) else 0.0
    try:
        if q.denominator == 1:
            if isinstance(b, (Fraction, int)):
                return Fraction(b) ** q.numerator
            return b ** q.numerator
        if b < 0:
            raise DomainError("fractional power of a negative value", e)
        return float(b) ** float(q)
    except OverflowError:
        raise DomainError("float overflow", e) from None


def _to_float(v: Number, e: Expr) -> float:
    try:
        return float(v)
    except OverflowError:
        raise DomainError("float overflow", e) from None


def _unary_value(a: Number, e: Expr) -> float:
    """exp, sin or cos (the node e) of the value a."""
    a = _to_float(a, e)
    if isinstance(e, Exp):
        if a > 700:
            raise DomainError("exp overflow", e)
        return math.exp(a)
    try:
        return math.sin(a) if isinstance(e, Sin) else math.cos(a)
    except ValueError:
        raise DomainError("math domain error", e) from None


def _eval_piecewise(e: PiecewiseDecay, t: Number) -> float:
    """The value at t as a float, a constant branch's too."""
    pieces = e.pieces
    for i, p in enumerate(pieces):
        lo_ok = p.lo is None or t > p.lo
        hi_ok = p.hi is None or t < p.hi
        if lo_ok and hi_ok:
            return _to_float(evaluate(p.expr, {e.var: t}), e)
        if p.hi is not None and t == p.hi:
            # breakpoint: smooth flatness means the adjacent constant branch
            # (on whichever side) gives the two-sided value
            nxt = pieces[i + 1]
            for cand in (p, nxt):
                if isinstance(cand.expr, Const):
                    return _to_float(cand.expr.value, e)
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

_Poly = dict  # monomial tuple -> rational; memoized, so never mutate one
# Exponents and coefficients with denominator 1 are stored as ints, whose
# arithmetic is much faster than Fraction's; the two compare and hash equal,
# so keys still merge, and Const/Pow turn them back into Fractions.


def _q(v: Rational) -> Rational:
    return v.numerator if v.denominator == 1 else v


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    d = dict(m1)
    for atom, q in m2:
        q2 = d.get(atom, 0) + q
        if q2:
            d[atom] = _q(q2)
        elif atom in d:
            del d[atom]
    return tuple(sorted(d.items(), key=lambda kv: _sort_key(kv[0])))


def _poly_mul(p1: _Poly, p2: _Poly) -> _Poly:
    out: _Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_mul(m1, m2)
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = _q(c)
            elif m in out:
                del out[m]
    return out


def _poly_add_into(out: _Poly, p: _Poly) -> None:
    for m, c in p.items():
        c2 = out.get(m, 0) + c
        if c2:
            out[m] = _q(c2)
        elif m in out:
            del out[m]


@functools.lru_cache(maxsize=None)
def _sort_key(e: Expr) -> str:
    return ser(e)


def _mono_order(item: tuple) -> tuple:
    """Sort key of a (monomial, coeff) item: its atoms, then their
    exponents, so that y and y**2 do not tie."""
    mono = item[0]
    return tuple(_sort_key(a) for a, _ in mono), tuple(q for _, q in mono)


def _atom(e: Expr, q: Rational = 1) -> _Poly:
    return {((e, q),): 1}


@functools.lru_cache(maxsize=None)
def poly(e: Expr) -> tuple:
    """Canonical polynomial form as a sorted tuple of (monomial, coeff)."""
    return tuple(sorted(_poly(e).items(), key=_mono_order))


@functools.lru_cache(maxsize=None)
def _poly(e: Expr) -> _Poly:
    if isinstance(e, Const):
        return {(): _q(e.value)} if e.value else {}
    if isinstance(e, Var):
        return _atom(e)
    if isinstance(e, Sum):
        out: _Poly = {}
        for a in e.args:
            _poly_add_into(out, _poly(a))
        return out
    if isinstance(e, Prod):
        out = {(): 1}
        for a in e.args:
            out = _poly_mul(out, _poly(a))
        return _expand_ripe(out)
    if isinstance(e, Pow):
        return _expand_ripe(_poly_pow(e.base, e.exponent))
    if isinstance(e, Exp):
        a = canon(e.arg)
        if isinstance(a, Const) and a.value == 0:
            return {(): 1}
        return _atom(Exp(a))
    if isinstance(e, Sin):
        a = canon(e.arg)
        if isinstance(a, Const) and a.value == 0:
            return {}
        return _atom(Sin(a))
    if isinstance(e, Cos):
        a = canon(e.arg)
        if isinstance(a, Const) and a.value == 0:
            return {(): 1}
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
        return {(): 1}
    if q.denominator == 1 and q > 0:
        out = {(): 1}
        k = q.numerator
        acc = pb
        while k:
            if k & 1:
                out = _poly_mul(out, acc)
            k >>= 1
            if k:
                acc = _poly_mul(acc, acc)
        return out
    mono, c = next(iter(pb.items()))
    if len(pb) == 1 and (q.denominator == 1 or _splits(mono, c)):
        scaled = tuple(
            sorted(((a, _q(e0 * q)) for a, e0 in mono), key=lambda kv: _sort_key(kv[0]))
        )
        if q.denominator == 1:
            # Fraction first: an int to a negative power is a float
            return {scaled: _q(Fraction(c) ** q.numerator)}
        if c == 1:
            return {scaled: 1}
        root = _exact_root(c, q)
        if root is not None:
            return {scaled: _q(root)}
        cpart = _atom(Const(c), q)
        return _poly_mul({scaled: 1}, cpart)
    # opaque power of a multi-term base, or of a monomial that may be negative
    return _atom(_rebuild(pb), _q(q))


def _splits(mono: tuple, c: Rational) -> bool:
    """Whether (c m)^q = c^q m^q termwise for the monomial m and every
    fractional q, wherever the left side evaluates: c > 0, and the atoms are
    either all at fractional powers (so each is >= 0 where it evaluates) or
    one atom at an odd power (a^k >= 0 gives a >= 0).  An atom at an even
    power never splits: (a^2)^(1/2) is |a|.  Nor does an odd one beside
    others: x (y^(1/2)) >= 0 at x < 0, y = 0, where x^(1/2) is undefined."""
    ints = [e for _, e in mono if e.denominator == 1]
    return c > 0 and (not ints or (len(mono) == 1 and not _even(ints[0])))


def _ripe(atom: Expr, q: Rational) -> bool:
    """Whether atom**q is no longer opaque: a sum or an opaque monomial (a
    product or power) at a positive integer power, or a constant at a power
    with an exact rational value."""
    if type(atom) in (Sum, Prod, Pow):
        return q.denominator == 1 and q > 0
    return type(atom) is Const and (
        q.denominator == 1 or _exact_root(atom.value, q) is not None)


def _expand_ripe(p: _Poly) -> _Poly:
    """Expand the atoms that a product or power left ripe: adding the
    exponents of sqrt(s) * sqrt(s) gives the sum s at exponent 1, which is
    the polynomial s, and sqrt(2) * sqrt(2) gives 2."""
    if not any(_ripe(a, q) for mono in p for a, q in mono):
        return p
    out: _Poly = {}
    for mono, c in p.items():
        term = {tuple((a, q) for a, q in mono if not _ripe(a, q)): c}
        for a, q in mono:
            if _ripe(a, q):
                term = _poly_mul(term, _poly_pow(a, q))
        _poly_add_into(out, term)
    return _expand_ripe(out)


def _rebuild(p: _Poly) -> Expr:
    terms = []
    for mono, c in sorted(p.items(), key=_mono_order):
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


def collect_x_powers(terms, x: Optional[str]) -> dict:
    """Collect (k, coeff, key) triples into {(k - j, key): coeff}.

    x**j is the power of the bare variable `x` in a monomial of coeff
    (j = 0 when x is None), and a fractional j raises ExprError; x inside
    opaque atoms stays in the coefficient.  Each slot's monomials are
    summed exactly and rebuilt once into a canonical coefficient; slots
    that cancel are dropped.
    """
    xv = None if x is None else Var(x)
    slots: dict = {}
    for k, coeff, key in terms:
        parts: dict = {}
        for mono, c in _poly(coeff).items():
            j, rest = 0, mono
            for i, (atom, q) in enumerate(mono):
                if atom == xv:
                    if q.denominator != 1:
                        raise ExprError(f"{x}^({q}) has no integer pole order")
                    j, rest = int(q), mono[:i] + mono[i + 1:]
                    break
            parts.setdefault(j, {})[rest] = c
        for j, p in parts.items():
            _poly_add_into(slots.setdefault((k - j, key), {}), p)
    return {slot: _rebuild(p) for slot, p in slots.items() if p}


def pfaffians(entries: Mapping[tuple, Expr], d: int, size: int,
              scale: Rational) -> dict:
    """{S: scale * Pf(W_S)} over the increasing `size`-subsets S of range(d)
    whose Pfaffian is not zero, W the antisymmetric matrix with
    W[i][j] = entries[(i, j)] for i < j (a missing pair is 0).

    Each Pfaffian is expanded along its first index over exact polynomials,
    Pf(S) = sum_k (-1)^(k+1) W[s0][sk] Pf(S without s0, sk), with every
    sub-Pfaffian computed once and each product expanded as for a Prod.
    """
    rows = {ij: _poly(e) for ij, e in entries.items()}
    memo: dict = {(): {(): 1}}

    def pf(s: tuple) -> _Poly:
        if s not in memo:
            out: _Poly = {}
            for k in range(1, len(s)):
                w = rows.get((s[0], s[k]))
                if w:
                    term = _expand_ripe(_poly_mul(w, pf(s[1:k] + s[k + 1:])))
                    _poly_add_into(out, term if k % 2 else
                                   {m: -c for m, c in term.items()})
            memo[s] = out
        return memo[s]

    out = {}
    for s in itertools.combinations(range(d), size):
        p = pf(s)
        if p:
            out[s] = _rebuild({m: _q(c * scale) for m, c in p.items()})
    return out


# ---------------------------------------------------------------------------
# zero testing


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _halton(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def sample_points(names, domain, n_samples):
    """Deterministic low-discrepancy points in the open box `domain`."""
    names = list(names)
    if len(names) > len(_PRIMES):
        raise ExprError("too many dimensions for the sampler")
    offset = (DEFAULT_SEED % 7919) + 1
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


def nan_max(items, key=None, default=None):
    """max(items, key=key, default=default), except that a NaN key is the
    largest: max() alone keeps a NaN only when it comes first."""
    key = key or (lambda item: item)
    return max(items, key=lambda item: (math.isnan(k := key(item)), k),
               default=default)


def is_zero(e: Expr, domain: Mapping[str, tuple], n_samples: int = 100,
            tol: float = 1e-12):
    """A Certificate that e vanishes on the box: `proven` when its exact
    normal form is zero, else `verified` when |e| <= tol at every sample,
    with min_margin tol - max |e|.  The first sample where |e| exceeds tol,
    or where e is undefined (its value is then NaN), refutes with that
    point as the witness, min_margin tol - |e| and the value in detail."""
    from .certificates import proven, refuted, verified  # they import expr
    if n_samples < 1:
        raise ExprError("n_samples must be >= 1")
    for name, (lo, hi) in domain.items():
        if not float(lo) < float(hi):
            raise ExprError(f"empty domain for '{name}'")
    if is_provably_zero(e):
        return proven()
    names = sorted(free_vars(e))
    missing = [n for n in names if n not in domain]
    if missing:
        raise UnknownVariableError(f"domain does not bind {missing}")
    max_abs = 0.0
    for point in sample_points(names, domain, n_samples):
        try:
            v = float(evaluate(e, point))
        except DomainError:  # undefined here: a NaN witness
            v = math.nan
        if not abs(v) <= tol:  # NaN fails too
            return refuted(point, tol - abs(v), detail=f"value {v!r}")
        max_abs = max(max_abs, abs(v))
    return verified(n_samples, tol, tol - max_abs)


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
