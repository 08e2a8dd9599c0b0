"""Compiled float evaluation: a list of expressions compiled once into
straight-line Python code that gives `expr.evaluate`'s floats bit for bit.

compile_floats samples point dicts (the duality checks); compile_margin
streams grid rows (certificates.certify_positive).  Only requests that
scan a grid or sample a dual import this module."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .expr import (
    Const, Cos, Exp, Expr, ExprError, PiecewiseDecay, Pow, Prod, Sin, Sum,
    Var, _eval_piecewise, _pow_value, _unary_value, evaluate,
)


class _Recheck(Exception):
    """Raised by compiled code where only the tree walk knows the answer."""


_RECHECK = (ArithmeticError, ValueError, LookupError, ExprError, _Recheck)


def _reference(e: Expr, point: Mapping[str, float]) -> float:
    return float(evaluate(e, point))


def compile_floats(exprs: Sequence[Expr]) -> Callable[[Mapping[str, float]], list]:
    """Compile exprs once into a straight-line Python function
    point -> [float(evaluate(e, point)) for e in exprs].

    Contract: on a point that maps every free variable to a float, the
    function returns exactly those values, bit for bit, and raises
    DomainError exactly where evaluate does: the first entry in list order
    that evaluate rejects raises as it would alone.

    The code has one statement per distinct subtree: equal subtrees, also
    ones built separately, are computed once, across all entries.  Subtrees
    without variables are folded exactly at compile time with evaluate's own
    arithmetic.  It runs eagerly in evaluate's order of operations: sums
    and products left to right from the same exact constant prefix, b ** n
    for integer exponents, the negative-base and exp-argument guards, and
    PiecewiseDecay branches picked by float comparisons equivalent to the
    exact ones against their rational bounds.  Every runtime value is a
    float (a PiecewiseDecay evaluates to one), so a folded constant enters
    the code as the float literal that Fraction-float arithmetic would
    convert it to.  Where eager code can differ from the tree walk, the
    tree walk gives the value instead: every entry on any exception or at
    an exact breakpoint, and one entry whose value is zero or not finite
    (0 + v is emitted as v, which keeps the sign of a zero v).
    An entry that folds to a constant is converted to float at compile
    time.
    """
    return _FloatCompiler().function(list(exprs))


def compile_margin(exprs: Sequence[Expr], magnitude: bool,
                   names: Sequence[str]):
    """One grid kernel for a certificate margin: the signed value of the
    only expression, or max |e| over exprs if magnitude (0.0 when empty).

    kernel(rows, i, least, tol) runs the code of compile_floats over the
    rest of the iterator rows, each a tuple of floats in the order of
    names, keeping least = min(least, margin); i counts the rows read
    before.  It returns (i, row, least) at the first row it cannot settle:
    compiled code raised (also when a row does not unpack, or the margin
    reads a variable not in names), a value is not finite, or the margin is
    not above tol; it returns (i, None, least) when the rows run out, i
    then being the number of rows read in all.  Every value in a settled
    margin is finite, so it equals evaluate's up to the sign of a zero, and
    a zero value loses its sign under |.| or in a sum whose result is
    nonzero.  A margin that is itself zero is settled only when tol < 0,
    and then least - tol does not depend on its sign.
    """
    return _FloatCompiler().kernel(list(exprs), magnitude, tuple(names))


class _FloatCompiler:
    """Emits the body of one compile_floats function or compile_margin
    kernel: a certificate compiles its margin into one grid kernel, equal
    subtrees are computed once, and a point goes to the tree walk only when
    the compiled code cannot settle it.

    A value is a number (Fraction or float) for a folded subtree, or a str:
    the name of a runtime float."""

    def __init__(self):
        self.ns = {"_Recheck": _Recheck, "_RECHECK": _RECHECK,
                   "_reference": _reference, "_exp": math.exp,
                   "_sin": math.sin, "_cos": math.cos}
        self.lines = []
        self.indent = 0
        self.count = 0

    def values(self, exprs: list, indent: int, bound=None) -> list:
        """Emit the code of exprs at the given indent, sharing one memo;
        bound is the outer scope (see node)."""
        self.indent, memo = indent, {}
        return [self.node(e, (memo, bound)) for e in exprs]

    def define(self, src: list, name: str):
        exec(compile("\n".join(src + [""]), f"<{name}>", "exec"), self.ns)
        return self.ns[name]

    def function(self, exprs: list):
        """The compile_floats function of exprs."""
        self.ns["_es"], outs, checks = exprs, [], []
        for i, v in enumerate(self.values(exprs, 2)):
            if not isinstance(v, str):
                outs.append(self.ref(v))
                continue
            self.emit(f"r{i} = {v}")
            outs.append(f"r{i}")
            checks += [f"    if not (r{i} and r{i} - r{i} == 0.0):",
                       f"        r{i} = _reference(_es[{i}], pt)"]
        return self.define(["def compiled(pt):", "    try:",
                            *(self.lines or ["        pass"]),
                            "    except _RECHECK:",
                            "        return [_reference(e, pt) for e in _es]",
                            *checks, f"    return [{', '.join(outs)}]"],
                           "compiled")

    def kernel(self, exprs: list, magnitude: bool, names: tuple):
        """The compile_margin kernel: m is the margin, and f is m or the sum
        of the |e|, finite only if every value in m is.  Each row unpacks
        into one local per name."""
        coords = [f"v{self.count + k}" for k in range(1, len(names) + 1)]
        self.count, self.indent = self.count + len(names), 3
        if names:
            self.emit(f"{', '.join(coords)}, = row")
        vals = [self.ref(v) for v in
                self.values(exprs, 3, dict(zip(names, coords)))]
        if not magnitude:
            margin = [f"m = f = {vals[0]}"]
        elif not vals:
            margin = ["m = f = 0.0"]
        else:
            margin = [f"m = f = abs({vals[0]})"]
            for v in vals[1:]:
                margin += [f"a = abs({v})", "f += a", "if a > m: m = a"]
        return self.define([
            "def kernel(rows, i, least, tol):",
            "    for row in rows:",
            "        try:",
            *(self.lines or ["            pass"]),
            "        except _RECHECK:",
            "            return i, row, least",
            *("        " + line for line in margin),
            "        if not (m > tol and f - f == 0.0):",
            "            return i, row, least",
            "        if m < least:",
            "            least = m",
            "        i += 1",
            "    return i, None, least"], "kernel")

    # -- emission helpers

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def assign(self, code: str) -> str:
        self.count += 1
        name = f"v{self.count}"
        self.emit(f"{name} = {code}")
        return name

    def fail(self) -> str:
        """This node always needs the tree walk (e.g. a constant subtree
        that raises); code after it in the same block is unreachable."""
        self.emit("raise _Recheck")
        return "0.0"

    def ref(self, v) -> str:
        """Operand text for the value v: a folded value is written as the
        float it converts to; one too large for a float can only raise."""
        if isinstance(v, str):
            return v
        try:
            v = float(v)
        except OverflowError:
            return self.fail()
        return f"({v!r})" if math.isfinite(v) else f"float({str(v)!r})"

    def chain(self, op: str, vals: list) -> str:
        """vals[0] op vals[1] op ... left to right, one statement per
        operation; every operation has a runtime float operand."""
        acc = vals[0]
        for v in vals[1:]:
            acc = self.assign(f"{self.ref(acc)} {op} {self.ref(v)}")
        return acc

    # -- nodes

    def node(self, e: Expr, scope: tuple):
        """scope is (memo, bound): bound is None for the outer point of a
        compile_floats function, or {name: value}, the grid coordinates of
        a kernel or the variable of a PiecewiseDecay branch."""
        memo = scope[0]
        if e not in memo:  # structural: equal subtrees share one statement
            memo[e] = self._node(e, scope)
        return memo[e]

    def _node(self, e: Expr, scope: tuple):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            bound = scope[1]
            if bound is None:
                return self.assign(f"pt[{e.name!r}]")
            return bound[e.name] if e.name in bound else self.fail()
        if isinstance(e, (Sum, Prod)):
            return self.fold(e, scope)
        if not isinstance(e, (Pow, Exp, Sin, Cos, PiecewiseDecay)):
            raise ExprError(f"unknown node {e!r}")
        a = self.node(e.base if isinstance(e, Pow) else e.arg, scope)
        if not isinstance(a, str):  # fold with evaluate's own arithmetic
            try:
                if isinstance(e, Pow):
                    return _pow_value(a, e)
                if isinstance(e, PiecewiseDecay):
                    return _eval_piecewise(e, a)
                return _unary_value(a, e)
            except _RECHECK:
                return self.fail()
        if isinstance(e, Pow):
            q = e.exponent
            if q.denominator == 1:
                return self.assign(f"{a} ** ({q.numerator})")
            self.emit(f"if {a} < 0: raise _Recheck")
            return self.assign(f"{a} ** {float(q)!r}")
        if isinstance(e, (Exp, Sin, Cos)):
            if isinstance(e, Exp):
                self.emit(f"if {a} > 700: raise _Recheck")
                return self.assign(f"_exp({a})")
            return self.assign(f"{'_sin' if isinstance(e, Sin) else '_cos'}({a})")
        return self.piecewise(e, a)

    def fold(self, e: Expr, scope: tuple):
        """A Sum or Prod as evaluate runs it: the leading constant operands
        fold exactly from the unit (0 or 1), an exact unit prefix is
        dropped (0 + v is v up to the sign of a zero, 1 * v is v), and the
        rest is chained left to right."""
        plus = isinstance(e, Sum)
        unit = Fraction(0 if plus else 1)
        acc, vals = unit, []
        for a in e.args:
            v = self.node(a, scope)
            if vals or isinstance(v, str):
                vals.append(v)
                continue
            try:
                acc = acc + v if plus else acc * v
            except _RECHECK:
                return self.fail()
        if not vals:
            return acc
        if not (isinstance(acc, Fraction) and acc == unit):
            vals.insert(0, acc)
        return vals[0] if len(vals) == 1 else self.chain("+" if plus else "*", vals)

    def piecewise(self, e: PiecewiseDecay, t: str) -> str:
        try:
            bounds = [(_float_bound(p.lo, False), _float_bound(p.hi, True))
                      for p in e.pieces]
        except OverflowError:
            return self.fail()
        self.count += 1
        out = f"v{self.count}"
        for i, (p, (lo, hi)) in enumerate(zip(e.pieces, bounds)):
            cond = " and ".join(c for c in (
                None if lo is None else f"{t} > {lo!r}",
                None if hi is None else f"{t} < {hi!r}") if c) or "True"
            self.emit(f"{'elif' if i else 'if'} {cond}:")
            self.indent += 1
            val = self.node(p.expr, ({}, {e.var: t}))
            self.emit(f"{out} = {self.ref(val)}")
            self.indent -= 1
            if p.hi is not None and Fraction(hi) == p.hi:
                self.emit(f"elif {t} == {hi!r}: raise _Recheck")
        self.emit("else: raise _Recheck")
        return out


def _float_bound(q: Optional[Fraction], upper: bool) -> Optional[float]:
    """A float c with t > q iff t > c (upper False) or t < q iff t < c
    (upper True), for every float t."""
    if q is None:
        return None
    f = float(q)
    if upper and f < q:
        return math.nextafter(f, math.inf)
    if not upper and f > q:
        return math.nextafter(f, -math.inf)
    return f
