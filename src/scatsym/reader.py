"""The S-expression reader, the inverse of `expr.ser`: parse(ser(e)) == e
up to the normalization the constructors apply.  Only form files
(`geometry.form_from_json`) are read, so only requests that load one
import this module."""

from __future__ import annotations

from fractions import Fraction

from .expr import (
    Const, Expr, ExprError, Piece, PiecewiseDecay, Var, add, cos, exp, mul,
    powx, sin, sqrt,
)


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
