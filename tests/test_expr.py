"""Expression trees: exact arithmetic, differentiation, domain guards,
deterministic sampling, and the DAG evaluator."""

from fractions import Fraction

import pytest

from scatsym.expr import (
    Const, DomainError, ONE, add, canon, cos, differentiate, evaluate,
    evaluate_dag, exp, is_provably_zero, is_zero, mul, parse, powx,
    sample_points, ser, sin, sqrt, var,
)

X = var("x")
Y = var("y")


def test_exact_rational_evaluation():
    e = powx(add(mul(Const(Fraction(1, 3)), X), Const(Fraction(1, 6))), 2)
    v = evaluate(e, {"x": Fraction(1, 2)})
    assert v == Fraction(1, 9)
    assert isinstance(v, Fraction)


def test_product_rule():
    e = mul(powx(X, 2), sin(X))
    want = add(mul(Const(Fraction(2)), X, sin(X)), mul(powx(X, 2), cos(X)))
    diff = add(differentiate(e, "x"), mul(Const(Fraction(-1)), want))
    assert is_zero(diff, {"x": (0.1, 2.0)}).is_zero


def test_chain_rule_exp():
    e = exp(mul(Const(Fraction(-1)), powx(X, 2)))
    want = mul(Const(Fraction(-2)), X, e)
    diff = add(differentiate(e, "x"), mul(Const(Fraction(-1)), want))
    assert is_zero(diff, {"x": (-1.0, 1.0)}).is_zero


def test_derivative_of_constant_in_other_variable():
    assert is_provably_zero(differentiate(mul(Const(Fraction(3)), Y), "x"))


def test_division_by_zero_raises():
    with pytest.raises(DomainError):
        evaluate(powx(X, -1), {"x": 0})


def test_exp_overflow_raises():
    with pytest.raises(DomainError):
        evaluate(exp(Const(Fraction(1000))), {})


def test_fractional_power_of_negative_raises():
    with pytest.raises(DomainError):
        evaluate(sqrt(X), {"x": -1})


def test_ser_parse_roundtrip():
    exprs = [
        add(mul(Const(Fraction(2, 3)), X), powx(Y, Fraction(1, 2))),
        mul(sin(X), cos(Y), exp(X)),
        powx(add(X, ONE), -3),
    ]
    for e in exprs:
        back = parse(ser(e))
        assert is_provably_zero(canon(add(e, mul(Const(Fraction(-1)), back))))


def test_sample_points_deterministic():
    dom = {"x": (0.0, 1.0), "y": (-2.0, 2.0)}
    a = sample_points(("x", "y"), dom, 50)
    b = sample_points(("x", "y"), dom, 50)
    assert a == b
    c = sample_points(("x", "y"), dom, 50, seed=7)
    assert c != a
    for pt in a:
        assert 0.0 < pt["x"] < 1.0
        assert -2.0 < pt["y"] < 2.0


def test_is_zero_verdicts():
    trig = add(powx(sin(X), 2), powx(cos(X), 2), Const(Fraction(-1)))
    v = is_zero(trig, {"x": (0.0, 6.28)})
    assert v.is_zero
    w = is_zero(X, {"x": (0.5, 1.0)})
    assert not w.is_zero
    assert w.witness is not None


def test_evaluate_dag_matches_evaluate():
    shared = add(mul(X, Y), sin(X))
    e = add(mul(shared, shared), powx(shared, 3), exp(Y))
    pt = {"x": 0.37, "y": -1.2}
    cache = {}
    assert float(evaluate_dag(e, pt, cache)) == pytest.approx(
        float(evaluate(e, pt)), rel=1e-14)
    # the shared subtree is evaluated once and memoized
    assert id(shared) in cache


def test_evaluate_dag_domain_errors():
    cache = {}
    with pytest.raises(DomainError):
        evaluate_dag(powx(X, -2), {"x": 0}, cache)


def test_evaluate_dag_shared_cache_keeps_temporaries():
    # each temporary is freed after its evaluation; its id must not hand
    # its cached value to a later node evaluated through the same cache
    cache = {}
    pt = {"x": 0.5}
    stale = [k for k in range(200)
             if evaluate_dag(add(X, Const(Fraction(k))), pt, cache) != 0.5 + k]
    assert stale == []
