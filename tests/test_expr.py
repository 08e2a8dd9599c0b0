"""Expression trees: exact arithmetic, differentiation, domain guards,
deterministic sampling, the tree walk `evaluate` (also named
`evaluate_dag`), compiled float evaluation and the grid kernels of
certificate margins."""

import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import scatsym.expr as expr_module
import scatsym.floatcode as floatcode
from scatsym.expr import (
    Const, Cos, DomainError, Exp, ExprError, ONE, Piece, PiecewiseDecay, Pow,
    Prod, Sin, Sum, Var, ZERO, add, canon, collect_x_powers, cos,
    differentiate, evaluate, evaluate_dag, exp, is_provably_zero, is_zero,
    mul, nan_max, poly, powx, sample_points, ser, sin, sqrt, substitute, var,
)
from scatsym.floatcode import compile_floats, compile_margin
from scatsym.reader import parse
from scatsym.catalog import torus_contact
from scatsym import certificates
from scatsym.certificates import (
    Certificate, axis_points, certify_positive, geometric_refinement,
)
from scatsym.gluing import (
    GLUE_R, bump_phi, bump_psi_f, bump_psi_sc,
    glue_concave_concave, glue_convex_convex,
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
    assert is_zero(diff, {"x": (0.1, 2.0)}).passed


def test_chain_rule_exp():
    e = exp(mul(Const(Fraction(-1)), powx(X, 2)))
    want = mul(Const(Fraction(-2)), X, e)
    diff = add(differentiate(e, "x"), mul(Const(Fraction(-1)), want))
    assert is_zero(diff, {"x": (-1.0, 1.0)}).passed


def test_derivative_of_constant_in_other_variable():
    assert is_provably_zero(differentiate(mul(Const(Fraction(3)), Y), "x"))


def test_differentiate_derives_each_distinct_subtree_once():
    # every term of a product's derivative repeats the other operands, so
    # a shared subtree is reached along many paths; each (node, variable)
    # is derived once
    inner = sin(mul(X, Y))
    e = mul(inner, cos(inner), exp(add(inner, X)))
    nodes, stack = set(), [e]
    while stack:
        n = stack.pop()
        if n not in nodes:
            nodes.add(n)
            stack.extend(getattr(n, "args", ()))
            stack.extend(getattr(n, name) for name in ("arg", "base")
                         if hasattr(n, name))
    expr_module._diff.cache_clear()
    d = differentiate(e, "x")
    assert expr_module._diff.cache_info().misses == len(nodes)
    assert differentiate(e, "x") is d
    pt = {"x": Fraction(1, 3), "y": Fraction(2)}
    h = 1e-6
    num = (float(evaluate(e, {"x": 1 / 3 + h, "y": 2.0}))
           - float(evaluate(e, {"x": 1 / 3 - h, "y": 2.0}))) / (2 * h)
    assert float(evaluate(d, pt)) == pytest.approx(num, rel=1e-6)


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
    for pt in a:
        assert 0.0 < pt["x"] < 1.0
        assert -2.0 < pt["y"] < 2.0


def test_is_zero_verdicts():
    trig = add(powx(sin(X), 2), powx(cos(X), 2), Const(Fraction(-1)))
    v = is_zero(trig, {"x": (0.0, 6.28)})
    assert v.kind == "numerically-verified" and v.grid_points == 100
    assert v.tolerance == 1e-12 and 0.0 <= v.min_margin <= 1e-12
    w = is_zero(X, {"x": (0.5, 1.0)})
    assert w.kind == "refuted"
    x = dict(w.witness)["x"]
    assert w.min_margin == 1e-12 - x and w.detail == f"value {x!r}"
    assert is_zero(mul(-1, X), {"x": (0.5, 1.0)}).detail == f"value {-x!r}"
    assert is_zero(add(X, mul(-1, X)), {"x": (0.5, 1.0)}) == \
        Certificate("proven")


def test_evaluate_dag_matches_evaluate():
    shared = add(mul(X, Y), sin(X))
    e = add(mul(shared, shared), powx(shared, 3), exp(Y))
    pt = {"x": 0.37, "y": -1.2}
    assert float(evaluate_dag(e, pt, {})) == pytest.approx(
        float(evaluate(e, pt)), rel=1e-14)


def test_evaluate_dag_domain_errors():
    cache = {}
    with pytest.raises(DomainError):
        evaluate_dag(powx(X, -2), {"x": 0}, cache)


def test_evaluate_dag_raises_domain_error_on_float_overflow():
    # 10^400 meets the float x in a sum, as in evaluate
    with pytest.raises(DomainError, match="float overflow"):
        evaluate_dag(add(Const(10 ** 400), var("x")), {"x": 0.5}, {})
    with pytest.raises(DomainError, match="float overflow"):
        evaluate_dag(mul(Const(10 ** 400), var("x")), {"x": 0.5}, {})


def test_a_pole_after_a_zero_factor_raises():
    # every factor is evaluated: a zero factor does not stop the product
    for e in (mul(X, powx(X, -1)), Prod((ZERO, powx(X, -1)))):
        for x in (0.0, Fraction(0)):
            with pytest.raises(DomainError) as err:
                evaluate(e, {"x": x})
            assert str(err.value) == "division by zero: (pow (var x) -1)"


def test_float_overflow_and_math_domain_raise_domain_error():
    with pytest.raises(DomainError, match="float overflow"):
        evaluate(powx(X, 400), {"x": 10.0})
    big = mul(exp(mul(Const(Fraction(400)), X)), exp(mul(Const(Fraction(401)), X)))
    with pytest.raises(DomainError, match="math domain error"):
        evaluate(sin(big), {"x": 1.0})


@pytest.mark.parametrize("build", [add, mul])
def test_exact_constant_too_large_for_a_float_raises_domain_error(build):
    # 10^400 meets the float x in a sum or a product
    e = build(Const(Fraction(10 ** 400)), X)
    with pytest.raises(DomainError, match="float overflow"):
        evaluate(e, {"x": 0.5})


def test_is_zero_fails_on_nan():
    # exp(300x) exp(301x) (exp(302x) - exp(303x)) is inf - inf = NaN near x = 1
    def e_(a):
        return exp(mul(Const(Fraction(a)), X))
    nan_expr = add(mul(e_(300), e_(301), e_(302)),
                   mul(Const(Fraction(-1)), e_(300), e_(301), e_(303)))
    v = is_zero(nan_expr, {"x": (0.9, 1.0)}, n_samples=10)
    assert v.kind == "refuted"
    assert math.isnan(v.min_margin) and v.detail == "value nan"


def test_is_zero_refutes_where_undefined():
    # sin(sqrt x)^2 + cos(sqrt x)^2 - 1 is zero wherever it is defined, not
    # provably, and undefined for x < 0: the first such sample is the
    # witness, with value NaN
    e = add(powx(sin(sqrt(X)), 2), powx(cos(sqrt(X)), 2), Const(Fraction(-1)))
    assert not is_provably_zero(e)
    assert is_zero(e, {"x": (0.1, 1.0)}).kind == "numerically-verified"
    v = is_zero(e, {"x": (-1.0, 1.0)})
    assert v.kind == "refuted"
    assert math.isnan(v.min_margin) and v.detail == "value nan"
    assert dict(v.witness)["x"] < 0
    with pytest.raises(DomainError):
        evaluate(e, dict(v.witness))


def test_nan_max_ranks_nan_highest():
    nan = math.nan
    assert max([1.0, nan, 2.0]) == 2.0  # the builtin drops a later NaN
    assert math.isnan(nan_max([1.0, nan, 2.0]))
    assert nan_max([1.0, 3.0, 2.0]) == 3.0
    assert nan_max([], default=0.0) == 0.0
    pairs = [(1.0, "a"), (nan, "b"), (nan, "c"), (5.0, "d")]
    assert nan_max(pairs, key=lambda p: p[0])[1] == "b"


# -- compile_floats against evaluate


def _compile_one(e):
    """compile_floats of the one expression e, as point -> float."""
    fn = compile_floats([e])
    return lambda pt: fn(pt)[0]


def _outcome(fn):
    try:
        return "value", fn()
    except (DomainError, ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)


def _operands(e):
    """The operands of e outside its piece bodies."""
    if isinstance(e, (Sum, Prod)):
        return e.args
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Exp, Sin, Cos, PiecewiseDecay)):
        return (e.arg,)
    return ()


def _same(a, b):
    if a[0] != b[0] or a[0] != "value":
        return a == b
    x, y = a[1], b[1]
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _random_tree(rng, depth, names=("x", "y")):
    """A tree over every node kind; nodes built directly (unfolded constants,
    zero factors, constant pieces) as well as smart-constructor ones."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return Var(rng.choice(names))
        return Const(Fraction(rng.choice([0, 1, -1, 2, -3, 7]),
                              rng.choice([1, 2, 3, 8, 10])))
    raw = rng.random() < 0.3
    sub = [_random_tree(rng, depth - 1, names) for _ in range(rng.randint(2, 4))]
    kind = rng.randrange(8)
    if kind == 0:
        return Sum(tuple(sub)) if raw else add(*sub)
    if kind == 1:
        return Prod(tuple(sub)) if raw else mul(*sub)
    if kind == 2:
        q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        if not raw:
            try:
                return powx(sub[0], q)
            except ExprError:  # 0^-k, also through a raw (0^p)^q
                pass
        return Pow(sub[0], q)
    if kind == 3:
        scale = Const(Fraction(rng.choice([1, 300, 800])))
        return Exp(mul(scale, sub[0])) if raw else exp(sub[0])
    if kind == 4:
        return (Sin if raw else sin)(sub[0])
    if kind == 5:
        return (Cos if raw else cos)(sub[0])
    cuts = sorted({Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))
                   for _ in range(rng.randint(1, 3))})
    pieces = tuple(
        Piece(lo, hi, _random_tree(rng, max(depth - 2, 0), ("t",))
              if rng.random() < 0.5 else Const(Fraction(rng.randint(-2, 2), 3)))
        for lo, hi in zip([None] + cuts, cuts + [None]))
    return PiecewiseDecay(sub[0], "t", pieces)


# the x = 0 slice, exact breakpoints of the random pieces and the bumps,
# 1/x and x^-k poles, and magnitudes that overflow
_SPECIAL = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1 / 3, 0.875, 0.94,
            1.5, -1.5, 4.0, 700.0, 1e-300, 1e300]


def _points(rng, names, count):
    return [{n: rng.choice(_SPECIAL) if rng.random() < 0.6
             else rng.uniform(-3.0, 3.0) for n in names} for _ in range(count)]


def test_compile_float_matches_evaluate_on_random_trees():
    rng = random.Random(20161)
    for _ in range(400):
        e = _random_tree(rng, rng.randint(1, 5))
        fn = _compile_one(e)
        for pt in _points(rng, ("x", "y"), 12):
            want = _outcome(lambda: float(evaluate(e, pt)))
            assert _same(_outcome(lambda: fn(pt)), want), (ser(e), pt, want)


def test_a_tree_that_evaluates_has_every_subtree_defined():
    # the tree walk evaluates every operand, a factor after a zero one too,
    # so no undefined subtree (outside the piece bodies) hides under a value
    rng = random.Random(20166)
    hidden, compared = [], 0
    for _ in range(400):
        e = _random_tree(rng, rng.randint(1, 5))
        for pt in _points(rng, ("x", "y"), 12):
            if _outcome(lambda: evaluate(e, pt))[0] != "value":
                continue
            compared += 1
            stack = list(_operands(e))
            while stack:
                a = stack.pop()
                if _outcome(lambda: evaluate(a, pt))[0] != "value":
                    hidden.append((ser(e), ser(a), pt))
                stack.extend(_operands(a))
    assert hidden == [] and compared > 2000


def test_compile_float_matches_evaluate_on_bumps():
    r = var("r")
    exprs = []
    for bump in (bump_phi(), bump_psi_sc(), bump_psi_f()):
        d = differentiate(bump, "r")
        exprs += [bump, d, substitute(d, {"r": powx(r, -1)}),
                  mul(d, powx(add(r, Const(Fraction(-1))), -2))]
    pts = [{"r": v} for v in [0.5, 2.0, 0.875, 1.0, -1.0, -2.0, 47 / 50, 0.0,
                              0.75, 15 / 16, 1.25, -1.5, 3.0, -3.0]]
    pts += [{"r": 0.25 + i / 200} for i in range(400)]
    for e in exprs:
        fn = _compile_one(e)
        for pt in pts:
            want = _outcome(lambda: float(evaluate(e, pt)))
            assert _same(_outcome(lambda: fn(pt)), want), (ser(e), pt, want)


_T = Var("t")
_STEP = PiecewiseDecay(X, "t", (Piece(None, Fraction(0), Const(Fraction(0))),
                                Piece(Fraction(0), None, _T)))
# pieces need not increase: at t = 1 evaluate stops at the first breakpoint
_FOLDED = PiecewiseDecay(X, "t", (Piece(None, Fraction(1), _T),
                                  Piece(Fraction(1), Fraction(0), Const(Fraction(5))),
                                  Piece(Fraction(0), None, mul(Const(Fraction(3)), _T))))


# a constant branch of 10^400 does not fit a float
_HUGE = PiecewiseDecay(X, "t", (Piece(None, Fraction(0), Const(Fraction(10 ** 400))),
                                Piece(Fraction(0), None, _T)))


@pytest.mark.parametrize("e, pt", [
    # the step's zero branch is the float 0.0, so the product is a float
    # zero and the two constants after it add in floats, 0.1 + 0.2, as in
    # the compiled chain
    (Sum((Prod((_STEP, Y)), Const(Fraction(1, 10)), Const(Fraction(2, 10)), Y)),
     {"x": -1.0, "y": 0.0}),
    (_FOLDED, {"x": 1.0, "y": 0.0}),
    (mul(X, powx(Y, -1)), {"x": 0.0, "y": 0.0}),          # zero factor, pole
    (mul(X, exp(mul(Const(Fraction(800)), Y))), {"x": 0.0, "y": 1.0}),
    (powx(X, Fraction(1, 2)), {"x": -1.0, "y": 0.0}),     # negative base
    (powx(mul(X, Y), Fraction(-3, 2)), {"x": -1e300, "y": 1e300}),
    (exp(mul(Const(Fraction(800)), X)), {"x": 1.0, "y": 0.0}),  # exp > 700
    (add(X, mul(Const(Fraction(-1)), X)), {"x": 0.3, "y": 0.0}),  # zero
    (sin(mul(exp(mul(Const(Fraction(400)), X)),
             exp(mul(Const(Fraction(401)), X)))), {"x": 1.0, "y": 0.0}),
    # a constant branch too large for a float: alone, at its breakpoint,
    # in a sum, in a product, folded, and not taken
    (_HUGE, {"x": -1.0, "y": 0.0}),
    (_HUGE, {"x": 0.0, "y": 0.0}),
    (add(_HUGE, Y), {"x": -1.0, "y": 2.0}),
    (mul(_HUGE, Y), {"x": -1.0, "y": 2.0}),
    (mul(Y, _HUGE), {"x": -1.0, "y": 0.0}),
    (mul(Y, substitute(_HUGE, {"x": Const(Fraction(-1))})), {"x": 0.0, "y": 2.0}),
    (add(_HUGE, Y), {"x": 0.5, "y": 2.0}),
    # a folded constant that is not finite: e^700 e^700 is inf
    (add(X, mul(exp(Const(Fraction(700))), exp(Const(Fraction(700))))),
     {"x": 1.0, "y": 0.0}),
    # a pole after a zero factor: folded, and after a folded zero
    (Prod((ZERO, Pow(ZERO, Fraction(-1)))), {"x": 0.0, "y": 0.0}),
    (Prod((ZERO, powx(X, -1))), {"x": 0.0, "y": 0.0}),
    # a folded product of 1.0 (a piecewise constant branch) times a variable
    (mul(substitute(_STEP, {"x": ONE}), Y), {"x": 0.0, "y": -2.0}),
])
def test_compile_float_edge_cases(e, pt):
    want = _outcome(lambda: float(evaluate(e, pt)))
    assert _same(_outcome(lambda: _compile_one(e)(pt)), want)


def test_compile_float_matches_evaluate_on_gluing_profiles():
    # the trees the gluing certifiers compile, on their r grids and at the
    # bumps' breakpoints
    sc = glue_convex_convex(torus_contact())
    folded = glue_concave_concave(torus_contact())
    breakpoints = [0.5, 0.875, 0.94, 0.9375, 1.0, 2.0]
    for g, rs in ((sc, geometric_refinement(1.0, 0.5, 1.0)),
                  (folded, axis_points(0.0, 2.0, 2000))):
        for e in (g.profile, differentiate(g.profile, GLUE_R)):
            fn = _compile_one(e)
            for r in rs + breakpoints:
                pt = {GLUE_R: r}
                want = _outcome(lambda: float(evaluate(e, pt)))
                assert _same(_outcome(lambda: fn(pt)), want), (g.kind, r, want)


def test_compiled_code_computes_in_floats_only():
    # a PiecewiseDecay is a float on a constant branch and at a breakpoint,
    # so no compiled function needs evaluate's exact helpers
    r = var("r")
    for bump, (inside, breakpoint) in ((bump_phi(), (Fraction(1, 4), Fraction(2))),
                                       (bump_psi_sc(), (Fraction(1, 2), Fraction(7, 8))),
                                       (bump_psi_f(), (Fraction(0), Fraction(-1)))):
        for t in (inside, breakpoint):
            v = evaluate(bump, {"r": t})
            assert type(v) is float and v in (0.0, 1.0)
        d = differentiate(bump, "r")
        for e in (bump, d, mul(d, powx(add(r, Const(Fraction(-1))), -2)),
                  powx(add(bump, ONE), Fraction(1, 2)), mul(bump, bump, r)):
            for fn in (compile_floats([e]), compile_margin([e], False, ("r",))):
                names = set(fn.__code__.co_names) | set(fn.__globals__)
                assert not names & {"_pow_value", "_unary_value",
                                    "_eval_piecewise"}


def test_compile_float_long_sum():
    # one flat Sum of 3000 terms; a single `a + b + ...` expression of that
    # length would exceed CPython's compiler recursion limit
    e = add(*[mul(Const(Fraction(k, 7)), powx(X, k % 5 + 1), Y)
              for k in range(1, 3001)])
    pt = {"x": 0.3, "y": -1.7}
    assert _same(("value", _compile_one(e)(pt)), ("value", float(evaluate(e, pt))))


def _same_values(a, b):
    if a[0] != "value" or b[0] != "value":
        return a == b
    return len(a[1]) == len(b[1]) and all(
        _same(("value", x), ("value", y)) for x, y in zip(a[1], b[1]))


def _copy(e):
    """A structurally equal copy of e that shares no node with it."""
    return pickle.loads(pickle.dumps(e))


def _rebuilt(e):
    """e rebuilt from its text: parse normalizes, so the result shares
    structure with e but not identity, and may differ from e as a whole."""
    try:
        return parse(ser(e))
    except ExprError:  # a raw 0^-k node, which powx refuses
        return _copy(e)


def test_compile_floats_matches_evaluate_entry_by_entry():
    rng = random.Random(20161)
    trees = [_random_tree(rng, rng.randint(1, 5)) for _ in range(400)]
    big = mul(exp(mul(Const(Fraction(400)), X)), exp(mul(Const(Fraction(401)), Y)))
    extras = [
        ZERO, Const(Fraction(1, 3)), Const(Fraction(10 ** 400)),  # constants
        powx(X, -1), powx(Y, Fraction(1, 2)),  # raise at x = 0, at y < 0
        add(X, mul(Const(Fraction(-1)), X)),  # 0.0
        big, add(big, mul(Const(Fraction(-1)), big)),  # inf, nan near 1
    ]
    seen = set()
    for k in range(0, len(trees), 4):
        exprs = trees[k:k + 4] + rng.sample(extras, rng.randint(0, 3))
        # copies equal to trees of the group but sharing no node with them
        exprs += [_copy(trees[k]), _rebuilt(trees[k + 1])]
        rng.shuffle(exprs)
        fn = compile_floats(exprs)
        for pt in _points(rng, ("x", "y"), 12):
            want = _outcome(lambda: [float(evaluate(e, pt)) for e in exprs])
            assert _same_values(_outcome(lambda: fn(pt)), want), (
                [ser(e) for e in exprs], pt, want)
            seen.add(want[0])
            if want[0] == "value":
                seen.update("zero" if v == 0 else "non-finite"
                            for v in want[1] if not v - v == 0.0 or v == 0)
    assert seen == {"value", "zero", "non-finite", "DomainError",
                    "OverflowError"}


def test_compile_floats_folds_constant_entries(monkeypatch):
    fn = compile_floats([ZERO, Const(Fraction(1, 3)), mul(Const(Fraction(-1)), ZERO),
                         exp(Const(Fraction(1)))])
    want = [0.0, 1 / 3, 0.0, math.e]

    def tree_walk(*args):
        raise AssertionError("constant entry evaluated per point")

    monkeypatch.setattr(floatcode, "evaluate", tree_walk)
    assert _same_values(("value", fn({})), ("value", want))
    assert compile_floats([])({}) == []


def _statements(fn):
    """The straight-line statements of compiled code: each assigns one v<k>."""
    return [n for n in fn.__code__.co_varnames if re.fullmatch(r"v\d+", n)]


def test_equal_subtrees_compile_to_one_statement():
    def build():  # a new tree on every call: equal, never identical
        return Prod((Sum((X, Y)), Exp(Sum((X, Y)))))

    one, other = build(), build()
    assert one == other and one is not other
    # x, y, x + y, exp(x + y), the product: the second x + y is the first
    assert len(_statements(compile_floats([one]))) == 5
    assert len(_statements(compile_floats([Sum((one, other))]))) == 6
    assert len(_statements(compile_margin([one, other], True, ("x", "y")))) == 5
    for bump in (bump_phi(), bump_psi_sc(), bump_psi_f()):
        d = differentiate(bump, "r")
        alone = len(_statements(compile_floats([d])))
        assert len(_statements(compile_floats([d, _copy(d)]))) == alone
        pt = {"r": 0.9}
        assert compile_floats([d, _copy(d)])(pt) == [float(evaluate(d, pt))] * 2


# -- grid kernels (compile_margin through certify_positive) against the
# per-point tree walk they replaced


def _tree_walk_verdict(margin, points, tol):
    """certify_positive as a loop over float(evaluate(...)) per point: an
    expression is a signed margin, a list is max |e| (0.0 when empty)."""
    least = math.inf
    for pt in points:
        witness = tuple(sorted(pt.items()))
        try:
            if isinstance(margin, list):
                v = nan_max((abs(float(evaluate(e, pt))) for e in margin),
                            default=0.0)
            else:
                v = float(evaluate(margin, pt))
        except DomainError as err:
            return "refuted", witness, None, f": undefined, {err}"
        if not v > tol:
            return "refuted", witness, _bits(v - tol), ""
        least = min(least, v)
    return "numerically-verified", None, _bits(least - tol), ""


def _kernel_verdict(margin, points, tol):
    cert = certify_positive(margin, points, tol)
    margin_bits = None if cert.min_margin is None else _bits(cert.min_margin)
    return cert.kind, cert.witness, margin_bits, cert.detail


def _bits(v):
    return "nan" if math.isnan(v) else (v, math.copysign(1.0, v))


def _margin_case(margin, points, tol):
    want = _outcome(lambda: _tree_walk_verdict(margin, points, tol))
    assert _outcome(lambda: _kernel_verdict(margin, points, tol)) == want, (
        margin, points, tol, want)
    return want


def test_grid_kernel_matches_the_tree_walk_on_random_trees():
    rng = random.Random(20165)
    big = mul(exp(mul(Const(Fraction(400)), X)), exp(mul(Const(Fraction(401)), Y)))
    extras = [Const(Fraction(10 ** 400)), big,  # too large for a float, inf
              add(big, mul(Const(Fraction(-1)), big))]  # nan near x = y = 1
    seen = set()
    for _ in range(300):
        trees = [_random_tree(rng, rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))]
        trees += rng.sample(extras, rng.randint(0, 1))
        rng.shuffle(trees)
        points = _points(rng, ("x", "y"), rng.randint(1, 30))
        tol = rng.choice([0.0, -0.0, 1e-8, 0.5, -1e-9, -4.0])
        for margin in (trees[0], trees):
            want = _margin_case(margin, points, tol)
            if want[0] != "value":
                seen.add(want[0])
            elif want[1][0] == "numerically-verified":
                seen.add("verified")
            elif want[1][2] is None:
                seen.add("undefined")
            else:
                m = want[1][2]
                seen.add("nan" if m == "nan" else "zero" if m[0] == 0 else "below")
    assert seen >= {"verified", "undefined", "nan", "zero", "below",
                    "OverflowError"}


_UNDEFINED_AT_0 = powx(X, -1)  # a pole at x = 0
_UNDEFINED_BELOW_0 = powx(Y, Fraction(1, 2))  # undefined for y < 0
# step(x) + y: compiled code hands back the step's exact breakpoint x = 0,
# where the tree walk gives its constant branch 0
_WALKED = Sum((_STEP, Y))


@pytest.mark.parametrize("margin, points, tol", [
    # a zero margin at +0.0 and -0.0, as 0.0 * -1.0 is -0.0
    (Prod((X, Y)), [{"x": 1.0, "y": 1.0}, {"x": -0.0, "y": 1.0}], 0.0),
    (Prod((X, Y)), [{"x": 1.0, "y": 1.0}, {"x": 0.0, "y": -1.0}], 0.0),
    (Prod((X, Y)), [{"x": 1.0, "y": 1.0}, {"x": 0.0, "y": -1.0}], -1e-9),
    ([Prod((X, Y)), Prod((Y, X))], [{"x": -0.0, "y": 1.0}], 0.0),
    # NaN: inf - inf, signed and in one slot of a magnitude
    (add(mul(exp(mul(Const(400), X)), exp(mul(Const(401), X))),
         mul(Const(-1), exp(mul(Const(400), X)), exp(mul(Const(401), X)))),
     [{"x": 0.5, "y": 0.0}, {"x": 1.0, "y": 0.0}], -4.0),
    ([ONE, mul(exp(mul(Const(400), X)), exp(mul(Const(401), X)),
               add(X, Const(-1)))], [{"x": 0.5, "y": 0.0}, {"x": 1.0, "y": 0.0}],
     1e-8),
    # the first undefined point in grid order wins, and in a magnitude the
    # first undefined entry in list order
    (Sum((_UNDEFINED_AT_0, _UNDEFINED_BELOW_0)),
     [{"x": 1.0, "y": 1.0}, {"x": 1.0, "y": -1.0}, {"x": 0.0, "y": 1.0}], -4.0),
    ([_UNDEFINED_AT_0, _UNDEFINED_BELOW_0],
     [{"x": 1.0, "y": 1.0}, {"x": 0.0, "y": -1.0}, {"x": 0.0, "y": 1.0}], 1e-8),
    ([_UNDEFINED_BELOW_0, _UNDEFINED_AT_0],
     [{"x": 1.0, "y": 1.0}, {"x": 0.0, "y": -1.0}, {"x": 0.0, "y": 1.0}], 1e-8),
    # resumes after a point the tree walk settles, then passes or refutes
    (_WALKED, [{"x": 0.0, "y": 1.0}, {"x": 1.0, "y": 2.0}, {"x": -1.0, "y": 4.0}],
     0.5),
    (_WALKED, [{"x": 1.0, "y": 2.0}, {"x": 0.0, "y": 1.0}, {"x": -1.0, "y": 0.25},
               {"x": 0.0, "y": 1.0}], 0.5),
    # an empty coefficient list is the margin 0.0 at every point
    ([], [{"x": 1.0, "y": 1.0}], 1e-8),
    ([], [{"x": 1.0, "y": 1.0}], 0.0),
    ([], [{"x": 1.0, "y": 1.0}, {"x": 2.0, "y": 1.0}], -1.0),
    # x / y + 1 at x = y = 0: the pole refutes after the zero factor
    (Sum((Prod((X, Pow(Y, Fraction(-1)))), ONE)),
     [{"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 2.0}], 0.5),
])
def test_grid_kernel_edge_cases(margin, points, tol):
    _margin_case(margin, points, tol)


def test_grid_kernel_resumes_after_a_tree_walk(monkeypatch):
    walked = []

    def counting(e, pt):
        walked.append(dict(pt))
        return evaluate(e, pt)

    monkeypatch.setattr(certificates, "evaluate", counting)
    pts = [{"x": 1.0, "y": 2.0}, {"x": 0.0, "y": 0.75}, {"x": -1.0, "y": 4.0},
           {"x": 2.0, "y": 1.0}]
    cert = certify_positive(_WALKED, pts, 0.5)
    assert cert.passed and cert.min_margin == 0.25
    assert walked == [{"x": 0.0, "y": 0.75}]
    # a zero under |.| or under + c is settled by the kernel
    walked.clear()
    zero = [{"x": 0.0, "y": 0.0}, {"x": -0.0, "y": 1.0}]
    assert certify_positive([X, ONE], zero, 0.5).min_margin == 0.5
    assert certify_positive(Sum((Prod((X, Y)), ONE)), zero, 0.5).passed
    assert walked == []


# -- exact normal forms


def test_exact_roots_of_large_rationals():
    # 10^400 does not fit a float; its square root is 10^200 exactly
    big = Fraction(10) ** 400
    assert powx(Const(big), Fraction(1, 2)) == Const(Fraction(10) ** 200)
    assert powx(Const(big / 3 ** 600), Fraction(-1, 2)) \
        == Const(Fraction(3) ** 300 / Fraction(10) ** 200)
    assert powx(Const(Fraction(2) ** 999), Fraction(2, 3)) == Const(Fraction(2) ** 666)
    assert isinstance(powx(Const(big + 1), Fraction(1, 2)), Pow)
    assert isinstance(powx(Const(big * 2), Fraction(1, 3)), Pow)
    e = mul(powx(Const(big), Fraction(3, 2)), X)
    assert canon(e) == mul(Const(Fraction(10) ** 600), X)
    assert parse("(pow 1" + "0" * 400 + " 1/2)") == Const(Fraction(10) ** 200)


def test_exact_roots_of_small_rationals():
    assert sqrt(Const(Fraction(9, 4))) == Const(Fraction(3, 2))
    assert powx(Const(Fraction(1, 8)), Fraction(2, 3)) == Const(Fraction(1, 4))
    assert powx(Const(Fraction(27)), Fraction(1, 3)) == Const(Fraction(3))
    assert powx(Const(Fraction(0)), Fraction(1, 2)) == ZERO
    assert isinstance(sqrt(Const(Fraction(2))), Pow)
    assert isinstance(sqrt(Const(Fraction(-4))), Pow)  # no real root taken


def _rationals(p):
    for mono, c in p:
        yield c
        for _, q in mono:
            yield q


def test_poly_coefficients_and_exponents_are_exact():
    # (2x)^-3 = x^-3 / 8: an int to a negative power would be a float
    assert poly(powx(mul(Const(Fraction(2)), X), -3)) == ((((X, -3),), Fraction(1, 8)),)
    exprs = [
        powx(mul(Const(Fraction(2)), X), -3),
        mul(powx(Const(Fraction(8, 27)), Fraction(2, 3)), X),
        mul(powx(Const(Fraction(2)), Fraction(1, 2)), powx(X, Fraction(3, 2))),
        powx(mul(Const(Fraction(3)), X, powx(Y, 2)), Fraction(-1, 2)),
        powx(add(X, ONE), -2),
        add(mul(Const(Fraction(1, 2)), X), mul(Const(Fraction(1, 2)), X)),
    ]
    rng = random.Random(20163)
    exprs += [_random_tree(rng, rng.randint(1, 4)) for _ in range(200)]
    for e in exprs:
        try:
            p = poly(e)
        except ExprError:  # a raw 0 ** -k node
            continue
        for v in _rationals(p):
            assert type(v) in (int, Fraction), (ser(e), v)


def test_canon_evaluates_like_the_tree():
    # exact rational points with x, y > 0, where the formal power rules
    # (a^p)^q = a^pq and (ab)^q = a^q b^q hold; canon may cancel a pole
    # (x/x is 1), so only points where the tree evaluates are compared
    rng = random.Random(20162)
    compared = 0
    for _ in range(400):
        e = _random_tree(rng, rng.randint(1, 5))
        try:
            c = canon(e)
        except ExprError:  # a raw 0 ** -k node
            continue
        for _ in range(6):
            pt = {n: Fraction(rng.randint(1, 40), rng.randint(1, 20))
                  for n in ("x", "y")}
            want = _outcome(lambda: float(evaluate(e, pt)))
            if want[0] != "value":
                continue
            # skip points where a 1e-12 nudge already moves the tree's value
            # (a float argument next to a jump of a random piecewise node)
            nudged = {n: float(v) * (1 + 1e-12) for n, v in pt.items()}
            near = _outcome(lambda: float(evaluate(e, nudged)))
            if near[0] != "value" or not math.isclose(near[1], want[1],
                                                      rel_tol=1e-6, abs_tol=1e-6):
                continue
            got = float(evaluate(c, pt))
            assert math.isclose(got, want[1], rel_tol=1e-9, abs_tol=1e-9), \
                (ser(e), pt, got, want)
            compared += 1
    assert compared > 2000


def _signed(rng):
    """An exact coordinate in (-40, 40), 0 one time in seven."""
    if rng.random() < 1 / 7:
        return Fraction(0)
    return Fraction(rng.randint(-799, 799), 20)


def _tame(e, pt) -> bool:
    """Whether e and each subtree outside its piece bodies evaluate at pt to
    at most 1e6 in size.  Where e evaluates, so does every such subtree
    (test_a_tree_that_evaluates_has_every_subtree_defined), but a zero
    factor can hide a large one; past 1e6 the order in which canon sums
    the float terms moves the last digits, which sin, exp or a jump of a
    piecewise node then blow up."""
    got = _outcome(lambda: float(evaluate(e, pt)))
    if got[0] != "value" or not abs(got[1]) <= 1e6:
        return False
    return all(_tame(a, pt) for a in _operands(e))


def test_canon_evaluates_like_the_tree_at_signed_points():
    # chart coordinates are negative on half of every chart, where
    # (a^p)^q = a^pq and (ab)^q = a^q b^q fail; wherever every node of the
    # tree evaluates to at most 1e6 in size, canon must evaluate too and give
    # the same value (at least 1,960 points compare at each seed 100-199)
    rng = random.Random(20164)
    compared = 0
    for _ in range(400):
        e = _random_tree(rng, rng.randint(1, 5))
        try:
            c = canon(e)
        except ExprError:  # canon refuses a raw 0 ** -k node
            continue
        for _ in range(6):
            pt = {n: _signed(rng) for n in ("x", "y")}
            if not _tame(e, pt):
                continue
            want = _outcome(lambda: float(evaluate(e, pt)))
            nudged = {n: float(v) * (1 + 1e-12) for n, v in pt.items()}
            near = _outcome(lambda: float(evaluate(e, nudged)))
            if near[0] != "value" or not math.isclose(near[1], want[1],
                                                      rel_tol=1e-6, abs_tol=1e-6):
                continue
            got = _outcome(lambda: float(evaluate(c, pt)))
            assert got[0] == "value" and math.isclose(
                got[1], want[1], rel_tol=1e-9, abs_tol=1e-9), \
                (ser(e), pt, got, want)
            compared += 1
    assert compared > 1500


def test_square_root_of_a_square_is_not_the_base():
    x = var("x")
    root = powx(mul(x, x), Fraction(1, 2))
    assert canon(root) != x
    assert is_zero(add(root, mul(-1, x)), {"x": (-1, 1)}).kind == "refuted"


def test_root_of_a_product_of_negatives_evaluates():
    x, y = var("x"), var("y")
    c = canon(powx(mul(x, y), Fraction(1, 2)))
    assert float(evaluate(c, {"x": Fraction(-1), "y": Fraction(-4)})) == 2.0


def test_even_power_under_a_fractional_power_is_kept():
    x = var("x")
    assert powx(powx(x, 2), Fraction(3, 2)) != powx(x, 3)


def test_root_of_a_negative_times_a_vanishing_root_evaluates():
    # x sqrt(y) is 0 at x = -1, y = 0, but x^(1/2) y^(1/4) is undefined
    x, y = var("x"), var("y")
    c = canon(sqrt(mul(x, sqrt(y))))
    assert float(evaluate(c, {"x": Fraction(-1), "y": Fraction(0)})) == 0.0


def test_kept_roots_of_monomials_multiply_back():
    # sqrt(x x) and sqrt(x y) stay opaque (a power and a product), but
    # squaring either gives the polynomial again
    x, y = var("x"), var("y")
    for m, box in ((mul(x, x), {"x": (-1, 1)}),
                   (mul(x, y), {"x": (-1, 1), "y": (-1, 1)})):
        root = powx(m, Fraction(1, 2))
        assert canon(mul(root, root)) == canon(m)
        assert is_zero(add(mul(root, root), mul(-1, m)), box).kind == "proven"


def test_node_hash_is_memoized_outside_eq_repr_and_pickle():
    e = add(mul(X, sin(Y)), powx(X, Fraction(1, 2)))
    twin = add(mul(X, sin(Y)), powx(X, Fraction(1, 2)))
    assert hash(e) == hash(twin) == hash(e)
    assert "_hash" in e.__dict__
    assert e == twin and repr(e) == repr(twin)
    assert "_hash" not in repr(e)
    state = e.__reduce_ex__(2)[2]
    assert "_hash" not in state
    back = pickle.loads(pickle.dumps(e))
    assert back == e and hash(back) == hash(e)


def test_collect_x_powers_grades_bare_x_powers_only():
    sq = powx(X, Fraction(1, 2))
    terms = [(2, add(mul(powx(X, -1), Y), mul(X, exp(X)), exp(sq)), "a"),
             (3, mul(-1, Y), "a"),  # cancels x^-1 y at k = 2
             (0, mul(X, X, Y), "b")]
    assert collect_x_powers(terms, "x") == {
        (1, "a"): exp(X), (2, "a"): exp(sq), (-2, "b"): Y}
    # a bare x at a fractional power has no integer pole order
    with pytest.raises(ExprError):
        collect_x_powers([(2, mul(Y, sq), "a")], "x")
    # without a Z coordinate every monomial stays at j = 0
    assert collect_x_powers(terms, None) == {
        (2, "a"): canon(terms[0][1]), (3, "a"): canon(terms[1][1]),
        (0, "b"): canon(terms[2][1])}


def test_only_expr_names_the_polynomial_internals():
    # make_form and is_smooth_section normalise through collect_x_powers
    pkg = Path(expr_module.__file__).resolve().parent
    private = re.compile(r"\b(_poly|_rebuild|_poly_add_into)\b")
    offenders = []
    for f in sorted(pkg.rglob("*.py")):
        text = f.read_text(encoding="utf-8")
        if "split_x_power" in text:
            offenders.append((f.name, "split_x_power"))
        if f.name != "expr.py" and private.search(text):
            offenders.append((f.name, private.search(text).group(0)))
    assert offenders == []


def test_canon_orders_powers_of_one_atom():
    # y1 and y1^2 share their atoms; their exponents break the tie
    y1 = var("y1")
    a = add(mul(22, y1), mul(-4, y1, y1))
    b = add(mul(-4, y1, y1), mul(22, y1))
    assert poly(a) == poly(b)
    assert canon(a) == canon(b)


def test_canon_ignores_summand_order():
    rng = random.Random(20161)
    checked = 0
    for _ in range(200):
        parts = [_random_tree(rng, rng.randint(1, 3))
                 for _ in range(rng.randint(2, 5))]
        shuffled = rng.sample(parts, len(parts))
        try:
            want = poly(add(*parts))
        except ExprError:  # canon refuses a raw 0^-k node
            continue
        assert poly(add(*shuffled)) == want
        assert canon(add(*shuffled)) == canon(add(*parts))
        checked += 1
    assert checked > 150


def test_products_expand_atoms_raised_to_a_plain_power():
    s = add(powx(X, -1), Y)
    root = powx(s, Fraction(1, 2))
    assert canon(mul(root, root)) == canon(s)
    assert canon(mul(root, Y, root, powx(s, -1))) == Y
    assert canon(powx(mul(Y, root), 2)) == canon(mul(Y, Y, s))
    assert canon(mul(sqrt(2), sqrt(2))) == Const(2)
    quarter = powx(4, Fraction(1, 4))
    assert canon(mul(quarter, quarter)) == Const(2)
    # a square root of a sum not raised to a plain power stays opaque
    assert poly(mul(root, root, root)) == ((((s, Fraction(3, 2)),), 1),)
