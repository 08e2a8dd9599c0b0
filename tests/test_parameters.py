"""Every defaulted parameter of the package has a setter in the package.

A parameter that no call sets is a constant written as a knob: each check
on the paper's fixed objects needs one tolerance, one sample count and one
grid.  So every defaulted parameter of a `def` under src/scatsym must be
passed, by keyword or by position, at some call in src/scatsym of a
function of that name.  Tests do not count as setters.
"""

import ast
import functools
from pathlib import Path

import scatsym
from scatsym import examples

PACKAGE = Path(scatsym.__file__).resolve().parent

# (module, function, parameter) -> why it stays without a package setter
EXEMPT = {
    ("algebroids", "nondegenerate", "grid"): "the benchmark tracer names "
        "nondegenerate; it goes once the tracer drops it",
    ("algebroids", "nondegenerate", "tol"): "as grid",
    ("cli", "main", "argv"): "the command line entry point; its callers "
        "are python -m, the tests and the benchmark tracer",
    ("expr", "__init_subclass__", "uncompared"): "set by a class keyword, "
        "class X(Record, uncompared=...)",
    # the quotient-complex checks of criteria 05/06, which set n_samples;
    # computing the groups themselves is to replace them
    ("quotient", "quotient_kernel_check_sc", "n_samples"): "criteria 05",
    ("quotient", "quotient_kernel_check_sc", "tol"): "criteria 05",
    ("quotient", "quotient_kernel_check_rigged", "n_samples"): "criteria 06",
    ("quotient", "quotient_kernel_check_rigged", "tol"): "criteria 06",
    ("quotient", "_check_xi_support", "tol"): "criteria 06",
    ("quotient", "rigged_closed_representative", "tol"): "criteria 06",
    ("quotient", "d_h_squared_check", "tol"): "criteria 06",
}
# catalog builders: `catalog run --param key=value` sets them through
# build_example(name, **params)
BUILDERS = {fn.__name__ for fn in examples.BUILDERS.values()}


@functools.cache
def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _defaulted(trees):
    """(module, function, parameter, position) of every defaulted
    parameter; position counts the arguments a call passes (self and cls
    excluded) and is None for a keyword-only parameter."""
    out = []
    for module, tree in trees.items():
        methods = {id(item) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body
                   if isinstance(item, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod"
                               for d in item.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if id(node) in methods else 0
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                out.append((module, node.name, positional[i].arg, i - skip))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append((module, node.name, arg.arg, None))
    return out


def _calls(trees):
    """{function name: [(positional count, keyword names), ...]} over every
    call in the package, by the called name or attribute."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    positional = sum(not isinstance(a, ast.Starred)
                                     for a in node.args)
                    keywords = {k.arg for k in node.keywords}
                    out.setdefault(name, []).append((positional, keywords))
    return out


def test_every_defaulted_parameter_is_set_by_a_package_call():
    trees = _trees()
    calls = _calls(trees)
    unset = []
    for module, function, param, position in _defaulted(trees):
        if (module, function, param) in EXEMPT or function in BUILDERS:
            continue
        if not any(param in keywords
                   or position is not None and positional > position
                   for positional, keywords in calls.get(function, ())):
            unset.append(f"{module}.{function}({param})")
    assert unset == []


def test_every_exemption_names_a_defaulted_parameter():
    # an exemption outliving its parameter would hide a knob growing back
    found = {entry[:3] for entry in _defaulted(_trees())}
    assert set(EXEMPT) <= found
