"""Command line surface: JSON verification reports with stable formatting.

Exit codes: 0 all checks pass, 1 verification failure, 2 unparseable input,
3 internal error.  Reports are written even when verification fails, so a
failing run still leaves a diffable artifact."""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .algebroids import coframe, no_go_check
from .catalog import (
    build_example, list_examples, run_example, s2xs1_contact, torus_contact,
)
from .certificates import DEFAULT_POINTS_PER_AXIS, Certificate, chart_grid
from .cohomology import BettiProfile, bk_poisson, sc_derham, sc_poisson
from .expr import DEFAULT_SEED, Expr, ExprError, Record, ser
from .geometry import SingularForm, form_from_json, form_to_json
from .gluing import (
    certify_folded_gluing, certify_sc_gluing, glue_concave_concave,
    glue_convex_concave, glue_convex_convex,
)
from .structures import (
    TOL_CLOSED, TOL_NONDEG, closedness, decompose, strong_filling_check,
    verify_sc_symplectic,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

_PARSE_ERRORS = (json.JSONDecodeError, KeyError, ValueError, TypeError,
                 FileNotFoundError, IsADirectoryError, ExprError)


def to_jsonable(obj):
    """Lower report objects to JSON-safe values; Exprs become S-expressions.

    Non-finite floats become the strings "nan", "inf" and "-inf", which
    keeps every report strict JSON (RFC 8259 has no NaN or Infinity)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Expr):
        return ser(obj)
    if isinstance(obj, SingularForm):
        return to_jsonable(json.loads(form_to_json(obj)))
    if isinstance(obj, Record):
        out = {"type": type(obj).__name__}
        for name in obj._fields:
            out[name] = to_jsonable(getattr(obj, name))
        if isinstance(obj, Certificate):
            # each part under its own name; Certificate rejects a part name
            # that collides with a field
            del out["parts"]
            for name, part in obj.parts:
                out[name] = to_jsonable(part)
        for name in ("passed", "is_zero", "refutes", "finite_rank"):
            prop = getattr(type(obj), name, None)
            if isinstance(prop, property):
                out[name] = to_jsonable(getattr(obj, name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(str(v) for v in obj)
    return str(obj)


def render_report(report: dict) -> str:
    return json.dumps(to_jsonable(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _config(args, *used) -> dict:
    return {name: getattr(args, name) for name in used}


def _refuse(args, mode: str, *names) -> None:
    """ValueError (exit 2) if the request gives one of names: mode reads none."""
    given = sorted(set(names).intersection(getattr(args, "given", ())))
    if given:
        raise ValueError(f"{mode} reads no --{given[0].replace('_', '-')}")


def _load_form(path: str) -> SingularForm:
    return form_from_json(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# command handlers: each returns (report dict, passed flag)


# the flavors whose coframe weights read --k or --m (algebroids.coframe)
_FLAVOR_PARAMS = {"sc^k": ("k",), "b^k": ("k",), "zero^m-b^k": ("k", "m")}


def _cmd_verify(args):
    if args.no_go:
        if args.form is not None:
            raise ValueError("--no-go reads no form file")
        _refuse(args, "verify --no-go", "flavor", "grid", "tol_closed",
                "tol_nondeg")
        rep = no_go_check(args.m, args.k, args.dim, seed=args.seed)
        report = {"command": "verify", "mode": "no-go",
                  "config": _config(args, "seed"),
                  "params": {"m": args.m, "k": args.k, "dim": args.dim},
                  "result": rep}
        # a refutation means the candidate flavor admits no symplectic form
        return report, not rep.refutes
    if args.form is None:
        raise ValueError("a form file is required unless --no-go is given")
    _refuse(args, "verify FORM", "dim")
    reads = _FLAVOR_PARAMS.get(args.flavor, ())
    _refuse(args, f"verify --flavor {args.flavor}",
            *(name for name in ("k", "m") if name not in reads))
    f = _load_form(args.form)
    used = _config(args, *reads)  # a flavor's coframe ignores the others
    frame = coframe(args.flavor, f.chart, k=used.get("k", 1),
                    m=used.get("m", 1))
    rep = verify_sc_symplectic(f, frame, chart_grid(f.chart, args.grid),
                               tol_closed=args.tol_closed,
                               tol_nondeg=args.tol_nondeg)
    report = {"command": "verify", "mode": "symplectic",
              "config": {**_config(args, "grid", "tol_closed", "tol_nondeg"),
                         **used},
              "flavor": args.flavor, "result": rep}
    return report, rep.passed


_CONTACTS = {"t3": torus_contact, "s2xs1": s2xs1_contact}


def _cmd_glue(args):
    if args.kind != "classic":
        _refuse(args, f"glue --kind {args.kind}", "tol_closed")
    contact = _CONTACTS[args.contact]()
    used = ("tol_closed",) if args.kind == "classic" else ()
    report = {"command": "glue", "kind": args.kind, "contact": args.contact,
              "config": _config(args, *used)}
    if args.kind == "sc":
        cert = certify_sc_gluing(glue_convex_convex(contact))
    elif args.kind == "folded":
        cert = certify_folded_gluing(glue_concave_concave(contact))
    else:  # classic: convex against concave, no inequality certificate needed
        glued = glue_convex_concave(contact)
        closed = closedness(glued.omega, tol=args.tol_closed)
        report["result"] = {"closed": closed, "omega": glued.omega}
        return report, closed.is_zero
    report["result"] = cert
    return report, cert.passed


def _load_profile(spec: str) -> BettiProfile:
    path = Path(spec)
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
        return BettiProfile(doc["dim_m"], tuple(doc["betti_m"]),
                            doc["dim_z"], tuple(doc["betti_z"]),
                            doc.get("z_components", 1), doc.get("tag", ""))
    kind, _, param = spec.partition(":")
    if kind == "torus" and param.isdigit():
        return BettiProfile.torus(int(param))
    if kind == "sphere" and param.isdigit():
        return BettiProfile.sphere(int(param))
    if kind == "bk-torus" and param.isdigit():
        return BettiProfile.bk_torus(int(param))
    raise ValueError(f"profile '{spec}' is neither a file nor one of "
                     "torus:D, sphere:N, bk-torus:N")


def _cmd_cohomology(args):
    used = {"sc-derham": (), "sc-poisson": ("n",),
            "bk-poisson": ("k",)}[args.theorem]
    _refuse(args, f"cohomology --theorem {args.theorem}",
            *(name for name in ("k", "n") if name not in used))
    profile = _load_profile(args.profile)
    if args.theorem == "sc-derham":
        rep = sc_derham(profile, args.p)
    elif args.theorem == "sc-poisson":
        if args.n is None:
            raise ValueError("sc-poisson requires --n (half the dimension)")
        rep = sc_poisson(profile, args.p, args.n)
    else:
        if args.k is None:
            raise ValueError("bk-poisson requires --k")
        rep = bk_poisson(profile, args.p, args.k)
    report = {"command": "cohomology", "theorem": args.theorem,
              "profile": profile, "p": args.p,
              "config": _config(args, *used), "result": rep}
    return report, True


def _cmd_catalog(args):
    if args.verb == "list":
        if args.name is not None or args.param:
            raise ValueError("catalog list takes no example name or --param")
        _refuse(args, "catalog list", "grid")
        return {"command": "catalog", "examples": list_examples()}, True
    if args.name is None:
        raise ValueError("catalog run requires an example name")
    params = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--param expects key=value, got '{item}'")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    rec = build_example(args.name, **params)
    rep = run_example(rec, per_axis=args.grid)
    report = {"command": "catalog", "config": _config(args, "grid"), **rep}
    return report, rep["passed"]


def _cmd_decompose(args):
    f = _load_form(args.form)
    a, b1, b2 = decompose(f)
    verdict = strong_filling_check(f, tol=args.tol_closed)
    report = {"command": "decompose", "config": _config(args, "tol_closed"),
              "a": a, "b1": b1, "b2": b2, "filling": verdict}
    return report, True


# ---------------------------------------------------------------------------
# parser


class _Given(argparse.Action):
    """Store the value and add the option to args.given (see _refuse)."""

    def __call__(self, parser, namespace, values, option_string):
        setattr(namespace, self.dest, values)
        namespace.given = {self.dest, *getattr(namespace, "given", ())}


def _seed_and_out(p: argparse.ArgumentParser) -> None:
    """--seed and --out.  Each subcommand takes --seed, read or not: the
    benchmark appends it to every request, and the determinism criterion
    passes it to catalog, glue and cohomology."""
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="write the JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatsym",
        description="verify singular symplectic, Poisson, and contact "
                    "structures on coordinate charts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a form file against a flavor")
    p.add_argument("form", nargs="?", help="JSON form file")
    p.add_argument("--flavor", default="sc", action=_Given,
                   help="coframe flavor, which fixes the weights of dx and "
                        "dy_j: b, zero, sc, sc^k, b^k or zero^m-b^k (k and "
                        "m from --k and --m)")
    p.add_argument("--k", type=int, default=1, action=_Given)
    p.add_argument("--m", type=int, default=1, action=_Given)
    p.add_argument("--dim", type=int, default=4, action=_Given)
    p.add_argument("--no-go", action="store_true", dest="no_go",
                   help="run the existence obstruction for (m, k, dim)")
    p.add_argument("--grid", type=int, default=DEFAULT_POINTS_PER_AXIS,
                   action=_Given,
                   help="grid points per axis (default %(default)s)")
    p.add_argument("--tol-closed", type=float, default=TOL_CLOSED,
                   action=_Given)
    p.add_argument("--tol-nondeg", type=float, default=TOL_NONDEG,
                   action=_Given)
    _seed_and_out(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("glue", help="glue two collars and certify the result")
    p.add_argument("--kind", choices=("sc", "folded", "classic"), default="sc")
    p.add_argument("--contact", choices=sorted(_CONTACTS), default="t3")
    p.add_argument("--tol-closed", type=float, default=TOL_CLOSED,
                   action=_Given)
    _seed_and_out(p)
    p.set_defaults(handler=_cmd_glue)

    p = sub.add_parser("cohomology", help="evaluate a cohomology formula")
    p.add_argument("--theorem", required=True,
                   choices=("sc-derham", "sc-poisson", "bk-poisson"))
    p.add_argument("--profile", required=True,
                   help="profile JSON file, or torus:D / sphere:N / bk-torus:N")
    p.add_argument("--p", type=int, required=True, help="cohomology degree")
    p.add_argument("--k", type=int, default=None, action=_Given)
    p.add_argument("--n", type=int, default=None, action=_Given)
    _seed_and_out(p)
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("catalog", help="run the worked-example registry")
    p.add_argument("verb", choices=("list", "run"))
    p.add_argument("name", nargs="?")
    p.add_argument("--param", action="append", default=[],
                   help="example parameter as key=value (repeatable)")
    p.add_argument("--grid", type=int, default=DEFAULT_POINTS_PER_AXIS,
                   action=_Given,
                   help="grid points per axis (default %(default)s)")
    _seed_and_out(p)
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("decompose", help="split a normal form into (a, b1, b2)")
    p.add_argument("form", help="JSON form file")
    p.add_argument("--tol-closed", type=float, default=TOL_CLOSED)
    _seed_and_out(p)
    p.set_defaults(handler=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code else EXIT_PASS
    try:
        report, passed = args.handler(args)
    except _PARSE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as e:  # noqa: BLE001 - last-resort exit code contract
        import traceback  # only on this path: it costs start-up otherwise
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        report, passed, code = {"command": args.command, "error": {
            "type": type(e).__name__, "message": str(e),
            "traceback": traceback.format_exc()}}, False, EXIT_INTERNAL
    else:
        code = EXIT_PASS if passed else EXIT_FAIL
    report["passed"] = passed
    text = render_report(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{'PASS' if passed else 'FAIL'} report written to {args.out}")
    else:
        sys.stdout.write(text)
    return code


def run() -> None:
    """The process entry point (`python -m scatsym.cli`, the `scatsym`
    script): main, then exit with its code.  Every object left lives until
    exit, so gc.freeze() spares the interpreter its final collection over
    them; sys.exit, unlike os._exit, still flushes stdio.  main itself
    never freezes, because tests and the benchmark tracer call it
    in-process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
