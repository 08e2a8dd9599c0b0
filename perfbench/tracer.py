"""Traced entry point: one scatsym CLI request with timing wrappers.

    python3 perfbench/tracer.py TRACE_OUT CLI_ARG...

runs `scatsym.cli.main(CLI_ARG...)` with the public functions of every
layer rebound to timing wrappers, then writes the trace to TRACE_OUT and
exits with the CLI's exit code.  Nothing under `src/` changes: each
function is rebound in its defining module and in every scatsym module that
imported it by name.

Only the outermost call of a function is timed; calls it makes to itself,
directly or through other wrapped functions, run unwrapped inside it.  The
hot functions (`HOT`) add to counters only; every other timed call also
leaves a span (id, parent id, name, start, end) in memory, written when the
request ends.  A name's self time is its time minus the time of the timed
calls made inside it, so the self times of all names sum to the root span,
`cli.main`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function, metric name); names shared by several functions
# aggregate them
TARGETS = (
    ("expr", "evaluate", "expr.evaluate"),
    ("expr", "evaluate_dag", "expr.evaluate_dag"),
    ("expr", "differentiate", "expr.differentiate"),
    ("expr", "canon", "expr.canon"),
    ("expr", "poly", "expr.poly"),
    ("expr", "is_zero", "expr.is_zero"),
    ("geometry", "make_form", "geometry.make_form"),
    ("geometry", "wedge", "geometry.wedge"),
    ("geometry", "exterior_derivative", "geometry.exterior_derivative"),
    ("geometry", "evaluate_form", "geometry.evaluate_form"),
    ("geometry", "forms_equal", "geometry.forms_equal"),
    ("linalg", "sym_det", "linalg.sym_det"),
    ("linalg", "sym_adjugate", "linalg.sym_adjugate"),
    ("linalg", "sym_inverse", "linalg.sym_inverse"),
    ("certificates", "certify_positive", "certificates.certify_positive"),
    ("certificates", "chart_grid", "certificates.chart_grid"),
    ("certificates", "refuted", "certificates.refuted"),
    ("algebroids", "nondegenerate", "algebroids.nondegenerate"),
    ("algebroids", "no_go_check", "algebroids.no_go_check"),
    ("structures", "dual_jacobi_check", "structures.dual_jacobi_check"),
    ("structures", "dual_roundtrip_check", "structures.dual_roundtrip_check"),
    ("structures", "closedness", "structures.closedness"),
    ("structures", "verify_sc_symplectic", "structures.verify_sc_symplectic"),
    ("structures", "verify_folded", "structures.verify_folded"),
    ("gluing", "certify_sc_gluing", "gluing.certify_sc_gluing"),
    ("gluing", "certify_folded_gluing", "gluing.certify_folded_gluing"),
    ("gluing", "glue_convex_convex", "gluing.glue"),
    ("gluing", "glue_concave_concave", "gluing.glue"),
    ("gluing", "glue_convex_concave", "gluing.glue"),
    ("cohomology", "sc_derham", "cohomology.formula"),
    ("cohomology", "sc_poisson", "cohomology.formula"),
    ("cohomology", "bk_poisson", "cohomology.formula"),
    ("catalog", "build_example", "catalog.build_example"),
    ("catalog", "run_example", "catalog.run_example"),
    ("cli", "render_report", "cli.render_report"),
    ("cli", "main", "cli.main"),
)
HOT = frozenset({"expr.evaluate", "expr.evaluate_dag", "geometry.evaluate_form",
                 "certificates.refuted"})
# recursive: during an outermost call the defining module holds the
# original again, so calls to itself skip the wrapper entirely
RECURSIVE = frozenset({"expr.evaluate", "expr.evaluate_dag",
                       "expr.differentiate", "expr.canon", "expr.poly",
                       "linalg.sym_det"})
ROOT = "cli.main"
CACHED = ("canon", "poly", "free_vars")


class Tracer:
    """Per-name call counts and inclusive/self seconds, plus spans."""

    def __init__(self):
        self.stats = {}  # name -> [calls, incl_s, self_s]
        self.counts = Counter()
        self.spans = []  # [id, parent id, name, start, end]
        self.linalg_results = []
        self._stack = []  # open timed calls: [child seconds, span id]

    def wrap(self, name, fn, home=None):
        """fn timed under `name`; `home` = (module, attribute, original) is
        restored for the duration of each outermost call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans = self._stack, self.spans
        hot = name in HOT
        clock = time.perf_counter
        active = False

        def timed(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            if home:
                setattr(home[0], home[1], home[2])
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent if hot else len(spans)]
            if not hot:
                spans.append(None)  # reserve this call's span id
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active = False
                if home:
                    setattr(home[0], home[1], timed)
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if not hot:
                    spans[frame[1]] = [frame[1], parent, name, t0, t1]

        timed.__wrapped__ = fn
        return timed

    def count_points(self, fn):
        """certify_positive with its grid size counted."""
        def counted(f, points, *args, **kwargs):
            points = list(points)
            self.counts["certificates.certify_positive.points"] += len(points)
            return fn(f, points, *args, **kwargs)
        return counted

    def count_certificate_points(self, fn, key):
        def counted(*args, **kwargs):
            cert = fn(*args, **kwargs)
            self.counts[key] += cert.grid_points
            return cert
        return counted

    def count_samples(self, fn):
        """is_zero with the points it evaluated counted: each sample is one
        outermost `evaluate` call."""
        evaluate = self.stats.setdefault("expr.evaluate", [0, 0.0, 0.0])

        def counted(*args, **kwargs):
            before = evaluate[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts["expr.is_zero.samples"] += evaluate[0] - before
        return counted

    def keep_result(self, fn):
        def kept(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.linalg_results.append(out)
            return out
        return kept

    def install(self, modules):
        """Rebind every target in each module that holds it by name."""
        for modname, attr, name in TARGETS:
            orig = getattr(modules[modname], attr)
            fn = orig
            if name == "certificates.certify_positive":
                fn = self.count_points(fn)
            elif name in ("structures.dual_jacobi_check",
                          "structures.dual_roundtrip_check"):
                fn = self.count_certificate_points(fn, name + ".points")
            elif name == "expr.is_zero":
                fn = self.count_samples(fn)
            elif modname == "linalg":
                fn = self.keep_result(fn)
            home = (modules[modname], attr, orig) if name in RECURSIVE else None
            timed = self.wrap(name, fn, home)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, timed)

    def report(self, caches) -> dict:
        return {
            "stats": self.stats,
            "counts": dict(self.counts),
            "caches": {name: c.cache_info()._asdict()
                       for name, c in caches.items()},
            "linalg_result_nodes": distinct_nodes(self.linalg_results),
            "spans": self.spans,
        }


def distinct_nodes(results) -> int:
    """Distinct expression nodes reachable from the given results, which
    are expressions or (nested) lists of them."""
    from scatsym.expr import PiecewiseDecay, Pow, Prod, Sum
    seen = set()
    stack = list(results)
    while stack:
        e = stack.pop()
        if isinstance(e, (list, tuple)):
            stack.extend(e)
            continue
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, (Sum, Prod)):
            stack.extend(e.args)
        elif isinstance(e, Pow):
            stack.append(e.base)
        elif isinstance(e, PiecewiseDecay):
            stack.append(e.arg)
            stack.extend(p.expr for p in e.pieces)
        elif hasattr(e, "arg"):  # Exp, Sin, Cos
            stack.append(e.arg)
    return len(seen)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import scatsym.cli
    modules = {name.split(".", 1)[1] if "." in name else "": mod
               for name, mod in list(sys.modules.items())
               if name == "scatsym" or name.startswith("scatsym.")}
    caches = {name: getattr(modules["expr"], name) for name in CACHED}
    tracer = Tracer()
    tracer.install(modules)
    code = scatsym.cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(caches), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
