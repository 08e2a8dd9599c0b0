"""Seeded inputs for the benchmark workloads.

A workload is a list of `Request`s: an id that names its expected verdict
in `expected.json`, and the argv handed to `python -m scatsym.cli`.  The
seed draws every free parameter and the two scaled form files, so one seed
always gives the same requests.  Every draw stays where the paper's
statements fix the verdict, so `expected.json` holds one verdict per id.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Request:
    id: str
    argv: tuple


# The sc Darboux normal form in dimension 4 (catalog record sc-darboux,
# n=2): dx1/x1^3 ^ (dy1 + y2 dx2 - x2 dy2) + dx2 ^ dy2 / x1^2, with x1 the
# defining function of Z.
SC_NORMAL_FORM = {
    "names": ["x1", "y1", "x2", "y2"],
    "ranges": [[-0.5, 0.5]] * 4,
    "x": "x1",
    "circles": [],
    "terms": [(3, "(var y2)", ["x1", "x2"]),
              (3, "1", ["x1", "y1"]),
              (3, "(mul -1 (var x2))", ["x1", "y2"]),
              (2, "1", ["x2", "y2"])],
}

# The b^2 normal form on R x T^3 (catalog record bk-torus, k=2, n=2):
# dx/x^2 ^ dphi + du1 ^ dv1.
BK_NORMAL_FORM = {
    "names": ["x", "phi", "u1", "v1"],
    "ranges": [[-0.5, 0.5]] + [[0.0, 2.0 * math.pi]] * 3,
    "x": "x",
    "circles": ["phi", "u1", "v1"],
    "terms": [(2, "1", ["x", "phi"]),
              (0, "1", ["u1", "v1"])],
}


def scaled_form_json(form: dict, c: Fraction) -> str:
    """The form multiplied by the nonzero rational c, in the CLI's format.

    Scaling keeps closedness, the pole orders and non-degeneracy, so every
    verdict on the scaled form equals the one on the normal form."""
    if c == 0:
        raise ValueError("scale must be nonzero")
    doc = {
        "chart": {"names": form["names"], "ranges": form["ranges"],
                  "x": form["x"], "circles": form["circles"]},
        "degree": 2,
        "kind": "form",
        "terms": [{"k": k, "coeff": f"(mul {c} {coeff})", "index": idx}
                  for k, coeff, idx in form["terms"]],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def _grid_certify(rng, workdir):
    return [
        Request("sc-sphere", ("catalog", "run", "sc-sphere", "--param", "n=2")),
        Request("glue-sc-t3", ("glue", "--kind", "sc", "--contact", "t3")),
        Request("glue-folded-t3", ("glue", "--kind", "folded", "--contact", "t3")),
    ]


def _dual_check(rng, workdir):
    return [
        Request("euclidean-end",
                ("catalog", "run", "euclidean-end", "--param", "n=2")),
        Request("sc-poisson-darboux",
                ("catalog", "run", "sc-poisson-darboux", "--param", "n=3")),
    ]


def _no_go(rng, dim):
    m, k = rng.randint(1, 3), rng.choice([0, 2, 3])
    return Request(f"no-go-dim{dim}",
                   ("verify", "--no-go", "--m", str(m), "--k", str(k),
                    "--dim", str(dim)))


def _symbolic_sweep(rng, workdir):
    sc_file = workdir / "sc-normal-form.json"
    bk_file = workdir / "bk-normal-form.json"
    sc_file.write_text(scaled_form_json(SC_NORMAL_FORM, _nonzero_rational(rng)),
                       encoding="utf-8")
    bk_file.write_text(scaled_form_json(BK_NORMAL_FORM, _nonzero_rational(rng)),
                       encoding="utf-8")
    return [
        Request("catalog-list", ("catalog", "list")),
        _no_go(rng, 8),
        _no_go(rng, 6),
        _no_go(rng, 4),
        Request("no-go-outside",
                ("verify", "--no-go", "--m", str(rng.randint(1, 3)),
                 "--k", "1", "--dim", str(rng.choice([4, 6])))),
        Request("sc-poisson-darboux",
                ("catalog", "run", "sc-poisson-darboux", "--param", "n=3")),
        Request("sc-darboux", ("catalog", "run", "sc-darboux", "--param", "n=3")),
        Request("bk-torus", ("catalog", "run", "bk-torus", "--param", "n=3",
                             "--param", f"k={rng.randint(1, 4)}")),
        Request("torus-sc-folded",
                ("catalog", "run", "torus-sc-folded", "--param", "n=2",
                 "--param", f"m={rng.randint(1, 4)}")),
        Request("symplectization",
                ("catalog", "run", "symplectization", "--param", "z=t3")),
        Request("folded-darboux",
                ("catalog", "run", "folded-darboux", "--param", "n=4")),
        Request("b2-r-times-t3", ("catalog", "run", "b2-r-times-t3")),
        Request("glue-classic-s2xs1",
                ("glue", "--kind", "classic", "--contact", "s2xs1")),
        Request("cohomology-bk-poisson",
                ("cohomology", "--theorem", "bk-poisson", "--profile",
                 "bk-torus:2", "--p", "2", "--k", "3")),
        Request("cohomology-sc-derham",
                ("cohomology", "--theorem", "sc-derham", "--profile", "torus:4",
                 "--p", "1")),
        Request("verify-sc-file", ("verify", sc_file.name, "--flavor", "sc")),
        Request("decompose-sc-file", ("decompose", sc_file.name)),
        Request("verify-bk-file",
                ("verify", bk_file.name, "--flavor", "b^k", "--k", "2")),
    ]


WORKLOADS = {
    "grid-certify": _grid_certify,
    "dual-check": _dual_check,
    "symbolic-sweep": _symbolic_sweep,
}


def generate(workload: str, seed: int, workdir: Path) -> list:
    """The workload's requests for this seed; form files go to workdir,
    which is also the working directory of every request."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    return WORKLOADS[workload](random.Random(seed), workdir)
