"""The worked-example registry: every record passes its expected checks."""

import pytest

from scatsym import catalog, certificates, examples
from scatsym.catalog import (
    CatalogError, build_example, list_examples, run_example,
)
from scatsym.examples import _float_check, sphere_slot_coefficient
from scatsym.certificates import refuted
from scatsym.expr import (
    Const, DomainError, add, canon, is_provably_zero, mul, powx, var,
)
from fractions import Fraction


def test_registry_names():
    names = list_examples()
    assert "sc-sphere" in names
    assert "t2xs2" in names
    assert len(names) == 11


def test_the_record_names_are_the_builders():
    # catalog list names the records without importing examples
    assert list(catalog.EXAMPLES) == sorted(examples.BUILDERS)


def test_unknown_name_rejected():
    with pytest.raises(CatalogError):
        build_example("klein-bottle")


def test_parameter_cap():
    with pytest.raises(CatalogError):
        build_example("sc-sphere", n=9)
    with pytest.raises(CatalogError):
        build_example("euclidean-end", n=0)


# the certificate kind of every check; a refactor must keep each one
V, P = "numerically-verified", "proven"
KINDS = {
    "b2-r-times-t3": {"closed-proven": P, "bk-symplectic": V,
                      "cosymplectic": V, "horizontal-example": P},
    "bk-torus": {"closed-proven": P, "bk-symplectic": V,
                 "cosymplectic": V, "symplectic-off-loci": V},
    "folded-darboux": {"folded": V},
    "sc-darboux": {"sc-symplectic": V, "filling": P, "dual-roundtrip": V},
    "sc-poisson-darboux": {"sc-symplectic": V, "darboux-dual": P,
                           "dual-jacobi": V, "dual-roundtrip": V},
    "symplectization": {"sc-symplectic": V, "filling": P,
                        "induced-contact": V, "dual-roundtrip": V},
    "torus-sc-folded": {"closed-proven": P, "loci": V,
                        "symplectic-off-loci": V},
    "euclidean-end": {"sc-symplectic": V, "filling": P,
                      "dual-jacobi": P, "dual-roundtrip": V},
    "sc-sphere": {"sc-symplectic": V, "sphere-coefficient": P,
                  "pole-symplectic": V, "dual-roundtrip": V},
    "t2xs2": {"contact": V, "collar": V, "sc-gluing": V,
              "folded-gluing": V, "glued-dual": V},
    "s3xs1": {"contact": V, "symplectic": V, "sc-gluing": V,
              "glued-dual": V},
}


@pytest.mark.parametrize("name,params", [
    ("b2-r-times-t3", {}),
    ("bk-torus", {"k": 2, "n": 1}),
    ("folded-darboux", {"n": 2}),
    ("sc-darboux", {"n": 2}),
    ("sc-poisson-darboux", {"n": 2}),
    ("symplectization", {"z": "s1"}),
    ("torus-sc-folded", {"m": 2, "n": 1}),
    ("euclidean-end", {"n": 1}),
    ("sc-sphere", {"n": 1}),
    ("t2xs2", {}),
    ("s3xs1", {}),
])
def test_fast_records_pass(name, params):
    rec = build_example(name, **params)
    rep = run_example(rec)
    failing = {k: v for k, v in rep["checks"].items() if not v["passed"]}
    assert rep["passed"], failing
    assert {k: v["kind"] for k, v in rep["checks"].items()} == KINDS[name]


def test_torus_sc_folded_loci():
    rec = build_example("torus-sc-folded", m=2, n=1)
    sc = rec.extras["sc_loci"]
    folds = rec.extras["fold_loci"]
    assert len(sc) == 4 and len(folds) == 4
    import math
    assert sc == pytest.approx([j * math.pi / 2 for j in range(4)])
    assert folds == pytest.approx([(2 * j + 1) * math.pi / 4 for j in range(4)])


def test_sphere_slot_coefficient_structure():
    rec = build_example("sc-sphere", n=1)
    got = sphere_slot_coefficient(rec.omega, "z", "y1")
    y1, z = var("y1"), var("z")
    x1 = powx(add(Const(Fraction(1)),
                  mul(Const(Fraction(-1)), powx(y1, 2)),
                  mul(Const(Fraction(-1)), powx(z, 2))), Fraction(1, 2))
    want = mul(Const(Fraction(-1)),
               add(x1, mul(powx(y1, 2), powx(x1, -1)),
                   mul(powx(z, 2), powx(x1, -1))))
    assert is_provably_zero(canon(add(got, mul(Const(Fraction(-1)), want))))


def test_float_check_refutes_nan_and_reports_slack():
    # max() alone would keep 0.0 and drop the NaN that follows it
    cert = _float_check([(0.0, {"t": 0}), (float("nan"), {"t": 1})], "d")
    assert not cert.passed and dict(cert.witness) == {"t": 1}
    cert = _float_check([(0.0, {"t": 0}), (1e-13, {"t": 1})], "d")
    assert cert.passed and cert.kind == "numerically-verified"
    assert cert.min_margin == pytest.approx(1e-12 - 1e-13)
    cert = _float_check([(1e-9, {"t": 0}), (0.0, {"t": 1})], "d")
    assert not cert.passed and cert.min_margin < 0


def test_pole_symplectic_refutes_before_evaluating_the_pole(monkeypatch):
    # a failed grid check is the verdict; the origin is not evaluated
    rec = build_example("sc-sphere", n=1)

    def undefined(*_):
        raise DomainError("undefined at the pole")

    monkeypatch.setattr(examples, "certify_symplectic",
                        lambda *_: refuted({}, detail="form not closed"))
    monkeypatch.setattr(examples, "evaluate_form", undefined)
    cert = examples._run_check(rec, "pole-symplectic", 3)
    assert not cert.passed and cert.detail == "form not closed"


def test_folded_check_reads_the_grid():
    # folded-darboux n=2 folds along x1 = 0, whose chart is 3-D
    cert = examples._run_check(build_example("folded-darboux"), "folded", 3)
    assert dict(cert.parts)["transversal"].grid_points == 3 ** 3


def test_cosymplectic_check_certifies_on_one_grid(monkeypatch):
    # extraction certifies nothing, so only the check's own grid is scanned
    sizes = []
    real = certificates.certify_positive

    def counting(margin, points, *args, **kwargs):
        sizes.append(len(points))
        return real(margin, points, *args, **kwargs)

    monkeypatch.setattr(certificates, "certify_positive", counting)
    cert = examples._run_check(build_example("bk-torus"), "cosymplectic", 3)
    assert cert.passed and sizes == [3 ** 3]
