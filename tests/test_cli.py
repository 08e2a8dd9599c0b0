"""Command line surface: exit codes, report files, and determinism."""

import json

import pytest

from scatsym.catalog import build_example
from scatsym.cli import (
    EXIT_FAIL, EXIT_PARSE, EXIT_PASS, main,
)
from scatsym.geometry import form_to_json


@pytest.fixture
def form_file(tmp_path):
    rec = build_example("sc-darboux", n=1)
    path = tmp_path / "form.json"
    path.write_text(form_to_json(rec.omega))
    return str(path)


def test_verify_passes(form_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", form_file, "--flavor", "sc", "--out", str(out)])
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["result"]["type"] == "SymplecticReport"


def test_verify_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["verify", str(bad)]) == EXIT_PARSE


def test_verify_missing_file_exits_2(tmp_path):
    assert main(["verify", str(tmp_path / "absent.json")]) == EXIT_PARSE


def test_verify_no_go_exits_1(tmp_path):
    out = tmp_path / "nogo.json"
    code = main(["verify", "--no-go", "--m", "1", "--k", "0", "--dim", "4",
                 "--out", str(out)])
    assert code == EXIT_FAIL
    doc = json.loads(out.read_text())
    assert doc["result"]["refutes"] is True


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert "sc-sphere" in doc["examples"]


def test_catalog_run_unknown_exits_2():
    assert main(["catalog", "run", "nonsense"]) == EXIT_PARSE


def test_catalog_run_with_params(tmp_path):
    out = tmp_path / "cat.json"
    # catalog run reads --grid only, so --tol-nondeg is neither used nor
    # recorded
    code = main(["catalog", "run", "sc-darboux", "--param", "n=1",
                 "--tol-nondeg", "1e9", "--out", str(out)])
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["params"] == {"n": 1}
    assert doc["passed"] is True
    assert doc["config"] == {"grid": 17}


def test_cohomology_command(capsys):
    code = main(["cohomology", "--theorem", "bk-poisson",
                 "--profile", "bk-torus:2", "--p", "2", "--k", "1"])
    assert code == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["finite_rank"] == 6 + 2 * 3


def test_cohomology_bad_profile_exits_2():
    assert main(["cohomology", "--theorem", "sc-derham",
                 "--profile", "moebius:1", "--p", "1"]) == EXIT_PARSE


def test_cohomology_profile_file(tmp_path, capsys):
    prof = {"dim_m": 2, "betti_m": [1, 2, 1], "dim_z": 1,
            "betti_z": [1, 1], "z_components": 1, "tag": ""}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(prof))
    code = main(["cohomology", "--theorem", "sc-derham",
                 "--profile", str(path), "--p", "1"])
    assert code == EXIT_PASS


def test_decompose_command(form_file, capsys):
    code = main(["decompose", form_file])
    assert code == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["filling"]["filling"] is True
    assert doc["a"]["degree"] == 1


def test_glue_classic(tmp_path):
    out = tmp_path / "glue.json"
    code = main(["glue", "--kind", "classic", "--out", str(out)])
    assert code == EXIT_PASS


def test_reports_are_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["catalog", "run", "sc-darboux", "--param", "n=2",
                     "--seed", "99", "--out", str(out)])
        assert code == EXIT_PASS
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_undefined_coefficient_refutes_with_witness(tmp_path):
    # sqrt(y) dx^dy / x^3 is undefined for y < 0: the non-degeneracy scan
    # refutes at such a point and the report is still written
    doc = {"chart": {"names": ["x", "y"], "ranges": [[-1, 1], [-1, 1]],
                     "x": "x", "circles": []},
           "degree": 2, "kind": "form",
           "terms": [{"k": 3, "coeff": "(pow (var y) 1/2)",
                      "index": ["x", "y"]}]}
    form = tmp_path / "sqrt.json"
    form.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["verify", str(form), "--out", str(out)])
    assert code == EXIT_FAIL
    cert = json.loads(out.read_text())["result"]["nondegeneracy"]
    assert cert["kind"] == "refuted"
    assert dict(cert["witness"])["y"] < 0
