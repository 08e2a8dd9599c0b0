"""Command line surface: exit codes, report files, and determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scatsym import cli
from scatsym.catalog import build_example
from scatsym.cli import (
    EXIT_FAIL, EXIT_INTERNAL, EXIT_PARSE, EXIT_PASS, build_parser, main,
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
    assert doc["result"]["type"] == "Certificate"


def test_internal_error_leaves_a_report(monkeypatch, tmp_path, capsys):
    def broken(args):
        raise RuntimeError("handler broke")

    monkeypatch.setattr(cli, "_cmd_cohomology", broken)
    argv = ["cohomology", "--theorem", "sc-derham", "--profile", "torus:4",
            "--p", "1"]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == EXIT_INTERNAL
    assert "internal error: RuntimeError: handler broke" in \
        capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["command"] == "cohomology" and doc["passed"] is False
    assert doc["error"]["type"] == "RuntimeError"
    assert doc["error"]["message"] == "handler broke"
    assert "handler broke" in doc["error"]["traceback"]
    assert main(argv) == EXIT_INTERNAL  # without --out, on stdout
    assert json.loads(capsys.readouterr().out) == doc


def test_verify_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["verify", str(bad)]) == EXIT_PARSE


def test_verify_fractional_bare_x_exits_2(form_file, tmp_path):
    # x1 is the chart's Z coordinate: x1^(1/2) has no pole order
    doc = json.loads(open(form_file).read())
    doc["terms"][0]["coeff"] = "(pow (var x1) 1/2)"
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["verify", str(path), "--out", str(out)]) == EXIT_PARSE
    assert not out.exists()


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


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_catalog_run_empty_grid_exits_2(grid):
    # a grid of no points certifies nothing; it used to pass the record
    assert main(["catalog", "run", "sc-darboux", "--param", "n=1",
                 "--grid", grid]) == EXIT_PARSE


@pytest.mark.parametrize("argv, message", [
    (["sc-darboux", "--param", "q=1"],
     "example 'sc-darboux' has no parameter 'q'; it takes n"),
    (["bk-torus", "--param", "n=2", "--param", "j=1"],
     "example 'bk-torus' has no parameter 'j'; it takes k, n"),
    (["t2xs2", "--param", "n=1"],
     "example 't2xs2' has no parameter 'n'; it takes none"),
    (["sc-darboux", "--param", "n=abc"], "parameter n=abc is not an integer"),
    (["sc-darboux", "--param", "n=9"], "parameter n=9 outside [1, 4]"),
], ids=["unknown-key", "unknown-second-key", "no-parameters", "not-an-integer",
        "out-of-range"])
def test_catalog_run_names_a_bad_parameter(argv, message, capsys):
    # the error names the example and what it takes; no report is written
    assert main(["catalog", "run", *argv]) == EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_catalog_run_with_params(tmp_path):
    out = tmp_path / "cat.json"
    code = main(["catalog", "run", "sc-darboux", "--param", "n=1",
                 "--out", str(out)])
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["params"] == {"n": 1}
    assert doc["passed"] is True
    assert doc["config"] == {"grid": 17}


def test_glued_dual_reports_both_of_its_checks(tmp_path):
    # the round trip is a part beside Jacobi, not only a failure fallback
    out = tmp_path / "t2xs2.json"
    assert main(["catalog", "run", "t2xs2", "--out", str(out)]) == EXIT_PASS
    dual = json.loads(out.read_text())["checks"]["glued-dual"]
    assert dual["type"] == "Certificate" and dual["passed"] is True
    for part in ("jacobi", "roundtrip"):
        assert dual[part]["kind"] == "numerically-verified"
        assert dual[part]["grid_points"] == 100


_COHOMOLOGY =["cohomology", "--theorem", "sc-derham", "--profile", "torus:4",
               "--p", "1"]


# a report request of each subcommand; FORM stands for a form file
_REQUESTS = {
    "glue": ["glue"],
    "cohomology": _COHOMOLOGY,
    "catalog": ["catalog", "run", "sc-darboux", "--param", "n=1"],
    "decompose": ["decompose", "FORM"],
}
_UNREAD_FLAGS = [("glue", "--grid"), ("glue", "--tol-nondeg"),
                 ("catalog", "--tol-closed"), ("catalog", "--tol-nondeg"),
                 ("cohomology", "--grid"), ("cohomology", "--tol-closed"),
                 ("cohomology", "--tol-nondeg"),
                 ("decompose", "--grid"), ("decompose", "--tol-nondeg")]

# a request of each mode, with the options of its subcommand that the mode
# refuses because it does not read them
_MODES = {
    "verify FORM": (["verify", "FORM"], ["--dim", "--k", "--m"]),
    "verify FORM --flavor b^k": (["verify", "FORM", "--flavor", "b^k"],
                                 ["--dim", "--m"]),
    "verify FORM --flavor zero^m-b^k": (
        ["verify", "FORM", "--flavor", "zero^m-b^k"], ["--dim"]),
    "verify --no-go": (["verify", "--no-go", "--m", "1", "--k", "0",
                        "--dim", "4"],
                       ["--flavor", "--grid", "--tol-closed", "--tol-nondeg"]),
    "glue --kind sc": (["glue", "--kind", "sc"], ["--tol-closed"]),
    "glue --kind folded": (["glue", "--kind", "folded"], ["--tol-closed"]),
    "glue --kind classic": (["glue", "--kind", "classic"], []),
    "cohomology --theorem sc-derham": (_COHOMOLOGY, ["--k", "--n"]),
    "cohomology --theorem sc-poisson": (
        ["cohomology", "--theorem", "sc-poisson", "--profile", "torus:4",
         "--p", "1", "--n", "2"], ["--k"]),
    "cohomology --theorem bk-poisson": (
        ["cohomology", "--theorem", "bk-poisson", "--profile", "bk-torus:2",
         "--p", "2", "--k", "1"], ["--n"]),
    "catalog list": (["catalog", "list"], ["--grid"]),
    "catalog run": (_REQUESTS["catalog"], []),
    "decompose": (_REQUESTS["decompose"], []),
}

# (id, request, flag): the options no mode of a subcommand declares, then
# those a mode refuses
_UNREAD = ([(f"{command} {flag}", _REQUESTS[command], flag)
            for command, flag in _UNREAD_FLAGS]
           + [(f"{mode} {flag}", argv, flag)
              for mode, (argv, refused) in _MODES.items()
              for flag in refused])


def _with_form(argv, form_file):
    return [form_file if a == "FORM" else a for a in argv]


@pytest.mark.parametrize("argv, flag", [u[1:] for u in _UNREAD],
                         ids=[u[0] for u in _UNREAD])
def test_a_flag_the_subcommand_does_not_read_exits_2(argv, flag, form_file,
                                                     tmp_path):
    out = tmp_path / "report.json"
    argv = _with_form(argv, form_file)
    assert main([*argv, flag, "1", "--out", str(out)]) == EXIT_PARSE
    assert not out.exists()


_IGNORED_INPUTS = [["catalog", "list", "sc-darboux"],
                   ["catalog", "list", "--param", "n=1"],
                   ["verify", "FORM", "--no-go"]]


@pytest.mark.parametrize("argv", _IGNORED_INPUTS,
                         ids=[" ".join(argv) for argv in _IGNORED_INPUTS])
def test_an_input_the_mode_ignores_exits_2(argv, form_file, tmp_path):
    out = tmp_path / "report.json"
    argv = _with_form(argv, form_file)
    assert main([*argv, "--out", str(out)]) == EXIT_PARSE
    assert not out.exists()


def _subparsers(parser):
    (action,) = (a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _options_read(argv, monkeypatch):
    """The attributes that main reads from the parsed arguments of argv,
    after parsing."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = build_parser()
    parse = parser.parse_args

    def parse_recording(args):
        namespace = parse(args, Recording())
        reads.clear()
        return namespace

    monkeypatch.setattr(parser, "parse_args", parse_recording)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert main(argv) in (EXIT_PASS, EXIT_FAIL), argv
    return reads


@pytest.mark.parametrize("command", sorted(_subparsers(build_parser())))
def test_every_option_of_a_subcommand_is_read(command, form_file, tmp_path,
                                              monkeypatch):
    # each mode reads every option it accepts, and refuses the others
    # (test_a_flag_the_subcommand_does_not_read_exits_2); --seed is exempt
    # because the benchmark appends it to every request
    out = str(tmp_path / "report.json")
    dests = {a.dest for a in _subparsers(build_parser())[command]._actions
             if a.dest != "help"}
    modes = [m for m in _MODES.values() if m[0][0] == command]
    assert modes
    for argv, refused in modes:
        read = _options_read(_with_form([*argv, "--out", out], form_file),
                             monkeypatch)
        refused = {flag[2:].replace("-", "_") for flag in refused}
        assert dests - read - refused <= {"seed"}, argv
        assert not refused & read, argv


def test_cohomology_command(capsys):
    code = main(["cohomology", "--theorem", "bk-poisson",
                 "--profile", "bk-torus:2", "--p", "2", "--k", "1"])
    assert code == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["finite_rank"] == 6 + 2 * 3


@pytest.mark.parametrize("argv, config", [
    (["--theorem", "bk-poisson", "--profile", "bk-torus:2", "--p", "2",
      "--k", "3"], {"k": 3}),
    (["--theorem", "sc-poisson", "--profile", "torus:4", "--p", "1",
      "--n", "2"], {"n": 2}),
    (["--theorem", "sc-derham", "--profile", "torus:4", "--p", "1"], {}),
], ids=["bk-poisson", "sc-poisson", "sc-derham"])
def test_cohomology_echoes_what_it_reads(argv, config, capsys):
    assert main(["cohomology", *argv]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["config"] == config


@pytest.mark.parametrize("flavor, given, echoed", [
    ("sc", [], {}),
    ("sc^k", ["--k", "2"], {"k": 2}),
    ("b^k", ["--k", "3"], {"k": 3}),
    ("zero^m-b^k", ["--k", "2", "--m", "3"], {"k": 2, "m": 3}),
    ("zero^m-b^k", [], {"k": 1, "m": 1}),
])
def test_verify_echoes_the_k_and_m_its_flavor_reads(flavor, given, echoed,
                                                    form_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", form_file, "--flavor", flavor, *given,
                 "--out", str(out)])
    assert code in (EXIT_PASS, EXIT_FAIL)
    config = json.loads(out.read_text())["config"]
    assert {k: v for k, v in config.items() if k in ("k", "m")} == echoed


def test_cohomology_bad_profile_exits_2():
    assert main(["cohomology", "--theorem", "sc-derham",
                 "--profile", "moebius:1", "--p", "1"]) == EXIT_PARSE


@pytest.mark.parametrize("profile", ["torus:0", "sphere:0"])
def test_cohomology_zero_dimensional_profile_exits_2(profile):
    # torus:0 has an empty Betti table for Z and used to exit 3
    assert main(["cohomology", "--theorem", "sc-derham",
                 "--profile", profile, "--p", "0"]) == EXIT_PARSE


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


def test_decompose_echoes_an_infinite_chart_range_as_strict_json(tmp_path):
    doc = {"chart": {"names": ["x", "y"], "ranges": [[-1, 1], [0, "inf"]],
                     "x": "x", "circles": []},
           "degree": 2, "kind": "form",
           "terms": [{"k": 3, "coeff": "1", "index": ["x", "y"]}]}
    form = tmp_path / "form.json"
    form.write_text(json.dumps(doc).replace('"inf"', "Infinity"))
    out = tmp_path / "report.json"
    assert main(["decompose", str(form), "--out", str(out)]) == EXIT_PASS
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["a"]["chart"]["ranges"] == [[0.0, "inf"]]  # the Z chart


def test_verify_infinite_chart_range_exits_2(tmp_path, capsys):
    # a grid over y in (-inf, inf) has only NaN y values, on which the
    # constant coefficient 1 used to pass as numerically verified
    doc = {"chart": {"names": ["x", "y"], "ranges": [[-1, 1], ["-inf", "inf"]],
                     "x": "x", "circles": []},
           "degree": 2, "kind": "form",
           "terms": [{"k": 3, "coeff": "1", "index": ["x", "y"]}]}
    form = tmp_path / "form.json"
    form.write_text(json.dumps(doc).replace('"-inf"', "-Infinity")
                    .replace('"inf"', "Infinity"))
    assert main(["verify", str(form)]) == EXIT_PARSE
    assert "'y'" in capsys.readouterr().err


@pytest.mark.parametrize("contact", ["t3", "s2xs1"])
@pytest.mark.parametrize("kind", ["sc", "folded", "classic"])
def test_glue_every_kind_on_both_contacts(kind, contact, tmp_path):
    out = tmp_path / "glue.json"
    code = main(["glue", "--kind", kind, "--contact", contact,
                 "--out", str(out)])
    assert code == EXIT_PASS
    assert json.loads(out.read_text())["passed"] is True


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


def test_verify_undefined_closedness_refutes_with_witness(tmp_path):
    # d(sqrt(y) dz^dw / x^2) is undefined for y < 0; the closedness samples
    # used to raise there, and verify exited 2 with no report
    doc = {"chart": {"names": ["x", "y", "z", "w"],
                     "ranges": [[-0.5, 0.5]] * 4, "x": "x", "circles": []},
           "degree": 2, "kind": "form",
           "terms": [{"k": 3, "coeff": "1", "index": ["x", "y"]},
                     {"k": 2, "coeff": "(pow (var y) 1/2)",
                      "index": ["z", "w"]}]}
    form = tmp_path / "sqrt.json"
    form.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["verify", str(form), "--flavor", "sc", "--out", str(out)])
    assert code == EXIT_FAIL
    closed = json.loads(out.read_text(),
                        parse_constant=_reject_constant)["result"]["closed"]
    assert closed["is_zero"] is False
    for verdict in closed["verdicts"].values():
        assert verdict["type"] == "Certificate" and verdict["passed"] is False
        assert verdict["kind"] == "refuted"
        assert verdict["min_margin"] == "nan"
        assert verdict["detail"] == "value nan"
        assert dict(verdict["witness"])["y"] < 0


def _verify_one_term(tmp_path, coeff, y_range=(-1, 1)):
    """scatsym verify of coeff dx^dy / x^3 on (-1, 1) x y_range; returns the
    exit code and the non-degeneracy certificate of the written report."""
    doc = {"chart": {"names": ["x", "y"], "ranges": [[-1, 1], list(y_range)],
                     "x": "x", "circles": []},
           "degree": 2, "kind": "form",
           "terms": [{"k": 3, "coeff": coeff, "index": ["x", "y"]}]}
    form = tmp_path / "form.json"
    form.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["verify", str(form), "--out", str(out)])
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    return code, doc["result"]["nondegeneracy"]


def _reject_constant(token):
    raise ValueError(f"report is not strict JSON: {token}")


def test_verify_nan_coefficient_refutes(tmp_path):
    # 1 + e^{300y} e^{301y} (e^{302y} - e^{303y}) is 1 + inf - inf = NaN for
    # y >~ 0.8, which a comparison `v <= tol` lets through
    e = {a: f"(exp (mul {a} (var y)))" for a in (300, 301, 302, 303)}
    coeff = (f"(add 1 (mul {e[300]} {e[301]} {e[302]}) "
             f"(mul -1 {e[300]} {e[301]} {e[303]}))")
    code, cert = _verify_one_term(tmp_path, coeff)
    assert code == EXIT_FAIL
    assert cert["kind"] == "refuted"
    assert dict(cert["witness"])["y"] == pytest.approx(0.8235, abs=1e-3)
    assert cert["min_margin"] == "nan"


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_verify_empty_grid_exits_2(tmp_path, grid):
    # on no grid points the NaN coefficient used to verify, with
    # min_margin Infinity
    e = {a: f"(exp (mul {a} (var y)))" for a in (300, 301, 302, 303)}
    doc = {"chart": {"names": ["x", "y"], "ranges": [[-1, 1], [-1, 1]],
                     "x": "x", "circles": []},
           "degree": 2, "kind": "form",
           "terms": [{"k": 3, "index": ["x", "y"],
                      "coeff": f"(add 1 (mul {e[300]} {e[301]} {e[302]}) "
                               f"(mul -1 {e[300]} {e[301]} {e[303]}))"}]}
    form = tmp_path / "form.json"
    form.write_text(json.dumps(doc))
    assert main(["verify", str(form), "--grid", grid]) == EXIT_PARSE


def test_verify_float_overflow_refutes_with_witness(tmp_path):
    code, cert = _verify_one_term(tmp_path, "(add 1 (pow (var y) 400))",
                                  (-10, 10))
    assert code == EXIT_FAIL
    assert cert["kind"] == "refuted"
    assert "float overflow" in cert["detail"]
    assert abs(dict(cert["witness"])["y"]) > 5


def test_verify_sin_of_overflow_refutes_with_witness(tmp_path):
    coeff = "(add 2 (sin (mul (exp (mul 400 (var y))) (exp (mul 401 (var y))))))"
    code, cert = _verify_one_term(tmp_path, coeff)
    assert code == EXIT_FAIL
    assert cert["kind"] == "refuted"
    assert "math domain error" in cert["detail"]
    assert dict(cert["witness"])["y"] > 0.8


def test_verify_exact_root_of_huge_constant(tmp_path):
    # sqrt(10^400) = 10^200 exactly; a float root estimate of 10^400
    # overflowed and the run exited 3 without a report
    code, cert = _verify_one_term(tmp_path, "(pow 1" + "0" * 400 + " 1/2)")
    assert code == EXIT_PASS
    assert cert["kind"] == "numerically-verified"


def test_verify_exact_constant_overflow_refutes_with_witness(tmp_path):
    # 10^400 + y: the exact constant meets the float y and is too large for
    # a float; evaluate used to let the OverflowError escape (exit 3)
    code, cert = _verify_one_term(tmp_path, f"(add 1{'0' * 400} (var y))")
    assert code == EXIT_FAIL
    assert cert["kind"] == "refuted"
    assert "float overflow" in cert["detail"]
    assert cert["witness"]


@pytest.mark.parametrize("argv, code", [
    (["catalog", "run", "sc-darboux", "--param", "n=1"], EXIT_PASS),
    (["verify", "--no-go", "--m", "1", "--k", "2", "--dim", "4"], EXIT_FAIL),
    (["catalog", "run", "nonsense"], EXIT_PARSE),
], ids=["pass", "fail", "parse"])
def test_exit_code_through_the_module_entry_point(argv, code, tmp_path):
    # the process exit path (cli.run) keeps main's code and flushes the
    # whole report and the status line; exit 2 writes no report
    out, want = tmp_path / "report.json", tmp_path / "in-process.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "scatsym.cli", *argv, "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == EXIT_PARSE:
        assert not out.exists()
        assert proc.stderr.startswith("error: ")
        return
    assert main([*argv, "--out", str(want)]) == code
    assert out.read_bytes() == want.read_bytes()
    status = "PASS" if code == EXIT_PASS else "FAIL"
    assert proc.stdout == f"{status} report written to {out}\n"
