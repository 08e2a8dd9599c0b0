"""Start-up cost guards: every CLI request is a fresh process, so what
`import scatsym.cli` pulls in is paid on every request."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


# the modules the benchmark tracer rebinds by name, which the CLI imports
# eagerly, and the ones a request imports only when it runs their code
TRACED = {"algebroids", "catalog", "certificates", "cli", "cohomology", "expr",
          "geometry", "gluing", "linalg", "structures"}
ON_DEMAND = {"duality", "examples", "floatcode", "quotient", "reader"}


def _loaded_after(code):
    """The scatsym submodules loaded once code has run in a fresh process."""
    code += ("\nimport sys\nprint(' '.join(sorted(name.split('.', 1)[1] "
             "for name in sys.modules if name.startswith('scatsym.'))))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_cli_import_loads_the_traced_modules_only():
    assert _loaded_after("import scatsym.cli") == TRACED


def test_moved_names_load_their_module_on_first_use():
    code = ("import scatsym, sys\n"
            "assert 'scatsym.quotient' not in sys.modules\n"
            "assert scatsym.horizontal_d is "
            "sys.modules['scatsym.quotient'].horizontal_d\n"
            "assert scatsym.parse('(var x)') == scatsym.var('x')")
    assert _loaded_after(code) == TRACED - {"cli"} | {"quotient", "reader"}


@pytest.mark.parametrize("argv, loads", [
    (["catalog", "list"], set()),
    (["cohomology", "--theorem", "sc-derham", "--profile", "torus:4",
      "--p", "1"], set()),
    (["verify", "--no-go", "--m", "2", "--k", "3", "--dim", "6"], set()),
    (["glue", "--kind", "sc"], {"floatcode"}),
    (["verify", "FORM"], {"floatcode", "reader"}),
    (["catalog", "run", "folded-darboux"], {"examples", "floatcode"}),
    (["catalog", "run", "sc-darboux", "--param", "n=1"],
     {"duality", "examples", "floatcode"}),
    (["catalog", "run", "b2-r-times-t3"], {"examples", "floatcode", "quotient"}),
], ids=["catalog-list", "cohomology", "no-go", "grid", "verify-form",
        "record", "dual", "horizontal"])
def test_a_request_loads_only_the_modules_it_runs(argv, loads, tmp_path):
    if "FORM" in argv:
        from scatsym.catalog import build_example
        from scatsym.geometry import form_to_json
        form = tmp_path / "form.json"
        form.write_text(form_to_json(build_example("sc-darboux", n=1).omega))
        argv = [str(form) if a == "FORM" else a for a in argv]
    # a verdict either way (exit 0 or 1) means the request ran to its end
    code = (f"import contextlib, io, scatsym.cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert scatsym.cli.main({argv!r}) in (0, 1)")
    assert _loaded_after(code) - TRACED == loads


def test_cli_import_skips_dataclasses_and_inspect():
    code = ("import sys, scatsym.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["catalog", "list"],
    ["cohomology", "--theorem", "sc-derham", "--profile", "torus:4", "--p", "1"],
    ["catalog", "run", "sc-darboux", "--param", "n=2"],
], ids=["catalog-list", "cohomology", "grid"])
def test_benchmark_tracer_runs_the_cli(tmp_path, argv):
    # the tracer imports scatsym.cli and then looks up every module it
    # rebinds in sys.modules, so each must be imported by the CLI eagerly;
    # its point counter turns each grid into point dicts, and the report
    # must not change
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), *argv],
        env=_env(), cwd=tmp_path, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    plain = subprocess.run([sys.executable, "-m", "scatsym.cli", *argv],
                           env=_env(), cwd=tmp_path, capture_output=True,
                           timeout=120)
    assert plain.returncode == 0 and proc.stdout == plain.stdout
    doc = json.loads(trace.read_text())
    assert doc["stats"]["cli.main"][0] == 1
    assert any(span[2] == "cli.main" for span in doc["spans"])
    if argv[1] == "run":
        assert doc["counts"]["certificates.certify_positive.points"] > 0
