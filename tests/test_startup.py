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
