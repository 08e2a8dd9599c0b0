"""The report format the benchmark reads: the cheap benchmark requests, run
in-process through `cli.main`, must give the exit code and every report
path that `perfbench/expected.json` lists, as `perfbench/check.py` judges
them.  A dropped or renamed report field fails here, not only in a
benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from scatsym.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")

IDS = ["glue-sc-t3", "glue-folded-t3", "glue-classic-s2xs1",
       "no-go-dim8", "no-go-dim6", "no-go-dim4", "no-go-outside",
       "cohomology-bk-poisson", "cohomology-sc-derham", "verify-sc-file",
       "decompose-sc-file", "verify-bk-file", "b2-r-times-t3",
       "folded-darboux"]


@pytest.fixture(scope="module")
def requests(tmp_path_factory):
    """Seed-1 requests by id; form files are written to the returned
    directory, which the argv name relative to."""
    workdir = tmp_path_factory.mktemp("workloads")
    found = {}
    for workload in ("grid-certify", "symbolic-sweep"):
        for req in workloads.generate(workload, 1, workdir):
            found[req.id] = req
    return workdir, found


@pytest.mark.parametrize("request_id", IDS)
def test_report_matches_expected(requests, request_id, monkeypatch, capsys):
    workdir, found = requests
    monkeypatch.chdir(workdir)
    report = workdir / f"{request_id}.report.json"
    code = main([*found[request_id].argv, "--out", str(report)])
    capsys.readouterr()
    expected = check.load_expected()
    assert check.verdict_errors(expected, request_id, code, report) == []


LEAF_KEYS = {"type", "kind", "grid_points", "tolerance", "min_margin",
             "witness", "detail", "passed"}


def _nodes(node, slot=False):
    """(dict, whether it is a slot of a ZeroVerdictMap) for every dict in a
    report."""
    if isinstance(node, list):
        for item in node:
            yield from _nodes(item)
    elif isinstance(node, dict):
        yield node, slot
        for key, value in node.items():
            if node.get("type") == "ZeroVerdictMap" and key == "verdicts":
                for verdict in value.values():
                    yield from _nodes(verdict, True)
            else:
                yield from _nodes(value)


def _reports(requests, monkeypatch, capsys):
    """(request id, report) for every request in IDS, run through main."""
    workdir, found = requests
    monkeypatch.chdir(workdir)
    for request_id in IDS:
        report = workdir / f"{request_id}.tree.json"
        main([*found[request_id].argv, "--out", str(report)])
        capsys.readouterr()
        yield request_id, json.loads(report.read_text("utf-8"))


def test_every_leaf_verdict_is_a_certificate_with_slack(requests, monkeypatch,
                                                        capsys):
    # min_margin is slack on every leaf (a Certificate without parts): a
    # sampled pass has points and a margin >= 0, an identity slot's margin
    # tol - max |e| is at most its tolerance, and a sampled refutation
    # names its point
    slots = 0
    for request_id, doc in _reports(requests, monkeypatch, capsys):
        for node, slot in _nodes(doc):
            assert node.get("type") != "ZeroVerdict", request_id
            if node.get("type") != "Certificate" or set(node) != LEAF_KEYS:
                continue
            margin = node["min_margin"]
            if node["kind"] == "numerically-verified":
                assert node["grid_points"] > 0 and margin >= 0, request_id
                if slot:
                    assert margin <= node["tolerance"], request_id
                    slots += 1
            if node["kind"] == "refuted" and margin is not None:
                assert node["witness"], request_id
    assert slots


def test_every_catalog_check_is_a_certificate_tree(requests, monkeypatch,
                                                   capsys):
    # a catalog check is written as the Certificate it returned, so the
    # leaf walk above reaches its parts
    catalog = 0
    for request_id, doc in _reports(requests, monkeypatch, capsys):
        for name, check in doc.get("checks", {}).items():
            assert check["type"] == "Certificate", (request_id, name)
            catalog += 1
    assert catalog


def test_a_numerically_verified_verdict_says_what_it_sampled(requests,
                                                             monkeypatch,
                                                             capsys):
    # a composite's own grid_points is 0; some leaf under it sampled
    for request_id, doc in _reports(requests, monkeypatch, capsys):
        for node, _ in _nodes(doc):
            if node.get("kind") == "numerically-verified":
                assert any(leaf.get("grid_points", 0) > 0
                           for leaf, _ in _nodes(node)), request_id
