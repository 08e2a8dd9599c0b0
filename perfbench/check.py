"""Compare CLI reports with the hand-written expected verdicts, and read the
certificate statistics a report carries."""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
PROVEN_KINDS = ("proven", "proven-zero")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("_comment", None)
    return doc


def mismatches(want, got, path: str = "") -> list:
    """Where `got` differs from the partial document `want`."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        if path.endswith("/checks") and set(want) != set(got):
            out.append(f"{path}: checks {sorted(got)} != {sorted(want)}")
        for key, value in want.items():
            if key not in got:
                out.append(f"{path}/{key}: missing")
            else:
                out.extend(mismatches(value, got[key], f"{path}/{key}"))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected a list of {len(want)}"]
        out = []
        for i, (w, g) in enumerate(zip(want, got)):
            out.extend(mismatches(w, g, f"{path}[{i}]"))
        return out
    if want != got or type(want) is not type(got):
        return [f"{path}: {got!r} != {want!r}"]
    return []


def verdict_errors(expected: dict, request_id: str, exit_code: int,
                   report_path: Path) -> list:
    """Empty when the request exited and reported as expected."""
    want = expected[request_id]
    errors = []
    if exit_code != want["exit"]:
        errors.append(f"exit code {exit_code} != {want['exit']}")
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return errors + [f"no readable report: {e}"]
    return errors + mismatches(want["report"], report)


def certificate_stats(report) -> tuple:
    """(sum of grid_points, certificate and zero-verdict kinds) in a report.

    Catalog checks flatten certificates to {passed, kind, ...} without a
    grid size; those add a kind but no points."""
    points = 0
    kinds = [c["kind"] for c in report.get("checks", {}).values()
             if "kind" in c]
    stack = [report]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if node.get("type") in ("Certificate", "ZeroVerdict"):
                kinds.append(node["kind"])
                points += node.get("grid_points", 0)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return points, kinds
