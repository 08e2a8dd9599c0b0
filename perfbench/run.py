"""scatsym benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs from the root of a source checkout.  One client in a closed loop: each
request is a fresh `python -m scatsym.cli ...` process, started only after
the previous one exited, because every CLI user pays interpreter start,
`import scatsym` and cold caches.  A pass runs every request of the workload
once, in an order drawn from the seed; passes repeat while the next one
still fits in S seconds (at least one).  Each report is checked against
`expected.json` after its pass, outside the timed region.

The host's speed swings by up to half within seconds and drifts over
minutes, so request times are read against a speed probe: this process and
its children share one CPU, and a thread times a fixed tight loop on it
every PROBE_PERIOD_S.  A request's time divided by the probe's mean
slowdown during it (against PROBE_REFERENCE_S) is its time at the
reference speed.

With --trace 0 the last stdout line holds the end-to-end metrics:
  wall_s, cpu_s  a pass's wall and child CPU time (os.wait4 rusage) at the
                 reference speed, each request at its fastest pass
  setup_s        median wall time at the reference speed of the no-op
                 `catalog list` request, run SETUP_RUNS times first
  peak_rss_mb    largest child ru_maxrss of a pass, median over passes
With --trace 1, untraced and traced passes alternate and it holds the
per-layer metrics of the traced passes (see tracer.py and README.md), and
the unscaled host.wall_s, host.cpu_s and the probe's host.slowdown.
`--workload all` runs every workload in turn.  The exit code is 0 only when
every verdict matched.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from check import PROVEN_KINDS, certificate_stats, load_expected, verdict_errors
from workloads import WORKLOADS, Request, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_RUNS = 10
PROBE_PERIOD_S = 0.01
PROBE_ITERATIONS = 5000
PROBE_REFERENCE_S = 0.0004  # the loop's time on a quiet development host
REQUEST_TIMEOUT_S = 120.0

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (metric, unit, better): counts and times from the traced passes
PER_LAYER = (
    ("expr.evaluate.calls", "count", "lower"),
    ("expr.evaluate.self_s", "s", "lower"),
    ("expr.evaluate_dag.calls", "count", "lower"),
    ("expr.evaluate_dag.self_s", "s", "lower"),
    ("expr.differentiate.calls", "count", "lower"),
    ("expr.differentiate.self_s", "s", "lower"),
    ("expr.canon.calls", "count", "lower"),
    ("expr.canon.self_s", "s", "lower"),
    ("expr.canon.hit_ratio", "ratio", "higher"),
    ("expr.poly.hit_ratio", "ratio", "higher"),
    ("expr.cache_entries", "count", "lower"),
    ("expr.is_zero.samples", "count", "lower"),
    ("expr.is_zero.self_s", "s", "lower"),
    ("geometry.make_form.calls", "count", "lower"),
    ("geometry.make_form.self_s", "s", "lower"),
    ("geometry.wedge.self_s", "s", "lower"),
    ("geometry.exterior_derivative.self_s", "s", "lower"),
    ("geometry.evaluate_form.calls", "count", "lower"),
    ("geometry.evaluate_form.self_s", "s", "lower"),
    ("geometry.forms_equal.self_s", "s", "lower"),
    ("linalg.sym_det.self_s", "s", "lower"),
    ("linalg.sym_adjugate.self_s", "s", "lower"),
    ("linalg.sym_inverse.self_s", "s", "lower"),
    ("linalg.result_nodes", "count", "lower"),
    ("certificates.certify_positive.calls", "count", "lower"),
    ("certificates.certify_positive.points", "count", "higher"),
    ("certificates.certify_positive.self_s", "s", "lower"),
    ("certificates.certify_positive.points_per_s", "1/s", "higher"),
    ("certificates.chart_grid.self_s", "s", "lower"),
    ("certificates.refuted", "count", "lower"),
    ("algebroids.nondegenerate.incl_s", "s", "lower"),
    ("algebroids.no_go_check.incl_s", "s", "lower"),
    ("structures.dual_jacobi_check.incl_s", "s", "lower"),
    ("structures.dual_jacobi_check.points", "count", "higher"),
    ("structures.dual_roundtrip_check.incl_s", "s", "lower"),
    ("structures.dual_roundtrip_check.points", "count", "higher"),
    ("structures.dual.points_per_s", "1/s", "higher"),
    ("structures.closedness.incl_s", "s", "lower"),
    ("structures.verify_sc_symplectic.incl_s", "s", "lower"),
    ("structures.verify_folded.incl_s", "s", "lower"),
    ("gluing.certify_sc_gluing.incl_s", "s", "lower"),
    ("gluing.certify_folded_gluing.incl_s", "s", "lower"),
    ("gluing.glue.incl_s", "s", "lower"),
    ("cohomology.formula.incl_s", "s", "lower"),
    ("catalog.build_example.incl_s", "s", "lower"),
    ("catalog.run_example.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.render_report.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("certified_points", "count", "higher"),
    ("proven_share", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
    ("host.wall_s", "s", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("host.slowdown", "ratio", "lower"),
)
DROPPED = {
    "gluing.collar_verify.incl_s":
        "FillingCollar.verify runs only in the t2xs2 record's collar check, "
        "which no workload requests",
}


class SetupError(Exception):
    pass


class SpeedProbe:
    """Times a fixed tight loop every PROBE_PERIOD_S on the CPU that runs
    the requests, so a request's time can be read against how fast that
    CPU ran meanwhile.  The loop touches a few cache lines only, so what a
    request leaves in the caches barely moves it."""

    def __init__(self):
        self.samples = []  # (end time, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @staticmethod
    def _loop():
        s = 0
        for i in range(PROBE_ITERATIONS):
            s += i * i % 7
        return s

    def _run(self):
        clock = time.perf_counter
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = clock()
            self._loop()
            t1 = clock()
            self.samples.append((t1, t1 - t0))

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe time in [t0, t1] over the reference probe time."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if not inside:
            return 1.0
        return statistics.fmean(inside) / PROBE_REFERENCE_S


@dataclass
class Result:
    request: object
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    report: Path
    trace: Path = None
    slowdown: float = 1.0


@dataclass
class Pass:
    wall_s: float
    results: list = field(default_factory=list)

    @property
    def peak_rss_mb(self):
        return max(r.maxrss_kb for r in self.results) / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SCATSYM_THREADS", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy,
            "scatsym_threads_unset": "SCATSYM_THREADS" not in os.environ}


class Runner:
    """Runs requests of one workload in a scratch directory of the checkout."""

    def __init__(self, workdir: Path, seed: int, probe=None):
        self.workdir = workdir
        self.seed = seed
        self.env = child_env()
        self.probe = probe

    def run(self, request, traced: bool = False) -> Result:
        report = self.workdir / f"{request.id}.json"
        trace = self.workdir / f"{request.id}.trace.json" if traced else None
        report.unlink(missing_ok=True)
        cli_args = [*request.argv, "--seed", str(self.seed), "--out", str(report)]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace),
                   *cli_args]
        else:
            cmd = [sys.executable, "-m", "scatsym.cli", *cli_args]
        with open(self.workdir / "stderr.txt", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        slowdown = self.probe.slowdown(t0, t0 + wall) if self.probe else 1.0
        return Result(request, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss, proc.returncode, report, trace, slowdown)

    def run_pass(self, requests, rng, traced: bool = False) -> Pass:
        order = list(requests)
        rng.shuffle(order)
        t0 = time.perf_counter()
        results = [self.run(r, traced) for r in order]
        return Pass(time.perf_counter() - t0, results)


@dataclass
class Verdicts:
    """Verdict checks and certificate statistics over every pass."""

    expected: dict
    attempted: int = 0
    failed: int = 0
    per_pass: list = field(default_factory=list)  # (points, kinds, bytes)

    def check(self, p: Pass) -> None:
        points, kinds, size = 0, [], 0
        for r in p.results:
            self.attempted += 1
            errors = verdict_errors(self.expected, r.request.id, r.exit_code,
                                    r.report)
            if errors:
                self.failed += 1
                print(f"MISMATCH {r.request.id} {' '.join(r.request.argv)}: "
                      + "; ".join(errors), file=sys.stderr)
                continue
            report = json.loads(r.report.read_text(encoding="utf-8"))
            pts, kds = certificate_stats(report)
            points += pts
            kinds += kds
            size += r.report.stat().st_size
        self.per_pass.append((points, kinds, size))


def measure_setup(runner: Runner, verdicts: Verdicts) -> float:
    """Median scaled wall time of the no-op `catalog list` request."""
    listing = Request("catalog-list", ("catalog", "list"))
    walls = []
    for _ in range(SETUP_RUNS):
        p = Pass(0.0, [runner.run(listing)])
        failed = verdicts.failed
        verdicts.check(p)
        if verdicts.failed > failed:
            raise SetupError("the no-op `catalog list` request failed")
        walls.append(p.results[0].wall_s / p.results[0].slowdown)
    verdicts.per_pass.clear()
    return statistics.median(walls)


def repeat_passes(seconds: float, run_round) -> list:
    """Call run_round until the next call would end after `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return rounds


def fastest_pass(passes, attr: str, scaled: bool = True) -> float:
    """A pass's total of a request time, each request at its fastest run;
    `scaled` divides each time by the slowdown the probe saw during it."""
    best = {}
    for p in passes:
        for r in p.results:
            v = getattr(r, attr) / (r.slowdown if scaled else 1.0)
            best[r.request.id] = min(v, best.get(r.request.id, v))
    return sum(best.values())


def end_to_end_metrics(passes, setup_s) -> dict:
    return {
        "wall_s": fastest_pass(passes, "wall_s"),
        "cpu_s": fastest_pass(passes, "cpu_s"),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }


def host_metrics(passes) -> dict:
    """The unscaled times and the probe's mean slowdown."""
    return {
        "host.wall_s": fastest_pass(passes, "wall_s", scaled=False),
        "host.cpu_s": fastest_pass(passes, "cpu_s", scaled=False),
        "host.slowdown": statistics.fmean(
            r.slowdown for p in passes for r in p.results),
    }


def layer_metrics(p: Pass, report_stats) -> dict:
    """Per-layer values of one traced pass; times at the reference speed."""
    stats, counts = {}, {}
    hits = {"canon": [0, 0], "poly": [0, 0]}
    cache_entries = nodes = root_s = child_wall = 0
    for r in p.results:
        if not r.trace.is_file():  # the request crashed; counted as failed
            continue
        doc = json.loads(r.trace.read_text(encoding="utf-8"))
        for name, (calls, incl, self_s) in doc["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl / r.slowdown
            acc[2] += self_s / r.slowdown
        for name, n in doc["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name in hits:
            info = doc["caches"][name]
            hits[name][0] += info["hits"]
            hits[name][1] += info["hits"] + info["misses"]
        cache_entries = max(cache_entries, sum(
            c["currsize"] for c in doc["caches"].values()))
        nodes += doc["linalg_result_nodes"]
        root_s += doc["stats"]["cli.main"][1]
        child_wall += r.wall_s

    def stat(name, i):
        return stats.get(name, (0, 0.0, 0.0))[i]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric, _, _ in PER_LAYER:
        name, _, what = metric.rpartition(".")
        if what in ("calls", "incl_s", "self_s") and name in stats:
            out[metric] = stat(name, ("calls", "incl_s", "self_s").index(what))
    points = counts.get("certificates.certify_positive.points", 0)
    dual_points = sum(counts.get(f"structures.{n}.points", 0)
                      for n in ("dual_jacobi_check", "dual_roundtrip_check"))
    dual_s = (stat("structures.dual_jacobi_check", 1)
              + stat("structures.dual_roundtrip_check", 1))
    cert_points, kinds, report_bytes = report_stats
    out.update({
        "expr.canon.hit_ratio": ratio(*hits["canon"]),
        "expr.poly.hit_ratio": ratio(*hits["poly"]),
        "expr.cache_entries": cache_entries,
        "expr.is_zero.samples": counts.get("expr.is_zero.samples", 0),
        "linalg.result_nodes": nodes,
        "certificates.certify_positive.points": points,
        "certificates.certify_positive.points_per_s":
            ratio(points, stat("certificates.certify_positive", 1)),
        "certificates.refuted": stat("certificates.refuted", 0),
        "structures.dual_jacobi_check.points":
            counts.get("structures.dual_jacobi_check.points", 0),
        "structures.dual_roundtrip_check.points":
            counts.get("structures.dual_roundtrip_check.points", 0),
        "structures.dual.points_per_s": ratio(dual_points, dual_s),
        "cli.report_bytes": report_bytes,
        "certified_points": cert_points,
        "proven_share": ratio(sum(k in PROVEN_KINDS for k in kinds), len(kinds)),
        "trace.uncovered_share": 1.0 - ratio(root_s, child_wall),
    })
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, probe=None) -> tuple:
    """(metrics, attempted, failed) of one workload."""
    t_setup = time.perf_counter()
    requests = generate(workload, seed, workdir)
    expected = load_expected()
    unknown = [r.id for r in requests if r.id not in expected]
    if unknown:
        raise SetupError(f"no expected verdict for {unknown}")
    runner = Runner(workdir, seed, probe)
    verdicts = Verdicts(expected)
    setup_s = measure_setup(runner, verdicts)
    print("inputs: " + json.dumps({
        "workload": workload, "seed": seed, "env": environment(),
        "requests": [[r.id, *r.argv] for r in requests]}))
    print(f"set-up took {time.perf_counter() - t_setup:.2f} s")
    rng = random.Random(seed)

    def checked_pass(traced=False):
        p = runner.run_pass(requests, rng, traced)
        verdicts.check(p)  # before the next pass overwrites the reports
        return p

    if not trace:
        passes = repeat_passes(seconds, checked_pass)
        metrics = end_to_end_metrics(passes, setup_s)
        table = END_TO_END
    else:
        def pair():
            plain = checked_pass()
            traced = checked_pass(traced=True)
            return plain, traced, layer_metrics(traced, verdicts.per_pass[-1])
        pairs = repeat_passes(seconds, pair)
        metrics = {}
        for metric, _, _ in PER_LAYER:
            values = [layer[metric] for _, _, layer in pairs if metric in layer]
            metrics[metric] = statistics.median(values) if values else 0
        plain = [p for p, _, _ in pairs]
        metrics.update(host_metrics(plain))
        metrics["trace.overhead_s"] = (
            fastest_pass([t for _, t, _ in pairs], "wall_s")
            - fastest_pass(plain, "wall_s"))
        for name, why in DROPPED.items():
            print(f"dropped {name}: {why}")
        table = PER_LAYER
    npasses = len(verdicts.per_pass)
    print(f"{workload}: {npasses} passes of {len(requests)} requests, "
          f"{verdicts.failed} of {verdicts.attempted} requests failed")
    return {m: {"value": metrics[m], "unit": u} for m, u, _ in table}, \
        verdicts.attempted, verdicts.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scatsym" / "cli.py").is_file():
        print(f"error: no scatsym sources under {SRC}", file=sys.stderr)
        return 2

    # requests and the speed probe share one CPU; children inherit this
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    scratch = BENCH_DIR / ".work"
    scratch.mkdir(exist_ok=True)
    for name in names:
        workdir = scratch / f"{name}-{args.seed}-{os.getpid()}"
        workdir.mkdir()
        try:
            with SpeedProbe() as probe:
                got, n, bad = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace), workdir, probe)
        except SetupError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 2
        finally:
            for path in workdir.iterdir():
                path.unlink()
            workdir.rmdir()
        attempted += n
        failed += bad
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in got.items():
            print(f"{prefix}{metric} = {value['value']:.6g} {value['unit']}")
            metrics[prefix + metric] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
