#!/usr/bin/env python3
"""Layered benchmark of the twocenter solver.

    python3 perfbench/run.py --workload solve-16x8 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Run from the repository root.  One process, one thread, a closed loop
with one caller: each operation starts after the previous one returned.
A run repeats whole passes over the workload's corpus (see workloads.py)
for about --seconds, always at least one pass, and checks every output
against refs.json and, for solves, against the certificate replay of
`twocenter.cli.verify_record`.

With --trace 0 the run reports end-to-end metrics.  With --trace 1 it
runs one untraced pass, then the same pass with every layer wrapped in
spans (tracing.py), and reports per-layer metrics; the traced outputs
must equal the untraced ones bit for bit.

Every metric is printed by name with its unit, the full result goes to
a JSON file under perfbench/results/ (or --out), and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
import os

# one thread for any BLAS or OpenMP pool, set before numpy can load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from reference import HostClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# set-up is repeated this many times per run and reported as the median
SETUP_REPEATS = 15
# wall seconds between two timings of the reference computation
REF_EVERY_S = 0.2

# the last line with --trace 0: (name, unit)
E2E_METRICS = (
    ("ops_per_kref", "1/kref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

BRANCHES = (
    "hull-radius.y", "shared-vertex.y", "no-free-points.y", "pinched.y", "no-arc.y",
    "no-events.y", "one-side-quiet.y", "scan.y", "event-sweep.y", "split-enum.y",
    "chain-infeasible.n", "intersection-empty.n", "pinched.n", "no-arc-anomaly.n",
    "separated-point.n", "forced-overload.n", "no-events.n", "one-side-quiet.n", "scan.n",
)

# the last line with --trace 1: (name, unit, better).  Counts and times
# are per attempted operation of the traced pass.
LAYER_METRICS = (
    ("geom.orientation.calls", "count", "lower"),
    ("geom.orientation.s", "s", "lower"),
    ("polygon.triangulate.s", "s", "lower"),
    ("polygon.locate.calls", "count", "lower"),
    ("polygon.locate.s", "s", "lower"),
    ("polygon.point_in_polygon.calls", "count", "lower"),
    ("polygon.point_in_polygon.s", "s", "lower"),
    ("region.path.calls", "count", "lower"),
    ("region.path.s", "s", "lower"),
    ("region.path.hit_ratio", "ratio", "higher"),
    ("region.tree.calls", "count", "lower"),
    ("region.tree.s", "s", "lower"),
    ("region.spm_points.s", "s", "lower"),
    ("hull.geodesic_hull.s", "s", "lower"),
    ("hull.chain_radius.calls", "count", "lower"),
    ("hull.chain_radius.s", "s", "lower"),
    ("disks.one_center.calls", "count", "lower"),
    ("disks.one_center.s", "s", "lower"),
    ("disks.one_center.hit_ratio", "ratio", "higher"),
    ("disks.disks_intersection.calls", "count", "lower"),
    ("disks.disks_intersection.s", "s", "lower"),
    ("disks.disks_intersection.failed", "count", "lower"),
    ("optimize.optimize_pair.calls", "count", "lower"),
    ("optimize.optimize_pair.s", "s", "lower"),
    ("optimize.narrow_interval.s", "s", "lower"),
    ("optimize.interval_candidates.s", "s", "lower"),
    ("optimize.critical_radius_set.s", "s", "lower"),
    ("decision.decide.calls", "count", "lower"),
    ("decision.decide.s", "s", "lower"),
    ("decision.decide.feasible_ratio", "ratio", "higher"),
) + tuple((f"decision.branch.{b}", "count", "lower") for b in BRANCHES) + (
    ("driver.candidate_pairs.count", "count", "lower"),
    ("driver.candidate_pairs.s", "s", "lower"),
    ("driver.assistant_interval.s", "s", "lower"),
    ("driver.trace_overhead", "ratio", "lower"),
)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; +inf marks a failure."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    frac = pos - lo
    if frac == 0 or lo + 1 == len(v):
        return v[lo]
    if math.isinf(v[lo + 1]):
        return math.inf
    return v[lo] + (v[lo + 1] - v[lo]) * frac


def _import_seconds() -> float:
    """Time to import twocenter in a fresh interpreter, measured inside it
    and rescaled there by reference.in_reference_seconds."""
    code = ("import time; t = time.perf_counter(); import twocenter; "
            "dt = time.perf_counter() - t; "
            "from reference import in_reference_seconds; "
            "print(repr(in_reference_seconds(dt)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=30, check=True).stdout.strip()


def _commit() -> str:
    """HEAD of the repository the benchmark runs in, with "+dirty" when
    tracked files differ from it; "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        head = _git("rev-parse", "HEAD")
        dirty = _git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def run_pass(ops, root=None, collect=False, clock=True):
    """Run each operation once.

    Returns [(id, seconds, output, error class name, reference seconds)]:
    the seconds exclude the reference timings made during the operation,
    and the reference seconds are their mean (see reference.HostClock).
    Without `clock` nothing else runs in between and the reference
    seconds are None.  With `collect`, garbage left by earlier operations
    is collected before each one, so that its time and memory do not
    depend on its position."""
    gc.collect()
    out = []
    with HostClock(REF_EVERY_S) if clock else nullcontext() as host:
        for oid, thunk in ops:
            call = thunk if root is None else (lambda t=thunk: root(t))
            if collect:
                gc.collect()
            mark = host.mark() if host else None
            t0 = perf_counter()
            try:
                res, err = call(), None
            except Exception as e:  # a raised error is a counted failure
                res, err = None, type(e).__name__
            dt = perf_counter() - t0
            ref, spent = host.since(mark) if host else (None, 0.0)
            out.append((oid, dt - spent, res, err, ref))
    return out


class Tally:
    """Times, failures and outputs of the operations of a run."""

    def __init__(self, wl):
        self.wl = wl
        self.times = []          # seconds per operation, +inf when failed
        self.op_seconds = {}     # measured seconds per operation id, per pass
        self.busy = 0.0          # seconds spent in operations, failed ones too
        self.refs = 0.0          # the same in units of the reference computation
        self.ref_seconds = {}    # mean reference timing during each operation
        self.failures = Counter()
        self.outputs = {}

    def add(self, results) -> dict:
        """Judge one pass; returns its outputs by id."""
        outputs = {}
        for oid, dt, res, err, ref in results:
            self.busy += dt
            if ref is not None:
                self.refs += dt / ref
            self.op_seconds.setdefault(oid, []).append(dt)
            self.ref_seconds.setdefault(oid, []).append(ref)
            if err is None:
                value, tag = self.wl.judge(oid, res)
                outputs[oid] = value
            else:
                tag = outputs[oid] = err
            if tag is not None:
                self.failures[tag] += 1
            self.times.append(dt if tag is None else math.inf)
        self.outputs.update(outputs)
        return outputs

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def wrong(self) -> int:
        """Returned outputs that failed a check, as opposed to raised errors."""
        return self.failures["certificate"] + self.failures["reference"]


def e2e_metrics(t: Tally, setup_s: float) -> dict:
    """Every end-to-end metric, {name: (value, unit)}; the solve and
    distance workloads name their throughput and percentiles apart."""
    ok = t.attempted - t.failed
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50 = percentile(t.times, 0.5)
    if t.wl.kind == "solve":
        report = {
            "solved_per_s": (ok / t.busy, "1/s"),
            "solve_s.p50": (p50, "s"),
            "solve_s.p75": (percentile(t.times, 0.75), "s"),
        }
    else:
        report = {
            "queries_per_s": (ok / t.busy, "1/s"),
            "query_us.p50": (p50 * 1e6, "us"),
            "query_us.p99": (percentile(t.times, 0.99) * 1e6, "us"),
        }
    if t.refs:
        report["ops_per_kref"] = (ok / t.refs * 1e3, "1/kref")
    report.update({
        "fail_rate": (t.failed / t.attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
        "samples": (t.attempted, "count"),
    })
    for tag, n in sorted(t.failures.items()):
        report[f"fail.{tag}"] = (n, "count")
    return report


def layer_metrics(tracer, n_ops: int, branches: Counter, overhead: float) -> dict:
    calls, self_s, events = tracer.calls, tracer.self_s, tracer.events
    out = {}
    for name, _unit, _better in LAYER_METRICS:
        base, _, leaf = name.rpartition(".")
        if name.startswith("decision.branch."):
            b, _, yn = name[len("decision.branch."):].rpartition(".")
            val = branches[f"{b}:{yn}"] / n_ops
        elif name == "driver.trace_overhead":
            val = overhead
        elif leaf == "calls":
            val = calls[base] / n_ops
        elif leaf == "s":
            val = self_s[base] / n_ops
        elif leaf == "hit_ratio":
            val = events[f"{base}.hits"] / calls[base] if calls[base] else 0.0
        elif leaf == "feasible_ratio":
            val = events[f"{base}.feasible"] / calls[base] if calls[base] else 0.0
        else:
            val = events[name] / n_ops
        out[name] = val
    return out


def timed_passes(wl, rng, seconds: float, tally: Tally) -> int:
    """Whole passes while the next one is expected to end within
    `seconds` of the start, at least one; returns how many ran."""
    t_start = perf_counter()
    passes = 0
    while True:
        p0 = perf_counter()
        tally.add(run_pass(wl.ops(rng), collect=wl.collect_each_op))
        passes += 1
        now = perf_counter()
        if now - t_start + (now - p0) > seconds:
            return passes


def traced_pass(wl, rng, tally: Tally, problems: list):
    """One untraced pass, then the same pass with every layer traced.

    Neither pass samples the reference clock, so no span holds a sample
    and both passes are timed alike.  Appends to `problems` every output the two passes disagree on and
    returns (per-layer metrics, raw span totals)."""
    from tracing import ROOT_SPAN, Tracer, traced_package

    state = rng.getstate()
    plain_ops = wl.ops(rng)
    rng.setstate(state)
    traced_ops = wl.ops(rng)
    plain = run_pass(plain_ops, collect=wl.collect_each_op, clock=False)
    base = tally.add(plain)
    tracer = Tracer()
    with traced_package(tracer):
        traced = run_pass(traced_ops, tracer.wrap(ROOT_SPAN, lambda thunk: thunk()),
                          collect=wl.collect_each_op, clock=False)
    got = tally.add(traced)
    problems += [f"traced output differs for {k}: {base[k]!r} -> {got.get(k)!r}"
                 for k in sorted(base) if repr(base[k]) != repr(got.get(k))]
    branches = Counter()
    for _oid, _dt, res, _err, _ref in traced:
        branches.update(getattr(res, "branch_stats", {}))
    extra = {b: n for b, n in branches.items() if b.replace(":", ".") not in BRANCHES}
    if extra:
        print(f"# branches outside the metric list: {extra}")
    overhead = sum(r[1] for r in traced) / sum(r[1] for r in plain)
    layers = layer_metrics(tracer, len(traced), branches, overhead)
    spans = {k: {"calls": tracer.calls[k], "self_s": tracer.self_s[k],
                 "total_s": tracer.total_s[k]} for k in sorted(tracer.calls)}
    return layers, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default perfbench/results/...)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two result files or directories and exit")
    args = ap.parse_args(argv)

    if args.compare:
        from compare import compare
        return compare(*args.compare)
    if not (SRC / "twocenter" / "__init__.py").is_file():
        print(f"no twocenter source under {SRC}", file=sys.stderr)
        return 2

    import_s = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    problems = wl.load(workloads.load_refs()["workloads"][wl.name])
    builds = wl.setup_builds(SETUP_REPEATS)
    setup_s = import_s + (statistics.median(builds) if builds else 0.0)
    # the solver warns when it falls back to a slower search; the
    # warning text is not part of what the benchmark checks
    warnings.simplefilter("ignore")

    # the corpus, references and modules stay alive for the whole run;
    # keep them out of the collections made between operations
    gc.collect()
    gc.freeze()
    tally = Tally(wl)
    layers, spans = None, None
    rng = random.Random(args.seed)
    t_start = perf_counter()
    if args.trace:
        passes = 2
        layers, spans = traced_pass(wl, rng, tally, problems)
    else:
        passes = timed_passes(wl, rng, args.seconds, tally)
    report = e2e_metrics(tally, setup_s)
    correct = not problems and tally.wrong == 0

    print(f"# {wl.name}: {wl.why}")
    print(f"# seed {args.seed}, trace {args.trace}, passes {passes}, "
          f"operations {tally.attempted}, wall {perf_counter() - t_start:.1f} s")
    for p in problems:
        print(f"# PROBLEM {p}")
    for name, (val, unit) in report.items():
        print(f"{wl.name:<13} {name:<40} {val:>16.6g} {unit}")
    if layers is not None:
        units = {n: u for n, u, _ in LAYER_METRICS}
        for name, val in layers.items():
            print(f"{wl.name:<13} {name:<40} {val:>16.6g} {units[name]}")

    result = {
        "meta": {
            "workload": wl.name, "kind": wl.kind, "why": wl.why,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "passes": passes, "commit": _commit(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
            "corpus": sorted(wl.inputs), "fingerprints": wl.fingerprints(),
        },
        "correct": correct, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "outputs": tally.outputs,
        "op_seconds": tally.op_seconds,
        "ref_seconds": tally.ref_seconds,
    }
    if layers is not None:
        result["layers"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        result["spans"] = spans
    out = Path(args.out) if args.out else \
        RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, default=repr) + "\n")

    if layers is not None:
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in LAYER_METRICS}
    else:
        metrics = {n: {"value": report[n][0], "unit": u} for n, u in E2E_METRICS}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
