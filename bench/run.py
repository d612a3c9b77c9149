"""The funcfield benchmark: one seeded workload, end-to-end or per layer.

    python3 bench/run.py --workload towers --seed 1 --seconds 10 --trace 0

Each pass of the workload's query list runs in a fresh worker process
(bench/worker.py), one at a time; passes repeat until ``--seconds`` of timed
work have been measured.  The first pass checks every answer outside the
timed region, and every pass's output digest must equal the others'.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes, runs the field and polynomial
microbenchmarks in a worker of their own, checks the benchmark itself (traced
and untraced outputs agree, span self times account for the traced wall
time, a forced per-query timeout counts as a failure) and prints the
per-layer metrics.  The last line of stdout is the result as one JSON object;
the line before it records the environment, sample counts and digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_SAMPLES = 5
RUN_BUDGET_S = 160.0
OUT_DIR = os.path.join(BENCH, "out")


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, mode, deadline, *flags):
    """Run one worker; return (set-up seconds, query count, its last report).

    Set-up ends when the worker has imported funcfield and generated its
    inputs; both sides read CLOCK_MONOTONIC, which Linux shares across
    processes.  A worker still running at the deadline is killed and gives
    no report.
    """
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *flags]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killed = False
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        killed = True
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not lines or lines[0].get("event") != "ready" or (proc.returncode and not killed):
        raise WorkerError(f"worker {mode} exited {proc.returncode} before reporting")
    ready = lines[0]
    report = None if killed or len(lines) < 2 else lines[-1]
    return ready["monotonic"] - start, ready["queries"], report


def source_fingerprint():
    digest = hashlib.sha256()
    for folder in (os.path.join(ROOT, "src", "funcfield"), BENCH):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def earlier_digest_mismatch(workload, seed, fingerprint, digest):
    """Compare with earlier runs of this seed on the same sources, then log this one."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "digests.jsonl")
    key = {"workload": workload, "seed": seed, "source": fingerprint}
    mismatch = []
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if all(rec.get(k) == v for k, v in key.items()) and rec["digest"] != digest:
                    mismatch.append(rec["digest"])
    with open(path, "a") as fh:
        fh.write(json.dumps(dict(key, digest=digest)) + "\n")
    return mismatch


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * fraction // 1))
    return sorted_values[int(rank) - 1]


class Passes:
    """Reports of the passes of one kind (untraced or traced) in a run."""

    def __init__(self):
        self.reports = []
        self.lost = 0   # queries of a worker killed at the run budget

    @property
    def timed_s(self):
        return sum(r["wall_ns"] for r in self.reports) / 1e9

    def add(self, report, n_queries):
        if report is None:
            self.lost += n_queries
        else:
            self.reports.append(report)

    @property
    def attempted(self):
        return sum(r["attempted"] for r in self.reports) + self.lost

    @property
    def failed(self):
        return sum(len(r["failures"]) for r in self.reports) + self.lost

    def latencies_ms(self, key="normalized_ns"):
        return sorted(x / 1e6 for r in self.reports for x in r[key])

    def queries_per_s(self, key="normalized_ns"):
        """Queries answered per second of query time."""
        busy_s = sum(x for r in self.reports for x in r[key]) / 1e9
        return (self.attempted - self.failed) / busy_s

    def digests(self):
        return sorted({r["digest"] for r in self.reports})


def more_passes_fit(untraced, traced, seconds):
    """Another round of passes is started while at least half of it fits
    into the measuring time, so a run measures about ``seconds``."""
    done = untraced.timed_s + traced.timed_s
    per_round = done / len(untraced.reports)
    return done + per_round / 2 < seconds


def end_to_end(passes, setups):
    lat = passes.latencies_ms()
    return {
        "setup_s": statistics.median(setups),
        "queries_per_s": passes.queries_per_s(),
        "latency_p50_ms": percentile(lat, 0.50),
        "latency_p95_ms": percentile(lat, 0.95),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes.reports),
        "success_frac": 1 - passes.failed / passes.attempted,
    }


def per_layer(traced, untraced, micro):
    summaries = [r["trace"] for r in traced.reports]
    mean = lambda values: statistics.fmean(values)
    calls = lambda name: mean(s["calls"].get(name, 0) for s in summaries)
    count = lambda name: mean(s["counts"].get(name, 0) for s in summaries)
    own = lambda name: mean(s["self_s"].get(name, 0.0) for s in summaries)
    module_own = lambda mod: mean(sum(v for k, v in s["self_s"].items()
                                      if k.startswith(mod + ".")) for s in summaries)
    metrics = dict(micro)
    for op in ("mul_k", "add_k", "sub_k", "inv_k"):
        metrics[f"field.{op}.calls"] = count(f"field.{op}")
    for fn in ("make_field", "embed_map"):
        metrics[f"field.{fn}.calls"] = calls(f"field.{fn}")
        metrics[f"field.{fn}.self_s"] = own(f"field.{fn}")
    for op in ("mul", "divmod", "gcd"):
        metrics[f"poly.{op}.calls"] = count(f"poly.{op}")
    metrics["poly.pow_mod.calls"] = calls("poly.pow_mod")
    metrics["poly.pow_mod.self_s"] = own("poly.pow_mod")
    for fn in ("factorize", "roots_in", "count_roots_in_ext", "minimal_polynomial",
               "is_irreducible"):
        metrics[f"factor.{fn}.calls"] = calls(f"factor.{fn}")
        metrics[f"factor.{fn}.self_s"] = own(f"factor.{fn}")
    for fn in ("carlitz_action_of", "compose", "specialize"):
        metrics[f"carlitz.{fn}.calls"] = calls(f"carlitz.{fn}")
        metrics[f"carlitz.{fn}.self_s"] = own(f"carlitz.{fn}")
    metrics["towers.closure.self_s"] = own("towers.closure")
    metrics["towers.kummer_ramified.self_s"] = own("towers.kummer_ramified")
    metrics["towers.from_value.calls"] = count("towers.from_value")
    metrics["towers.class_yield"] = mean(s["class_yield"] for s in summaries)
    for mod in ("genus", "ramification", "asymptotics", "intbounds"):
        metrics[f"{mod}.self_s"] = module_own(mod)
    metrics["cli.main.self_s"] = own("cli.main")
    metrics["trace.overhead_frac"] = 1 - traced.queries_per_s() / untraced.queries_per_s()
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_BUDGET_S
    run = lambda mode, *flags: spawn(args.workload, args.seed, mode, deadline, *flags)

    untraced, traced, setups, selftest = Passes(), Passes(), [], {}
    while not untraced.reports or more_passes_fit(untraced, traced, args.seconds):
        if time.monotonic() > deadline:
            break
        flags = ["--check"] if not untraced.reports else []
        setup, n_queries, report = run("pass", *flags)
        untraced.add(report, n_queries)
        setups.append(setup)
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
            _, _, report = run("pass", "--trace", "--spans-out", spans)
            traced.add(report, n_queries)
            if report is None:
                break
    if not untraced.reports or (args.trace and not traced.reports):
        raise WorkerError("no pass finished within the run budget")
    digests = sorted(set(untraced.digests()) | set(traced.digests()))
    if args.trace:
        _, _, micro = run("micro")
        selftest = {
            "traced_digest_equals_untraced": untraced.digests() == traced.digests(),
            "span_accounting": all(r["trace"]["accounting_ok"] for r in traced.reports),
            "forced_timeout_is_failure": bool(micro and micro["forced_timeout_ok"]),
        }
        metrics = per_layer(traced, untraced, micro["metrics"] if micro else {})
    else:
        while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
            setup, _, _ = run("setup")
            setups.append(setup)
        metrics = end_to_end(untraced, setups)

    fingerprint = source_fingerprint()
    earlier = earlier_digest_mismatch(args.workload, args.seed, fingerprint, digests[0]) \
        if len(digests) == 1 else []
    passes = untraced.reports + traced.reports
    raw, lat = untraced.latencies_ms("latencies_ns"), untraced.latencies_ms()
    failures = [v for r in passes for v in r["failures"].values()]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "source_sha256": fingerprint,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": len(passes), "queries_per_pass": passes[0]["attempted"],
        "latency_samples": len(lat),
        "samples_above_p95": sum(1 for x in lat if x > percentile(lat, 0.95)),
        "unnormalized": {"queries_per_s": untraced.queries_per_s("latencies_ns"),
                         "latency_p50_ms": percentile(raw, 0.5),
                         "latency_p95_ms": percentile(raw, 0.95)},
        "reference_ms": [r["reference_ns"] / 1e6 for r in untraced.reports],
        "setup_samples": len(setups), "timed_s": untraced.timed_s + traced.timed_s,
        "digests": digests, "digest_differs_from_earlier_runs": earlier,
        "selftest": selftest, "failures": failures[:20],
    }
    print(json.dumps(record))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise WorkerError(f"metrics not measured: {missing}")
    correct = (untraced.failed + traced.failed == 0 and len(digests) == 1
               and not earlier and all(selftest.values()))
    print(json.dumps({
        "correct": correct,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (WorkerError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
