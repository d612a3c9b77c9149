"""One benchmark worker process: cold import, input generation, one pass.

Started by run.py with a fresh interpreter per pass, because a CLI user pays
cold field tables and an empty embedding cache on every invocation.  It
prints one ``ready`` line once funcfield is imported and the inputs are
generated (the end of set-up), then one result line.

    python3 bench/worker.py --workload factor --seed 1 --mode pass [--trace] [--check]
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from types import SimpleNamespace

import micro
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAYERS = ("field", "poly", "factor", "carlitz", "towers", "genus",
          "ramification", "asymptotics", "intbounds", "cli")
QUERY_TIMEOUT_S = 30.0
REFERENCE_NS = 70_000       # nominal time of reference_work()
SAMPLE_INTERVAL_S = 0.01
LONG_QUERY_S = 0.02
MIN_INSIDE = 50
NORMALIZE_WINDOW_NS = 500_000_000
# A degree-16 factorization over GF(3^5): 0.4 s or more, far above the
# forced timeout of the self-test.
SLOW_QUERY = ("factorize", (3, 5, [1, 2, 0, 1, 2, 2, 1, 0, 1, 1, 2, 0, 2, 1, 1, 0, 1]), {})


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout()


def import_funcfield():
    """funcfield from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"funcfield.{name}") for name in LAYERS}
    origin = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if origin != os.path.join(SRC, "funcfield"):
        raise ImportError(f"funcfield imported from {origin}, not from {SRC}")
    return modules


class _ReferenceField:
    """A 61-element multiplication table behind a bound method, in the style
    of funcfield's tabled key arithmetic, but owned by the benchmark so that
    no change to funcfield changes it."""

    __slots__ = ("table",)

    def __init__(self):
        self.table = [(a * b) % 61 for a in range(64) for b in range(64)]

    def mul(self, a, b):
        return self.table[a * 64 + b]


_REFERENCE_FIELD = _ReferenceField()


def reference_work():
    """A fixed slice of work (~0.1 ms): a schoolbook product of two 16-term
    key tuples, as Poly.__mul__ does it."""
    mul = _REFERENCE_FIELD.mul
    a, b = tuple(range(1, 17)), tuple(range(3, 19))
    out = [0] * 31
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + mul(u, v)) % 61
    return tuple(out)


class SpeedSampler:
    """Times reference_work() to follow the machine's speed during a pass.

    The host's cores are shared, and its speed drifts by 20-40 % within
    seconds.  A sample runs before every query, and every SAMPLE_INTERVAL_S
    of CPU time inside a query that has run longer than LONG_QUERY_S (from
    a SIGPROF handler, so on the query's own thread and core).  A sample is
    a warm-up slice and a timed one; samples inside a query are taken out of
    its latency.
    """

    def __init__(self):
        self.samples = []     # (start_ns, end_ns, timed slice ns), in time order
        signal.signal(signal.SIGPROF, self.sample)

    def sample(self, *_):
        start = time.perf_counter_ns()
        reference_work()  # warms the caches, so the timed slice sees the core's speed
        timed = time.perf_counter_ns()
        reference_work()
        end = time.perf_counter_ns()
        self.samples.append((start, end, end - timed))

    @staticmethod
    def arm():
        signal.setitimer(signal.ITIMER_PROF, LONG_QUERY_S, SAMPLE_INTERVAL_S)

    @staticmethod
    def disarm():
        signal.setitimer(signal.ITIMER_PROF, 0)


def normalized_latencies(spans, samples):
    """Per query: busy time (latency minus the slices inside it) and that
    time rescaled to REFERENCE_NS, the nominal time of a slice.

    The scale uses the slices inside the query when there are MIN_INSIDE of
    them, else every slice within NORMALIZE_WINDOW_NS of the query.
    """
    starts = [s for s, _, _ in samples]
    spent, timed = [0], [0]
    for s, e, t in samples:
        spent.append(spent[-1] + e - s)
        timed.append(timed[-1] + t)
    busy, normalized = [], []
    for start, end in spans:
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        own = end - start - (spent[hi] - spent[lo])
        if hi - lo < MIN_INSIDE:
            lo = bisect.bisect_left(starts, start - NORMALIZE_WINDOW_NS)
            hi = bisect.bisect_right(starts, end + NORMALIZE_WINDOW_NS)
        busy.append(own)
        normalized.append(own * REFERENCE_NS * (hi - lo) / (timed[hi] - timed[lo]))
    return busy, normalized


def run_pass(runner, queries, timeout_s, tracer=None):
    """Run every query once, each under a per-query timeout.

    Returns wall time, per-query latencies (busy and speed-normalized) and
    outputs, and a failure reason per query id; a timed-out or raising query
    is a failure, never dropped.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    sampler = SpeedSampler()
    spans, outputs, failures = [], [], {}
    begin = time.perf_counter_ns()
    for qid, query in enumerate(queries):
        sampler.sample()
        out = None
        start = time.perf_counter_ns()
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            sampler.arm()
            try:
                if tracer is None:
                    out = runner.execute(query)
                else:
                    out = tracer.run_query(qid, runner.execute, query)
            finally:
                sampler.disarm()
                signal.setitimer(signal.ITIMER_REAL, 0)
        except QueryTimeout:
            failures[qid] = f"timeout after {timeout_s} s"
        except Exception as exc:  # any raise is recorded as this query's failure
            failures[qid] = f"{type(exc).__name__}: {exc}"
        spans.append((start, time.perf_counter_ns()))
        outputs.append(out)
    sampler.sample()
    wall = time.perf_counter_ns() - begin
    busy, normalized = normalized_latencies(spans, sampler.samples)
    return {"wall_ns": wall, "latencies_ns": busy, "normalized_ns": normalized,
            "reference_ns": statistics.median(t for _, _, t in sampler.samples),
            "outputs": outputs, "failures": failures}


def output_digest(outputs) -> str:
    digest = hashlib.sha256()
    for qid, out in enumerate(outputs):
        digest.update(f"{qid}\0{out}\0".encode())
    return digest.hexdigest()


def check_outputs(checker, queries, outputs, failures):
    for qid, (query, out) in enumerate(zip(queries, outputs)):
        if qid in failures:
            continue
        try:
            reason = checker.check(query, out)
        except Exception as exc:  # a malformed answer fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[qid] = f"wrong answer: {reason}"
    for qid, reason in checker.check_bad_places(queries, outputs).items():
        failures.setdefault(qid, f"wrong answer: {reason}")


def forced_timeout_selftest(runner) -> bool:
    """A query that overruns its timeout must come back as a failure."""
    result = run_pass(runner, [SLOW_QUERY], timeout_s=0.01)
    return list(result["failures"].values()) == ["timeout after 0.01 s"] \
        and result["outputs"] == [None] and len(result["latencies_ns"]) == 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "setup", "micro"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    proto = sys.stdout

    def emit(payload):
        proto.write(json.dumps(payload) + "\n")
        proto.flush()

    modules = import_funcfield()
    queries = workloads.generate(args.workload, args.seed)
    emit({"event": "ready", "queries": len(queries), "monotonic": time.monotonic()})
    if args.mode == "setup":
        return 0
    m = SimpleNamespace(**modules)
    runner = workloads.Runner(m)
    if args.mode == "micro":
        metrics = micro.run(m, args.seed)
        emit({"event": "micro", "metrics": metrics,
              "forced_timeout_ok": forced_timeout_selftest(runner)})
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.install(modules)
    result = run_pass(runner, queries, QUERY_TIMEOUT_S, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = result["failures"]
    if args.check:
        check_outputs(workloads.Checker(m), queries, result["outputs"], failures)
    report = {"event": "pass", "wall_ns": result["wall_ns"],
              "latencies_ns": result["latencies_ns"], "rss_mb": rss_mb,
              "normalized_ns": result["normalized_ns"], "reference_ns": result["reference_ns"],
              "digest": output_digest(result["outputs"]),
              "failures": {str(k): v for k, v in failures.items()},
              "attempted": len(queries)}
    if tracer is not None:
        report["trace"] = tracer.summary(result["wall_ns"])
        if args.spans_out:
            tracer.write(args.spans_out)
    emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
