"""The cclab benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload reach|exhaust|typing --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. BENCHMARK.json there names the workloads,
says why each was chosen, and declares every metric with its unit.

The load is a closed loop with one caller: each instance starts only after
the previous verdict. A run is a series of passes, each a fresh
single-threaded interpreter (perfbench/worker.py) that imports cclab from
./src, builds the workload's inputs from the seed, and checks every
instance against its known answer. Passes run one at a time until about S
seconds have gone, and at least MIN_PASSES of them.

With --trace 0 the result holds the end-to-end metrics:

    verdict_s        seconds from the first checked instance to the last verdict
    instance_p50_us  median latency of one instance, timed around the calls that decide it
    instance_p98_us  nearest-rank 98th percentile of that latency
    setup_s          process start to inputs ready: imports, enumeration, sampling, queries
    peak_rss_mb      peak resident memory of the pass's process (ru_maxrss)

Every pass checks the same instances in the same order. verdict_s,
setup_s and peak_rss_mb are the medians over the run's passes. The
percentiles are over the instances, each taken at its median latency over
the passes: one instance's latency varies from pass to pass by more than
the gaps in reach's latency distribution, and a percentile of a single
pass that falls in such a gap moved 0.15 of its median between runs. A
pass at full size checks at least 9,000 instances, so at least 180 lie
beyond the 98th percentile.

The timings are in reference seconds. The machine is shared, and load from
elsewhere moves it between speed regimes that last from a second to
minutes and differ by up to 1.8 times; a whole run can fall in one.
So the pass runs a fixed pure-Python probe loop (worker.probe) about every
25 ms of verdict time, and a few times around set-up, and scales the time
between probes by the reference probe time (1 ms) over the median of the
nearby probes. A reference second is the time the work would take at the
speed at which the probe takes 1 ms. A change to the program moves these
timings as it moves wall time; a change in the machine's load mostly does
not. The unscaled wall-clock timings, and each pass's median probe time,
are printed too, not in the result.

The tail is the 98th percentile, not the 99th: on reach the 99th falls on
the steep onset of the breadth-first fallback queries, whose cost grows
more than the rest under load from elsewhere, and it moved 0.2 to 0.3 of
its median between runs where the 98th moved 0.07. The traced run still
reports the 99th percentile of rewrite.reaches.

failed_share, the instances whose verdict differs from the known answer or
that hit a step or node budget, is printed with them. It is 0 on a correct
program, so it is carried by the result's `failed` and `attempted` counts
rather than listed as a metric.

With --trace 1 the run alternates untraced and traced passes. The traced
pass wraps every call into each layer in a span (perfbench/spans.py), and
the result holds the per-layer metrics, each the median over traced
passes, with trace.overhead, the ratio of traced to untraced verdict_s.

Every run prints a machine fingerprint: nproc, the Python version
and the seconds a fixed pure-Python loop takes before and after the run.
The machine may switch between speed regimes; the fingerprint shows which
runs fell in a slow one. It is reported, never used to rescale a metric.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. On any error the run exits non-zero without
printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import percentile, rank

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
TIME_LIMIT_S = 170  # a run must end within 180 s, whatever the machine does
END_TO_END = ("verdict_s", "instance_p50_us", "instance_p98_us", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the median of three timings."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(200_000):
            k = i & 1023
            acc[k] = acc.get(k, 0) + i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fingerprint(before: float, after: float) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "calibration_s": {"before": before, "after": after},
    }


class Run:
    def __init__(self, args, started: float):
        self.args = args
        self.started = started
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def one_pass(self, trace: int) -> dict:
        remaining = TIME_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S}s reached")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--size", self.args.size, "--trace", str(trace),
            "--spawned-at", repr(time.time()),
        ]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass ran past the {TIME_LIMIT_S}s time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"pass failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"pass trace={trace}: verdict_s={result['verdict_s']:.4f} "
              f"setup_s={result['setup_s']:.4f} failed={result['failed']}", file=sys.stderr)
        return result

    def passes(self, traces: tuple[int, ...], minimum: int) -> list[list[dict]]:
        """Repeat the given pass kinds as a group until the time is used."""
        out: list[list[dict]] = [[] for _ in traces]
        t_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            for kind, trace in zip(out, traces):
                kind.append(self.one_pass(trace))
            last = time.monotonic() - t0
            if len(out[0]) >= minimum and time.monotonic() - t_start + last > self.args.seconds:
                return out


def timings(passes: list[dict]) -> dict:
    """The end-to-end metrics of a run, from the medians over its passes.

    The percentiles are over the instances, each at its median scaled
    latency over the passes.
    """
    typical = sorted(statistics.median(t) for t in zip(*(p["scaled_ns"] for p in passes)))
    out = {name: statistics.median(p[name] for p in passes)
           for name in ("verdict_s", "setup_s", "peak_rss_mb")}
    out["instance_p50_us"] = statistics.median(typical) / 1e3
    out["instance_p98_us"] = percentile(typical, 98) / 1e3
    return {name: out[name] for name in END_TO_END}


def wall_timings(passes: list[dict]) -> dict:
    """The unscaled wall-clock timings, each the median over the passes."""
    return {name: statistics.median(p["wall"][name] for p in passes) for name in passes[0]["wall"]}


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join("src", "cclab", "__init__.py")):
        print("run from the root of a cclab checkout: src/cclab is missing", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="instance sizes; tiny is for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    started = time.monotonic()
    before = calibrate()
    run = Run(args, started)
    try:
        if args.trace:
            plain, traced = run.passes((0, 1), 1)
        else:
            plain, traced = run.passes((0,), MIN_PASSES)[0], []
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    after = calibrate()

    every = plain + traced
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    counts_ok = all(p["counts_ok"] for p in every)
    first = plain[0]
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    n = first["attempted"]
    print("instances per pass: " + ", ".join(f"{k} {v}" for k, v in first["counts"].items())
          + f"; {n} in all, {n - rank(n, 98)} beyond p98")
    if not counts_ok:
        print("instance counts differ from the recorded counts: the run fails")
    print("fingerprint " + json.dumps(fingerprint(before, after)))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = timings(plain)
    for name, value in end_to_end.items():
        print(f"{name:<17}{value:.6g} {units.get(name, '?')}")
    for name, value in wall_timings(plain).items():
        print(f"{name:<17}{value:.6g} {units.get(name, '?')} (wall clock, unscaled)")
    probes = [p["probe_ms"] for p in plain]
    print("probe_ms per pass " + " ".join(f"{ms:.4f}" for ms in probes))
    print(f"{'failed_share':<17}{failed / attempted:.6g} share")
    if args.trace:
        declared = spec["per_layer"]
        values = {name: statistics.median(p["per_layer"][name] for p in traced)
                  for name in traced[0]["per_layer"]}
        values["trace.overhead"] = timings(traced)["verdict_s"] / end_to_end["verdict_s"]
        for name, value in values.items():
            print(f"{name:<40}{value:.6g} {units.get(name, '?')}")
        print("spans " + json.dumps(traced[-1]["spans"]))
    else:
        declared, values = spec["end_to_end"], end_to_end
    names = {m["name"] for m in declared}
    if set(values) != names:
        print(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ names)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": failed == 0 and counts_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
