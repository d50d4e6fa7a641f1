"""One pass of one workload, in a fresh interpreter: set up, then check.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny \
        --trace 0|1 --spawned-at WALL_SECONDS

run.py starts this script once per pass, one process at a time, so every
pass starts cold: `lambda_sym.free_vars` is a process-global cache, and a
second pass in the same process would measure it warm, as no user of
`cclab verify` does. Prints one JSON object on stdout.

The machine's speed drifts while the pass runs, so the pass runs probe()
before set-up and after about every SEGMENT_NS of verdict time, and reports
its timings scaled to reference speed (see run.py), next to the unscaled
wall-clock ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

SEGMENT_NS = 25_000_000  # verdict time between two probes
PROBE_ITERATIONS = 5_000
PROBE_REFERENCE_NS = 1_000_000  # the probe time that defines reference speed
PROBE_WINDOW = 3  # probes on each side of a segment that set its speed


def probe() -> int:
    """Nanoseconds a fixed pure-Python loop takes: the machine's speed now."""
    t0 = time.perf_counter_ns()
    acc: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        k = i & 1023
        acc[k] = acc.get(k, 0) + i * i
    return time.perf_counter_ns() - t0


def speed_scales(probes_ns: list[int]) -> list[float]:
    """Per segment, the factor that turns its wall time into reference time.

    Segment i lies between probes i and i+1. Its factor is the reference
    probe time over the median of the probes within PROBE_WINDOW of it,
    so that one probe slowed by an interrupt does not set it.
    """
    out = []
    for i in range(len(probes_ns) - 1):
        near = probes_ns[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]
        out.append(PROBE_REFERENCE_NS / statistics.median(near))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()
    early_ns = [probe() for _ in range(PROBE_WINDOW)]

    import cclab  # the checkout's own source, put first on the path by run.py

    src = os.path.realpath(os.path.join("src", "cclab"))
    if os.path.dirname(os.path.realpath(cclab.__file__)) != src:
        print(f"cclab imported from {cclab.__file__}, not from {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    parts = workloads.build(args.workload, args.seed, args.size)
    ready_at = time.time()
    setup_snapshot = tracer.snapshot() if tracer else None

    counts = {part: len(instances) for part, instances in parts}
    clock = time.perf_counter_ns
    latencies_ns: list[int] = []
    segment_ends: list[int] = []  # index past each segment's last instance
    segments_ns: list[int] = []  # each segment's wall time, probes excluded
    probes_ns = [probe()]
    failed = 0
    seg_start = clock()
    for _, instances in parts:
        for decide, inst_args in instances:
            t0 = clock()
            ok = decide(*inst_args)
            t1 = clock()
            latencies_ns.append(t1 - t0)
            if not ok:
                failed += 1
            if t1 - seg_start >= SEGMENT_NS:
                segment_ends.append(len(latencies_ns))
                segments_ns.append(t1 - seg_start)
                probes_ns.append(probe())
                seg_start = clock()
    if not segment_ends or segment_ends[-1] != len(latencies_ns):
        segment_ends.append(len(latencies_ns))
        segments_ns.append(clock() - seg_start)
        probes_ns.append(probe())
    verdict_ns = sum(segments_ns)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scales = speed_scales(probes_ns)
    # Set-up has no probes inside it: its speed is read from the probes
    # just before it and the first ones after it.
    setup_scale = PROBE_REFERENCE_NS / statistics.median(early_ns + probes_ns[:PROBE_WINDOW])
    setup_s = ready_at - args.spawned_at - sum(early_ns) / 1e9
    scaled_ns: list[float] = []  # each instance's latency at reference speed
    begin = 0
    for end, scale in zip(segment_ends, scales):
        scaled_ns.extend(t * scale for t in latencies_ns[begin:end])
        begin = end
    ordered = sorted(latencies_ns)
    out = {
        "counts": counts,
        "counts_ok": counts == workloads.EXPECTED[args.size][args.workload],
        "attempted": len(latencies_ns),
        "failed": failed,
        "setup_s": setup_s * setup_scale,
        "verdict_s": sum(t * k for t, k in zip(segments_ns, scales)) / 1e9,
        "scaled_ns": [round(t) for t in scaled_ns],
        "peak_rss_mb": peak_rss_mb,
        "wall": {
            "setup_s": setup_s,
            "verdict_s": verdict_ns / 1e9,
            "instance_p50_us": statistics.median(ordered) / 1e3,
            "instance_p98_us": spans.percentile(ordered, 98) / 1e3,
        },
        "probe_ms": statistics.median(probes_ns) / 1e6,
    }
    if tracer:
        whole = tracer.snapshot()
        out["per_layer"] = spans.per_layer_metrics(whole, setup_snapshot)
        out["spans"] = whole["spans"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
