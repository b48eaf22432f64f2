#!/usr/bin/env python3
"""Print the traced-run decomposition table for the mrmbench workloads.

Run from the repository root:

    python3 mrmbench/ledger.py --seed 1 --seconds 30 [--workload fleet-mrm ...]

For each workload it makes one untraced and one traced run through
mrmbench/run.sh and prints, as Markdown, each layer's seconds and share of
replay CPU (cluster.replay.cpu_s), the sum of the shares, and the tracing
overhead.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ["fleet-hbm", "fleet-mrm", "mrmd-code"]
OPS = ["get", "put", "tick", "info", "delete"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "mrmbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit("%s trace=%d: correctness gate failed" % (workload, trace))
    return {k: v["value"] for k, v in res["metrics"].items()}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    print("CPU: %s; GOMAXPROCS: %d; %s; seed %d, %d s per run\n"
          % (cpu_model(), os.cpu_count(), go, args.seed, args.seconds))
    for wl in args.workload or WORKLOADS:
        e2e = run(wl, args.seed, args.seconds, 0)
        lay = run(wl, args.seed, args.seconds, 1)
        cpu = lay["cluster.replay.cpu_s"]
        print("### %s\n" % wl)
        print("End to end (untraced): " + ", ".join("%s %.4g" % kv for kv in sorted(e2e.items())) + "\n")
        print("| layer | calls | seconds | share of replay CPU |")
        print("|---|---:|---:|---:|")
        total = 0.0
        for kind in ["hbm", "mrm"]:
            for op in OPS:
                s = lay["tier.%s.%s.s" % (kind, op)]
                calls = lay["tier.%s.%s.calls" % (kind, op)]
                if calls == 0:
                    continue
                total += s
                print("| tier.%s.%s | %d | %.3f | %.1f%% |" % (kind, op, calls, s, 100 * s / cpu))
        rest = cpu - total
        name = "cluster.self_s (rest of the replay)" if wl != "mrmd-code" else "rest (HTTP, queue, batching, sim)"
        print("| %s | | %.3f | %.1f%% |" % (name, rest, 100 * rest / cpu))
        print("| **replay CPU** | | **%.3f** | 100%% |\n" % cpu)
        if wl == "mrmd-code":
            print("server wall p50/p99 %.3f/%.3f ms, HTTP overhead p50 %.3f ms, loadgen lag p99 %.3f ms, queue depth max %d\n"
                  % (lay["server.wall_p50_ms"], lay["server.wall_p99_ms"], lay["server.http_overhead_p50_ms"],
                     lay["loadgen.lag_p99_ms"], lay["server.queue_depth_max"]))
        else:
            print("decode steps %d, %.3f host us/step, sweep CPU util %.2f, windows %d (p99 %.1f ms), "
                  "generator %.3g req/s, GC %.1f%% of CPU, tracing overhead %+.1f%% of replay wall\n"
                  % (lay["cluster.decode_steps"], lay["cluster.host_us_per_decode_step"], lay["sweep.cpu_util"],
                     lay["cluster.replay.windows"], lay["cluster.replay.window_p99_ms"], lay["cluster.gen.req_per_s"],
                     100 * lay["go.gc_cpu_frac"], 100 * lay["trace.overhead_frac"]))


if __name__ == "__main__":
    main()
