#!/usr/bin/env python3
"""Run the PR2 cache benchmark and emit BENCH_pr2.json.

Runs `cargo bench -p cr-bench --bench rec_cache`, parses the
`[PR2] scenario=... median_ns=...` lines, and writes a JSON report with
raw medians plus the cold-vs-warm speedups of recommendation and planner
requests through the versioned cache.

Pass --smoke to run single iterations over shrunken data (CI canary).
"""

import json
import os
import re
import subprocess
import sys

LINE = re.compile(r"\[PR2\] scenario=(\S+)\s+median_ns=(\d+)")


def run_bench(name, smoke):
    cmd = ["cargo", "bench", "-q", "-p", "cr-bench", "--bench", name, "--"]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    sys.stdout.write(out)
    return {m.group(1): int(m.group(2)) for m in LINE.finditer(out)}


def speedup(results, base, new):
    if base in results and new in results and results[new] > 0:
        return round(results[base] / results[new], 2)
    return None


def main():
    smoke = "--smoke" in sys.argv[1:]
    results = run_bench("rec_cache", smoke)

    speedups = {}
    for scenario in ("recs", "plan"):
        s = speedup(results, f"{scenario}_cold", f"{scenario}_warm")
        if s is not None:
            speedups[f"{scenario}_warm_vs_cold"] = s

    report = {
        "smoke": smoke,
        "host_cpus": os.cpu_count(),
        "median_ns": results,
        "speedups": speedups,
    }
    out_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_pr2.json")
    with open(os.path.abspath(out_path), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.abspath(out_path)}")

    for name, s in sorted(speedups.items()):
        print(f"{name}: {s}x")


if __name__ == "__main__":
    main()
