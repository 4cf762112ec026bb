#!/usr/bin/env python3
"""Run the PR4 unified-IR benchmarks and emit BENCH_pr4.json.

Runs `cargo bench -p cr-bench --bench workflow_compile --bench
workflow_exec`, parses the `[PR4] scenario=... median_ns=...` lines, and
writes a JSON report with raw medians plus derived ratios:

* per-strategy compile cost (lower + optimize a workflow to a
  LogicalPlan) and its share of one serial plan execution,
* per-strategy execution: interpreter vs compiled plan
  (plan_speedup = interpreter / plan).

Pass --smoke to run single iterations over shrunken data (CI canary).
"""

import json
import os
import re
import subprocess
import sys

LINE = re.compile(r"\[PR4\] scenario=(\S+)\s+median_ns=(\d+)")


def run_bench(name, smoke):
    cmd = ["cargo", "bench", "-q", "-p", "cr-bench", "--bench", name, "--"]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    sys.stdout.write(out)
    return {m.group(1): int(m.group(2)) for m in LINE.finditer(out)}


def ratio(results, num, den):
    if num in results and den in results and results[den] > 0:
        return round(results[num] / results[den], 2)
    return None


def main():
    smoke = "--smoke" in sys.argv[1:]
    results = run_bench("workflow_compile", smoke)
    results.update(run_bench("workflow_exec", smoke))

    ratios = {}
    strategies = sorted(
        m.group(1)
        for key in results
        if (m := re.fullmatch(r"workflow_exec_(\w+)_interpreter", key))
    )
    for s in strategies:
        r = ratio(results, f"workflow_exec_{s}_interpreter", f"workflow_exec_{s}_plan")
        if r is not None:
            ratios[f"{s}_plan_speedup"] = r
        r = ratio(results, f"workflow_compile_{s}", f"workflow_exec_{s}_plan")
        if r is not None:
            ratios[f"{s}_compile_share_of_exec"] = r

    report = {
        "smoke": smoke,
        "host_cpus": os.cpu_count(),
        "median_ns": results,
        "ratios": ratios,
    }
    out_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_pr4.json")
    with open(os.path.abspath(out_path), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.abspath(out_path)}")

    for s in strategies:
        speedup = ratios.get(f"{s}_plan_speedup")
        if speedup is not None:
            print(f"{s}: plan vs interpreter {speedup}x")


if __name__ == "__main__":
    main()
