#!/usr/bin/env python3
"""Run the PR6 flight-recorder benchmarks and emit BENCH_pr6.json.

Runs `cargo bench -p cr-bench --bench tracing_overhead`, parses the
`[PR6] scenario=... median_ns=...` lines, and writes a JSON report with
raw medians plus derived ratios and pass/fail checks:

* per-strategy tracing overhead (traced / plain, interleaved samples;
  acceptance <= 1.05; metrics are always on in both),
* idle span cost with the tracer disabled and enabled.

Pass --smoke to run single iterations over shrunken data (CI canary).
"""

import json
import os
import re
import subprocess
import sys

LINE = re.compile(r"\[PR6\] scenario=(\S+)\s+median_ns=(\d+)")

TRACING_OVERHEAD_MAX = 1.05
IDLE_DISABLED_MAX_NS = 100


def run_bench(name, smoke):
    cmd = ["cargo", "bench", "-q", "-p", "cr-bench", "--bench", name, "--"]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    sys.stdout.write(out)
    return {m.group(1): int(m.group(2)) for m in LINE.finditer(out)}


def ratio(results, num, den):
    if num in results and den in results and results[den] > 0:
        return round(results[num] / results[den], 3)
    return None


def main():
    smoke = "--smoke" in sys.argv[1:]
    results = run_bench("tracing_overhead", smoke)

    strategies = sorted(
        m.group(1)
        for key in results
        if (m := re.fullmatch(r"workflow_exec_(\w+)_plain", key))
    )

    ratios = {}
    checks = {}
    for s in strategies:
        r = ratio(results, f"workflow_exec_{s}_traced", f"workflow_exec_{s}_plain")
        if r is not None:
            ratios[f"{s}_tracing_overhead"] = r
            checks[f"{s}_tracing_overhead_le_1.05"] = r <= TRACING_OVERHEAD_MAX

    idle_off = results.get("idle_disabled_span_ns")
    idle_on = results.get("idle_enabled_span_ns")
    if idle_off is not None:
        checks["idle_disabled_span_within_noise"] = idle_off <= IDLE_DISABLED_MAX_NS

    report = {
        "smoke": smoke,
        "host_cpus": os.cpu_count(),
        "median_ns": results,
        "ratios": ratios,
        "idle_span_ns": {"disabled": idle_off, "enabled": idle_on},
        "checks": checks,
        "all_checks_pass": all(checks.values()) if checks else False,
    }
    out_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_pr6.json")
    with open(os.path.abspath(out_path), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.abspath(out_path)}")

    for s in strategies:
        ov = ratios.get(f"{s}_tracing_overhead")
        print(f"{s}: tracing overhead {ov}x")
    print(f"idle span: disabled {idle_off}ns, enabled {idle_on}ns")
    if not report["all_checks_pass"]:
        failed = [k for k, v in checks.items() if not v]
        print(f"FAILED checks: {', '.join(failed)}")
        # Smoke mode runs a single iteration over shrunken data — the
        # ratios are canaries, not gates.
        if not smoke:
            sys.exit(1)


if __name__ == "__main__":
    main()
