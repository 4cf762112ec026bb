#!/usr/bin/env python3
"""Run the PR9 cache-churn harness and emit BENCH_pr9.json.

Runs `cargo bench -p cr-bench --bench cache_churn`, parses the
`[PR9] scenario=... key=value ...` lines, and writes a JSON report with
the raw metrics (warm-cache hit rate, p95 lookup latency and maintenance
counts under a Zipf write-storm mix with push-advance maintenance).

Gates (recorded always; only fatal without --smoke):

* warm_hit_rate: push-mode hit rate must exceed 50% under the
  write-storm mix (the PR9 acceptance criterion).
* push_spares: the push run must actually spare entries (nonzero
  key-gate advances), or the hit rate is coming from somewhere else.
"""

import json
import os
import re
import subprocess
import sys

LINE = re.compile(r"\[PR9\] scenario=(\S+)((?:\s+\w+=[0-9.]+)+)")
PAIR = re.compile(r"(\w+)=([0-9.]+)")


def run_bench(smoke):
    cmd = ["cargo", "bench", "-q", "-p", "cr-bench", "--bench", "cache_churn", "--"]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    sys.stdout.write(out)
    metrics = {}
    for m in LINE.finditer(out):
        scenario = m.group(1)
        for k, v in PAIR.findall(m.group(2)):
            metrics[f"{scenario}.{k}"] = float(v) if "." in v else int(v)
    return metrics


def main():
    smoke = "--smoke" in sys.argv[1:]
    metrics = run_bench(smoke)

    push_rate = metrics.get("churn_push.hit_rate_pct")

    gates = []
    ok = True

    def gate(name, cond, detail):
        nonlocal ok
        gates.append({"name": name, "ok": bool(cond), "detail": detail})
        print(f"{'PASS' if cond else 'FAIL'}: {name}: {detail}")
        ok &= bool(cond)

    gate(
        "warm_hit_rate",
        push_rate is not None and push_rate > 50.0,
        f"push-mode hit rate {push_rate}% vs floor 50%",
    )
    spared = metrics.get("churn_push.spared")
    gate(
        "push_spares",
        spared is not None and spared > 0,
        f"{spared} entries push-advanced past disjoint writes",
    )

    report = {
        "smoke": smoke,
        "host_cpus": os.cpu_count() or 1,
        "metrics": metrics,
        "gates": gates,
    }
    out_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_pr9.json")
    with open(os.path.abspath(out_path), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.abspath(out_path)}")

    if not ok and not smoke:
        print("FAIL: at least one PR9 gate failed", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
