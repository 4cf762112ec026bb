#!/usr/bin/env python3
"""Benchmark crserve: one traffic mix over TCP, end to end or split by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload browse|social|analytics --seed N \
        --seconds S --trace 0|1

Builds the `perfbench` package (perfbench/Cargo.toml, its own workspace)
in release mode into $CARGO_TARGET_DIR (default `.bench_build`), builds
the durable 10% campus once per digest of the sources, and runs one
workload on a fresh copy of it. The seed draws the request stream; the
campus is the same for all seeds.

* `--trace 0` serves the campus through `Server::serve_tcp` on loopback
  with `ServerConfig::default()` (crserve's defaults) and drives a closed
  loop of 2 connections; it reports the end-to-end metrics.
* `--trace 1` warms up the same closed loop, counts the server's snapshot
  republications over a further 2 s window, then replays connection 0's
  seeded stream on one thread through each layer's public entry point
  with a span around every call; it reports the per-layer metrics. Layer
  times are self time per traced request (`ns/req`), so across layers
  they add up to the traced request time times `trace.coverage_pct`.

Lines starting with `#` are the human-readable report: host, commit,
seed and scale (`# run:`), set-up stages,
every request kind's p50/p99 with its sample count, the durability check
and the layer breakdown. The last stdout line is the result:
`{"correct", "attempted", "failed", "metrics"}`. The metric names and
units must equal those BENCHMARK.json lists for the mode, and the
workload names those the runner knows, or the run fails without a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# The first run of a checkout builds the binary and the campus, and must
# end within 900 s.
BUILD_TIMEOUT_S = 600
FIXTURE_TIMEOUT_S = 150
# Beyond --seconds, a run sets up 5 times, sweeps the caches' working
# sets, warms up for up to 10 s and checks durability.
RUN_MARGIN_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", MANIFEST]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_binary(args, report, timeout):
    """Run the benchmark binary; relay its report lines and return the last."""
    try:
        proc = subprocess.run(
            args, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{args[1]} failed: {e}")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{args[1]} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if report:
            print(line)
    return lines[-1] if lines else ""


def code_digest():
    """A digest of the sources, which names the code in a non-git checkout."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench", "vendor"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if a.workload not in workloads:
        fail(f"unknown workload {a.workload}; BENCHMARK.json lists {workloads}")
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(env)
    work = os.path.join(env["CARGO_TARGET_DIR"], "perfbench-work")

    known = run_binary([binary, "workloads"], report=False, timeout=30).split()
    if sorted(known) != sorted(workloads):
        fail(f"BENCHMARK.json workloads {workloads} differ from the runner's {known}")
    digest = code_digest()
    run_binary(
        [binary, "fixture", "--work", work, "--key", digest],
        report=True,
        timeout=FIXTURE_TIMEOUT_S,
    )

    info = {
        "host_nproc": os.cpu_count(),
        "commit": commit(),
        "code_digest": digest,
        "seed": a.seed,
        "scale": 0.1,
        "workload": a.workload,
        "seconds": a.seconds,
        "trace": a.trace,
    }
    print("# run: " + json.dumps(info, sort_keys=True))
    last = run_binary(
        [
            binary, "run",
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--trace", str(a.trace),
            "--work", work,
            "--key", digest,
        ],
        report=True,
        timeout=a.seconds + RUN_MARGIN_S,
    )
    try:
        result = json.loads(last)
    except ValueError:
        fail(f"no result line from the runner: {last[:200]!r}")

    listed = spec["per_layer"] if a.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")

    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


if __name__ == "__main__":
    main()
