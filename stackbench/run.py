#!/usr/bin/env python3
"""Run one workload of the stack benchmark and print its result.

    python3 stackbench/run.py --workload <name>|all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the load generator in
stackbench/rig (a cargo package of its own over the repository's crates;
target directory $CARGO_TARGET_DIR, default .bench_build), runs it, and
checks its output against BENCHMARK.json.

Output, on standard output, for each workload run (`all` runs every
workload of BENCHMARK.json in turn):
  * one line per metric: name, value, unit, and sample count or source;
  * a `{"meta": ...}` line: commit, toolchain, host, seed, run length, sizes,
    and the error ratio (ops not completed OK / ops attempted);
  * last, the result: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones; the traced run also writes the ladder's spans
to .bench_out/. Exits 0 when every check passed, 1 when one failed, and 2
(printing no result) when the benchmark cannot run.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RIG_MANIFEST = os.path.join(HERE, "rig", "Cargo.toml")
# Wall-clock budget for one run, build excluded.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"stackbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {os.path.relpath(path, ROOT)}: {e}")


def target_dir():
    # A relative CARGO_TARGET_DIR is relative to the caller's directory.
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Build the rig; return its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ are missing; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", RIG_MANIFEST]
    try:
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"building the rig failed: {e}")
    return os.path.join(target_dir(), "release", "stackbench-rig")


def sh(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def meta(args, workload, rig):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    commit = sh(["git", "rev-parse", "HEAD"])
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": bool(sh(["git", "status", "--porcelain", "--untracked-files=no"])) if commit else None,
        "rustc": sh(["rustc", "-V"]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": rig.get("sizes", {}),
        "error_ratio": rig["failed"] / rig["attempted"] if rig["attempted"] else None,
        "problems": rig.get("problems", []),
    }


def run_one(bench, args, workload, rig):
    """Run `workload` once and print its table, meta and result; return
    whether its checks passed."""
    cmd = [rig, "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", os.path.join(ROOT, ".bench_out")]
    if args.fault:
        cmd.append("--fault")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"the rig exited with {proc.returncode}")
    out = json.loads(lines[-1])

    spec = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in spec:
        got = out["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"the rig printed {m['name']} as {got}, BENCHMARK.json declares a number in {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    for name, v in metrics.items():
        note = out.get("sources", {}).get(name, "")
        if name.startswith("latency_"):
            note = f"{out['samples']} samples"
        print(f"{workload:24} {name:30} {v['value']:>16.4f} {v['unit']:6} {note}")
    info = meta(args, workload, out)
    if info["error_ratio"] is not None:
        print(f"{workload:24} {'error_ratio':30} {info['error_ratio']:>16.4f} {'ratio':6} "
              f"{out['failed']} of {out['attempted']} ops")
    for p in out["problems"]:
        print(f"{workload:24} CHECK FAILED: {p}")
    info["run_wall_s"] = round(time.monotonic() - t0, 3)
    print(json.dumps({"meta": info}))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}), flush=True)
    return out["correct"]


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=layers["default_seed"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--fault", action="store_true",
                    help="corrupt one checked tally, so the run must come out incorrect (self-test)")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    rig = build()
    names = workloads if args.workload == "all" else [args.workload]
    correct = [run_one(bench, args, w, rig) for w in names]
    sys.exit(0 if all(correct) else 1)


if __name__ == "__main__":
    main()
