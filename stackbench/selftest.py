#!/usr/bin/env python3
"""Self-test of the stack benchmark.

    python3 stackbench/selftest.py

Run from the repository root. Checks that:
  * stackbench/layers.json names every per-layer metric of BENCHMARK.json,
    and that each metric it says a layer moves is a declared end-to-end
    metric on a declared workload;
  * a very short run of every workload, untraced and traced, passes its
    checks and prints every metric BENCHMARK.json declares for that mode,
    with its unit, both in the table and in the result line;
  * a run whose checked tally is deliberately corrupted (--fault) comes out
    incorrect and exits 1, on every workload.
Exits 0 when all hold; prints each failure otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, lines, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    declared = {m["name"] for m in bench["per_layer"]}
    mapped = set(layers["per_layer"])
    expect(declared == mapped, f"layers.json maps exactly the per-layer metrics (missing {declared - mapped}, "
                               f"extra {mapped - declared})")
    for name, entry in layers["per_layer"].items():
        for mv in entry["moves"]:
            expect(mv["metric"] in e2e and mv["workload"] in workloads, f"{name} moves {mv}")
        expect(set(entry["flat_on"]) <= set(workloads), f"{name} flat_on names declared workloads")

    for w in workloads:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, lines, result = run(w, trace)
            expect(code == 0 and result is not None, f"{w} trace {trace}: exit {code}")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace {trace}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w} trace {trace}: correct, attempted {result['attempted']}, failed {result['failed']}")
            table = [l.split() for l in lines[:-2]]
            for m in spec:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
                       f"{w} trace {trace}: {m['name']} printed as {got}, unit {m['unit']}")
                row = next((r for r in table if len(r) > 3 and r[1] == m["name"]), None)
                expect(row is not None and row[3] == m["unit"], f"{w} trace {trace}: table row for {m['name']}")
        code, _, result = run(w, 0, "--fault")
        expect(code == 1 and result is not None and not result["correct"],
               f"{w}: a corrupted tally trips the checker (exit {code})")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
