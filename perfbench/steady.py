#!/usr/bin/env python3
"""
Steadiness evidence: run the benchmark on several seeds per workload and
report, for each end-to-end metric, the inter-quartile range of its values
as a share of their median, next to the bound BENCHMARK.json fixes.

    python3 perfbench/steady.py [--write]

Run from the root of a checkout.  Every workload in BENCHMARK.json runs on
seeds 1..10.  A spread should stay below a third of its bound.  When perfbench/steadiness.json
holds an earlier set, each median is also compared with that set's: none
may be worse by more than its bound.  --write stores the new set there, with
the earlier one under "previous"; run.py copies the latest spreads into every
results file as the observed run-to-run spread.
"""

from __future__ import annotations

import argparse
import json
import platform
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": bench["run_seconds"], "runs": RUNS,
              "measured_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}, "run_took_s": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values, took = {}, []
        for seed in range(1, RUNS + 1):
            t0 = time.monotonic()
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            took.append(round(time.monotonic() - t0, 1))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else 0.0
            entry[name] = {"median": med, "iqr_over_median": round(rel, 5),
                           "bound": bounds.get(name), "values": vals}
            flag = "" if rel < bounds.get(name, 1) / 3 else "  <-- above bound/3"
            if flag:
                ok = False
            print(f"{workload:10s} {name:12s} median {med:12.6g}  spread {rel:.4f}"
                  f"  bound {bounds.get(name)}{flag}", flush=True)
        report["workloads"][workload] = entry
        report["run_took_s"][workload] = took
    path = HERE / "steadiness.json"
    if path.is_file():
        # the rule for a second set: no median worse than the previous
        # set's by more than the bound
        prev = json.loads(path.read_text())
        prev.pop("previous", None)
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        shifts = {}
        for workload, entry in report["workloads"].items():
            old = prev["workloads"].get(workload, {})
            for name, e in entry.items():
                base = old.get(name, {}).get("median")
                if not base:
                    continue
                worse = e["median"] / base - 1 if better[name] == "lower" else 1 - e["median"] / base
                shifts.setdefault(workload, {})[name] = round(worse, 5)
                flag = "" if worse <= bounds[name] else "  <-- worse than the bound"
                ok &= not flag
                print(f"{workload:10s} {name:12s} worse than the previous set by {worse:+.4f}"
                      f"  bound {bounds[name]}{flag}")
        report["previous"] = prev
        report["worse_than_previous"] = shifts
    if args.write:
        path.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
