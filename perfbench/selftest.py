#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs.

Usage, from the root of the checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json in its `--tiny` variant, untraced and
traced, twice each with the same seed, and checks that

* every result is correct and names every metric BENCHMARK.json declares
  for that mode, with the declared unit;
* every end-to-end metric is reported, including the wall-clock and
  `failed_frac` figures the result object leaves out (the scrape
  latencies on `tenants_paper` only, the workload that serves HTTP);
* both runs of a seed agree exactly on the deterministic metrics: the
  closed-loop outcome (cost, smoothing, peak, latency, failures) and the
  active-set counters (`opt.*`).

Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
DETERMINISTIC = [
    "cost_usd",
    "power_swing_mw",
    "peak_mw",
    "latency_ok_frac",
    "ok_frac",
    "failed_frac",
]
REPORTED = DETERMINISTIC + [
    "step_ms_p50",
    "step_ms_tail",
    "step_cpu_ms_p50",
    "step_cpu_ms_tail",
    "step_ref_ms_p50",
    "step_ref_ms_tail",
    "steps_per_s",
    "steps_per_cpu_s",
    "steps_per_ref_s",
    "setup_s",
    "setup_cpu_s",
    "setup_wall_s",
    "rss_peak_mib",
]
# Reported on the runtime workload only, whose HTTP endpoint is scraped.
SCRAPE = ["scrape_ms_p50", "scrape_ms_tail"]


def run(workload, trace):
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL: {what}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in [(0, spec["end_to_end"]), (1, spec["per_layer"])]:
            runs = [run(workload, trace) for _ in range(2)]
            for detail, result in runs:
                tag = f"{workload} trace={trace}"
                check(result["correct"] is True, f"{tag}: correct")
                check(result["attempted"] >= 1, f"{tag}: attempted")
                names = {m["name"] for m in declared}
                check(set(result["metrics"]) == names, f"{tag}: metric set differs")
                for m in declared:
                    got = result["metrics"].get(m["name"])
                    check(got is not None, f"{tag}: {m['name']} missing")
                    check(got["unit"] == m["unit"], f"{tag}: {m['name']} unit {got['unit']}")
                reported = REPORTED + (SCRAPE if workload == "tenants_paper" else [])
                for name in reported:
                    check(name in detail["end_to_end"], f"{tag}: {name} not reported")
                check("host" in detail and "cores" in detail["host"], f"{tag}: host block")
            (d0, r0), (d1, r1) = runs
            if trace == 0:
                for name in DETERMINISTIC:
                    a = d0["end_to_end"][name]["value"]
                    b = d1["end_to_end"][name]["value"]
                    check(a == b, f"{workload}: {name} differs between runs: {a} vs {b}")
            else:
                for name in [m["name"] for m in spec["per_layer"] if m["name"].startswith("opt.")]:
                    a, b = r0["metrics"][name]["value"], r1["metrics"][name]["value"]
                    check(a == b, f"{workload}: {name} differs between runs: {a} vs {b}")
            print(f"ok  {workload} trace={trace}")
    print("selftest passed")


if __name__ == "__main__":
    main()
