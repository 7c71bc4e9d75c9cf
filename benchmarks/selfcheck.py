#!/usr/bin/env python3
"""Check that the benchmark agrees with itself.

    python3 benchmarks/selfcheck.py

Runs two sets of ten untraced runs of every workload in BENCHMARK.json on
the same code, each run on its own seed and of BENCHMARK.json's
``run_seconds`` (set A on seeds 1-10, set B on seeds 11-20, alternating A
and B), and reports per workload and end-to-end metric:

* the spread of each set, the distance between the first and third
  quartiles as a share of the median, which must stay within the metric's
  bound;
* the change of set B's median against set A's in the metric's worse
  direction, which must stay within the bound;
* the share of failed operations, which must be the same in both sets.

Bounds come from BENCHMARK.json.  Exits 1 when any check fails; the runs
are kept in ``benchmarks/out/selfcheck.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2)


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    results = {}
    ok = True
    print(f"{'workload':18} {'metric':12} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'B vs A':>8} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name, seed in (("A", 1 + i), ("B", 1 + RUNS + i)):
                sets[name].append(run_once(spec["command"], workload, seed,
                                           spec["run_seconds"]))
        results[workload] = sets
        for name, runs in sets.items():
            if not all(r["correct"] for r in runs):
                print(f"{workload}: set {name} reported incorrect outputs")
                ok = False
        shares = {name: {Fraction(r["failed"], r["attempted"]) for r in runs}
                  for name, runs in sets.items()}
        if len(shares["A"] | shares["B"]) != 1:
            print(f"{workload}: failed shares differ: {shares}")
            ok = False
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            values = {name: [r["metrics"][key]["value"] for r in runs]
                      for name, runs in sets.items()}
            med = {name: statistics.median(v) for name, v in values.items()}
            spr = {name: spread(v) for name, v in values.items()}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (med["B"] - med["A"]) / abs(med["A"])
            good = worse <= bound and max(spr.values()) <= bound
            ok &= good
            print(f"{workload:18} {key:12} {med['A']:12.6g} {med['B']:12.6g} "
                  f"{spr['A']:9.4f} {spr['B']:9.4f} {worse:+8.4f} {bound:6.3f}  "
                  f"{'ok' if good else 'FAIL'}"
                  f"{'' if max(spr.values()) <= bound / 3 else ' (spread above bound/3)'}")
    out = HERE / "out" / "selfcheck.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
