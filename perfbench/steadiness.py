#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark on one commit.

    python3 perfbench/steadiness.py

Runs the benchmark command from BENCHMARK.json, untraced, ten times on every
workload in each of two sets, each run with another seed.  For every
end-to-end metric and workload it prints each set's median and quartiles and
the spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``) against the metric's bound, and how
far the second set's median moved from the first set's in the metric's worse
direction.  A spread over its bound, a median that worsens by more than the
bound, or a share of failed operations that differs between sets fails the
check.  Exit status 1 if any check fails.  Run from
the root of the checkout; the full record goes to
``.perfbench_out/steadiness.json``.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10       # runs per workload and set
SETS = 2


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            results = [run_once(bench, workload, 1000 * (s + 1) + k) for k in range(1, RUNS + 1)]
            sets.append({
                "failed_share": [r["failed"] / r["attempted"] for r in results],
                "metrics": {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                                for r in results])
                            for m in bench["end_to_end"]},
            })
        record[workload] = sets
        shares = {x for st in sets for x in st["failed_share"]}
        if len(shares) != 1:
            ok = False
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        print(f"\n{workload}  (failed share {sorted(shares)})")
        print(f"  {'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in bench["end_to_end"]:
            first = sets[0]["metrics"][m["name"]]
            for i, st in enumerate(sets):
                sm = st["metrics"][m["name"]]
                verdict = []
                if sm["spread"] > m["bound"]:
                    verdict.append("SPREAD OVER BOUND")
                if i > 0:
                    change = (sm["median"] - first["median"]) / first["median"]
                    worse = change if m["better"] == "lower" else -change
                    verdict.append(f"median {change:+.3f} vs set 1")
                    if worse > m["bound"]:
                        verdict.append("WORSE THAN BOUND")
                ok &= not any(v.isupper() for v in verdict)
                print(f"  {m['name']:<14}{i + 1:>4}{sm['median']:>12.5g}{sm['q1']:>12.5g}"
                      f"{sm['q3']:>12.5g}{sm['spread']:>9.4f}{m['bound']:>7.2f}  "
                      + ("; ".join(verdict) or "ok"))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(record, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
