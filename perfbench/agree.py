#!/usr/bin/env python3
"""Agreement check: two sets of runs of one commit.

    python3 perfbench/agree.py [--runs 10] [--workloads a,b] [--seconds S]

Run from the repository root. Each run calls perfbench/run.py with its own
seed (set s, run i uses seed 1000 * s + i + 1). For every workload and
end-to-end metric it prints each set's median with its quartiles and the
spread (quartile distance over median, flagged when above a third of the
metric's bound in BENCHMARK.json), and says whether the two medians agree:
|second - first| / first within the bound. The sets also agree only if
every run exited 0 with correct answers and the share of failed calls is
the same in both. Raw results go to perfbench/out/agree-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    info = [l for l in p.stderr.splitlines() if l.startswith("#")]
    return {"workload": workload, "seed": seed, "exit": p.returncode,
            "wall_s": time.time() - t0, "result": result, "info": info,
            "stderr": p.stderr[-2000:] if p.returncode else ""}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    runs = []
    for s in range(SETS):
        for i in range(args.runs):
            for w in workloads:
                r = run_once(w, 1000 * s + i + 1, args.seconds)
                r["set"] = s
                runs.append(r)
                print(f"set {s + 1} run {i + 1} {w} seed {r['seed']}: exit {r['exit']} "
                      f"({r['wall_s']:.1f} s)", flush=True)
                if r["exit"]:
                    print(r["stderr"], file=sys.stderr)

    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    out = os.path.join(ROOT, "perfbench", "out", f"agree-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump(runs, f, indent=1)

    all_agree = True
    for w in workloads:
        print(f"\n== {w}")
        sets = [[r for r in runs if r["workload"] == w and r["set"] == s] for s in range(SETS)]
        shares = []
        for s, rs in enumerate(sets):
            results = [r["result"] for r in rs if r["result"]]
            bad_exit = sum(r["exit"] != 0 for r in rs)
            wrong = sum(not res["correct"] for res in results)
            failed = sum(res["failed"] for res in results)
            attempted = sum(res["attempted"] for res in results)
            shares.append(failed / attempted if attempted else None)
            all_agree &= bad_exit == 0 and wrong == 0
            print(f"  set {s + 1}: {len(rs)} runs, non-zero exits {bad_exit}, "
                  f"runs with wrong answers {wrong}, failed {failed}/{attempted}")
        if shares[0] != shares[1]:
            all_agree = False
            print(f"  failed shares differ: {shares[0]} vs {shares[1]}")
        # Medians come from the runs that printed a result; a run that did
        # not has already made the sets disagree above.
        results = [[r["result"] for r in rs if r["result"]] for rs in sets]
        if any(len(rs) < 2 for rs in results):
            print("  too few runs with a result")
            all_agree = False
            continue
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summary([res["metrics"][name]["value"] for res in rs]) for rs in results]
            line = f"  {name:16s}"
            for med, q1, q3, spread in stats:
                flag = "*" if name != "setup_s" and spread > bound / 3 else " "
                line += f" | median {med:12.4f} [{q1:.4f}, {q3:.4f}] spread {spread * 100:5.1f}%{flag}"
            a, b = stats[0][0], stats[1][0]
            shift = (b - a) / a
            ok = abs(shift) <= bound
            all_agree &= ok
            line += f" | shift {shift * 100:+6.2f}% bound {bound * 100:.0f}% {'agree' if ok else 'DISAGREE'}"
            print(line)
    print("\n* spread above a third of the metric's bound")
    print(f"raw results: {os.path.relpath(out, ROOT)}")
    print("all metrics agree" if all_agree else "some metrics disagree")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
