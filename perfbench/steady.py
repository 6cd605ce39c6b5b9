"""Steadiness check: two interleaved sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--workloads batch,stream,cluster-migrate]
        [--runs 5] [--seconds S] [--seed 1] [--trace]

Set A runs seeds ``seed .. seed+runs-1`` and set B seeds ``seed+1000 ..``;
the two sets alternate which goes first in each round, so drift in the
machine's load lands on both.  For every (workload, end-to-end metric)
the command prints each set's median and quartiles, the spread (the
distance between the quartiles as a share of the median) and how far set
B's median lies from set A's, against the bound declared in
``BENCHMARK.json``.  Each pair gets one verdict:

- ``FAIL``: the medians disagree by more than the bound, or a set's
  spread exceeds it (``setup_s`` is judged on its medians only);
- ``unresolved``: within the bound, but a spread is at least a third of
  it, so one run against a baseline cannot resolve a change of the
  bound's size; compare interleaved pairs of runs instead;
- ``steady``: every spread is below a third of the bound.

The command exits 1 if any pair fails or any run is incorrect.
``--trace`` adds one traced run per workload and prints its per-layer
report.  Raw results are written to ``.perfbench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")


def load_declaration() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    result.update(
        workload=workload, seed=seed, trace=trace, exit=done.returncode,
        env=env[0] if env else {},
        elapsed_s=time.perf_counter() - began, report=lines[:-1],
        stderr=done.stderr[-2000:],
    )
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / middle if middle else 0.0,
    }


def main() -> int:
    declared = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    workloads = args.workloads.split(",")
    metrics = declared["end_to_end"]
    sets = "AB"

    runs: List[Dict[str, Any]] = []
    for r in range(args.runs):
        order = sets if r % 2 == 0 else sets[::-1]
        for workload in workloads:
            for name in order:
                seed = args.seed + r + (1000 if name == "B" else 0)
                result = run_once(workload, seed, args.seconds, 0)
                result["set"] = name
                runs.append(result)
                print(f"[{name}] {workload} seed={seed} exit={result['exit']} "
                      f"correct={result.get('correct')} "
                      f"steal={result['env'].get('steal_share', float('nan')):.3f} "
                      f"elapsed={result['elapsed_s']:.1f}s", flush=True)

    ok = all(run["exit"] == 0 and run.get("correct") for run in runs)
    for run in runs:
        if run["exit"] != 0 or not run.get("correct"):
            print(f"FAILED run {run['workload']} seed={run['seed']}: exit {run['exit']}")
            print("\n".join(run["report"][-8:]) + run["stderr"])
    summary: Dict[str, Any] = {}
    verdicts: Dict[str, int] = {}
    for workload in workloads:
        print(f"\n{workload}  (spread = (q3 - q1) / median; shift = |B - A| / A)")
        print(f"  {'metric':<20} {'unit':<6} {'bound':>6} {'A median':>12} "
              f"{'A spread':>9} {'B median':>12} {'B spread':>9} {'shift':>7}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            per_set = {}
            for label in sets:
                values = [
                    run["metrics"][name]["value"] for run in runs
                    if run["workload"] == workload and run["set"] == label
                    and name in run.get("metrics", {})
                ]
                if len(values) >= 2:
                    per_set[label] = spread(values)
            if len(per_set) < 2:
                print(f"  {name:<20} too few correct runs to compare")
                ok = False
                continue
            a, b = per_set["A"], per_set["B"]
            shift = abs(b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            widest = 0.0 if name == "setup_s" else max(a["spread"], b["spread"])
            if shift > bound or widest > bound:
                verdict = "FAIL"
            elif widest >= bound / 3:
                verdict = "unresolved"
            else:
                verdict = "steady"
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            ok = ok and verdict != "FAIL"
            print(f"  {name:<20} {metric['unit']:<6} {bound:>6.3f} {a['median']:>12.5g} "
                  f"{a['spread']:>9.4f} {b['median']:>12.5g} {b['spread']:>9.4f} "
                  f"{shift:>7.4f}  {verdict}")
            summary.setdefault(workload, {})[name] = dict(per_set, shift=shift, verdict=verdict)

    if args.trace:
        for workload in workloads:
            result = run_once(workload, args.seed, args.seconds, 1)
            runs.append(result)
            ok = ok and result["exit"] == 0 and bool(result.get("correct"))
            print()
            print("\n".join(line for line in result["report"] if not line.startswith("env ")))
            if result["exit"] != 0:
                print(result["stderr"])

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"args": vars(args), "summary": summary, "runs": runs}, f, indent=1)
    counts = ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items()))
    print(f"\n{counts}; {'no check failed' if ok else 'SOME CHECKS FAILED'}; "
          f"raw results in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
