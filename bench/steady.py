"""Steadiness and reference figures for every workload.

    python3 bench/steady.py                  # every workload
    python3 bench/steady.py grid-r4          # the named workloads only

For each workload, runs ``bench/run.py`` untraced once per seed 1 to 10,
each in a fresh interpreter for ``run_seconds`` of ``BENCHMARK.json``,
and reports the median and quartiles of every end-to-end metric, with the
spread (q3 - q1) / median against its bound.  Then it runs seed 1
traced, twice, checks that every count is identical between the two
traced runs, prints the per-layer figures and the tracing overhead
(traced end-to-end figures against the untraced run of seed 1).  Every
run's output is appended to ``bench/out/runs.jsonl``.
Exits 1 when a spread exceeds its bound, the failed share differs between
runs, or a count differs between the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
LABELLED = ("traced end-to-end", "unscaled end-to-end")  # lines "<label>: {json}"
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=wall)
    for line in lines[:-1]:
        label, _, rest = line.partition(": ")
        if label in LABELLED:
            result[label.replace(" ", "_").replace("-", "_")] = json.loads(rest)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as f:
        f.write(json.dumps(result) + "\n")
    return result


def quartiles(values):
    """(q1, median, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, med, q3, (q3 - q1) / med


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="workload", help="default: all of them")
    args = parser.parse_args(argv)
    if set(args.workloads) - set(names):
        parser.error(f"workloads are {', '.join(names)}")

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads or names:
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        shares = {(r["failed"], r["attempted"]) for r in runs}
        fail_shares = {f / a for f, a in shares}
        print(f"\n## {workload}: seeds {SEEDS[0]}-{SEEDS[-1]},"
              f" failed/attempted {sorted(shares)}, all correct: {all(r['correct'] for r in runs)}")
        if len(fail_shares) > 1 or not all(r["correct"] for r in runs):
            ok = False
        print("| metric | unit | q1 | median | q3 | spread | bound | unscaled spread |")
        print("|---|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            q1, med, q3, spread = quartiles([r["metrics"][name]["value"] for r in runs])
            unscaled = quartiles([r["unscaled_end_to_end"][name]["value"] for r in runs])[3]
            flag = "" if spread <= bound / 3 else " (over a third of the bound)"
            if spread > bound:
                ok = False
                flag = " (OVER THE BOUND)"
            unit = runs[0]["metrics"][name]["unit"]
            print(f"| {name} | {unit} | {fmt(q1)} | {fmt(med)} | {fmt(q3)} | {spread:.3f}{flag}"
                  f" | {bound} | {unscaled:.3f} |")
        traced = [run_once(workload, SEEDS[0], seconds, 1) for _ in range(2)]
        a, b = (t["metrics"] for t in traced)
        differ = [k for k, v in a.items() if v["unit"] == "count" and v["value"] != b[k]["value"]]
        if differ:
            ok = False
        print(f"\nTraced, seed {SEEDS[0]}, per round; counts identical between two"
              f" traced runs: {'yes' if not differ else 'NO: ' + ', '.join(differ)}")
        print("| per-layer metric | unit | value |")
        print("|---|---|---|")
        for name, m in a.items():
            print(f"| {name} | {m['unit']} | {fmt(m['value'])} |")
        print(f"\nTracing overhead (traced run / untraced run of seed {SEEDS[0]} - 1):")
        plain = runs[0]["metrics"]
        for name, m in traced[0]["traced_end_to_end"].items():
            if name != "setup_s":
                print(f"- {name}: {m['value'] / plain[name]['value'] - 1:+.1%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
