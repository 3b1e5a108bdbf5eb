#!/usr/bin/env python3
"""Steadiness report: run each workload on seeds 1..runs and show, for every
end-to-end metric, the median, the quartiles and whether the spread fits
the metric's bound in BENCHMARK.json.

    python3 bench/steady.py --runs 10 --save set1.json
    python3 bench/steady.py --runs 10 --baseline set1.json
    python3 bench/steady.py --runs 5 --workload wide-1m

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). Runs are sequential, each for
BENCHMARK.json's run_seconds. The set is steady when no operation failed,
every metric's spread is within its bound and, with --baseline, no median
is worse than that earlier set's median by more than the bound.
--pins merges each run's recs digest and mAP into a pin file; --save writes
the summary together with the git SHA, nproc and the src/ line count.
"""

import argparse
import json
import os
from pathlib import Path
import statistics
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    pins = dict(line.split("=", 1) for line in lines
                if line.startswith(("recs_sha256=", "map_at_k=")))
    return {"result": result, "pins": pins}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default every workload")
    parser.add_argument("--pins", type=Path, help="pin file to merge digests into")
    parser.add_argument("--baseline", type=Path,
                        help="summary of an earlier set (from --save) to compare with")
    parser.add_argument("--save", type=Path, help="write this set's summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = range(1, args.runs + 1)
    baseline = (json.loads(args.baseline.read_text())["workloads"]
                if args.baseline else {})
    summary, pins, steady = {}, {}, True
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        for seed in seeds:
            out = run_once(workload, seed, spec["run_seconds"])
            result = out["result"]
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                steady = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            pins.setdefault(workload, {})[str(seed)] = out["pins"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            s = summarize(vals)
            s["unit"] = bounds[name]["unit"]
            s["bound"] = bounds[name]["bound"]
            before = baseline.get(workload, {}).get(name)
            if before is not None:
                # how much worse than the earlier set, as a share of its median
                sign = 1 if bounds[name]["better"] == "lower" else -1
                s["baseline_median"] = before["median"]
                s["worse_by"] = sign * (s["median"] - before["median"]) / before["median"]
            summary[workload][name] = s
    print(f"\n{'workload':18s} {'metric':22s} {'unit':8s} {'median':>11s} "
          f"{'q1':>11s} {'q3':>11s} {'spread':>7s} {'worse':>7s} {'bound':>6s} fits")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            worse = s.get("worse_by")
            fits = s["spread"] <= s["bound"] and (worse is None or worse <= s["bound"])
            steady = steady and fits
            print(f"{workload:18s} {name:22s} {s['unit']:8s} {s['median']:11.5g} "
                  f"{s['q1']:11.5g} {s['q3']:11.5g} {s['spread']:7.3f} "
                  f"{'-' if worse is None else f'{worse:+.3f}':>7s} "
                  f"{s['bound']:6.2f} {'yes' if fits else 'NO'}")

    if args.pins:
        merged = json.loads(args.pins.read_text()) if args.pins.exists() else {}
        for workload, by_seed in pins.items():
            merged.setdefault(workload, {}).update(by_seed)
        args.pins.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    if args.save:
        args.save.write_text(json.dumps({
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "src_lines": src_line_count(), "runs": args.runs,
            "seeds": list(seeds), "run_seconds": spec["run_seconds"],
            "workloads": summary}, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
