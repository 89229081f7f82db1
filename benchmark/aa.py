#!/usr/bin/env python3
"""A/A check of the benchmark: the same build measured against itself.

Runs the acceptance protocol a driver applies to this benchmark, locally:

* for every workload, the end-to-end (untraced) run with seeds 1..N, as
  set A, then the same again as set B;
* per end-to-end metric, the *spread* of each set: the distance between
  the first and third quartile of its N values (statistics.quantiles,
  n=4) as a share of their median -- it must stay within the metric's
  bound (setup_s excepted), and should stay under a third of it;
* per end-to-end metric, the *drift*: by how much set B's median is worse
  than set A's -- it must stay within the bound too;
* the per-layer (traced) run twice, asserting that every metric of unit
  `count` repeats exactly (the serve.* counts excepted: the served loop is
  time-boxed, so its job count is not an input).

Writes the result to benchmark/aa.json and exits non-zero on a miss.

    python3 benchmark/aa.py [--runs 10] [--seconds S] [--workloads W ...]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Build the benchmark once; return the executable's path."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        check=True,
        env={**os.environ, "CARGO_TARGET_DIR": target},
    )
    return os.path.join(target, "release", "benchmark")


def run(exe, workload, seed, seconds, trace):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=ROOT,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answer or failed operation")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share of `first` by which `second` is worse (negative: better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main():
    contract = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    ap.add_argument("--seconds", type=int, default=contract["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in contract["workloads"]])
    ap.add_argument("--exe", help="a prebuilt benchmark executable (default: build one)")
    ap.add_argument("--out", default=os.path.join(HERE, "aa.json"))
    args = ap.parse_args()
    exe = args.exe or build()
    seeds = range(1, args.runs + 1)
    started = time.time()

    rows, ok = [], True
    for w in args.workloads:
        sets = []
        for label in "AB":
            runs = []
            for seed in seeds:
                runs.append(run(exe, w, seed, args.seconds, 0))
                print(f"  {w} set {label} seed {seed}: tts_s {runs[-1]['tts_s']:.4f}", file=sys.stderr)
            sets.append(runs)
        for m in contract["end_to_end"]:
            a, b = ([r[m["name"]] for r in s] for s in sets)
            row = {
                "workload": w, "metric": m["name"], "unit": m["unit"], "bound": m["bound"],
                "median_a": statistics.median(a), "median_b": statistics.median(b),
                "spread_a": spread(a), "spread_b": spread(b),
                "drift": worse_by(statistics.median(a), statistics.median(b), m["better"]),
            }
            steady = m["name"] == "setup_s" or max(row["spread_a"], row["spread_b"]) <= m["bound"]
            row["within_bound"] = steady and row["drift"] <= m["bound"]
            row["spread_under_a_third"] = max(row["spread_a"], row["spread_b"]) <= m["bound"] / 3
            ok &= row["within_bound"]
            rows.append(row)

    mismatches, checked = [], 0
    for w in args.workloads:
        first, second = (run(exe, w, 1, args.seconds, 1) for _ in range(2))
        for m in contract["per_layer"]:
            if m["unit"] == "count" and not m["name"].startswith("serve."):
                checked += 1
                if first[m["name"]] != second[m["name"]]:
                    mismatches.append({"workload": w, "metric": m["name"], "a": first[m["name"]], "b": second[m["name"]]})
    ok &= not mismatches

    print(f"{'workload':<10} {'metric':<18} {'median A':>14} {'median B':>14} {'spread A':>9} {'spread B':>9} {'drift':>8} {'bound':>6}")
    for r in rows:
        flag = "" if r["within_bound"] else "  MISS"
        flag += "" if r["spread_under_a_third"] or r["metric"] == "setup_s" else "  (spread above bound/3)"
        print(f"{r['workload']:<10} {r['metric']:<18} {r['median_a']:>14.6g} {r['median_b']:>14.6g} "
              f"{r['spread_a']:>9.2%} {r['spread_b']:>9.2%} {r['drift']:>+8.2%} {r['bound']:>6.0%}{flag}")
    print(f"counts: {checked} checked, {len(mismatches)} differ")
    for mm in mismatches:
        print(f"  {mm}")

    json.dump({
        "ok": ok,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(), "system": platform.platform()},
        "runs_per_set": args.runs, "seconds": args.seconds, "wall_seconds": round(time.time() - started),
        "end_to_end": rows,
        "counts": {"checked": checked, "mismatches": mismatches},
    }, open(args.out, "w"), indent=1)
    print(f"wrote {args.out}: {'ok' if ok else 'MISS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
