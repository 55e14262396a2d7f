#!/usr/bin/env python3
"""Run each workload N times and report how steady each metric is.

    python3 perfbench/steadiness.py --runs 10 [--workloads halo_causal ...]
        [--sets 2] [--seconds S] [--trace 0|1] [--first-seed 1] [--json FILE]

Every run uses another seed.  For each metric it prints the median, the
interquartile range as a share of the median (statistics.quantiles, n=4;
one per set, each checked) and the max/min spread of the first set.  With --trace 0 it also checks each end-to-end
metric against its bound in BENCHMARK.json: the IQR share must stay within
the bound (setup_s excepted), and with --sets 2 the second set's median
must not be worse than the first's by more than the bound.  Run it from
the root of a checkout; exits nonzero when a check fails.  --json writes
every run's values to FILE.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{out.returncode}")
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / med if med else 0.0
    lo, hi = min(values), max(values)
    return med, iqr, (hi / lo if lo else float("inf"))


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="write every run's values here")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be >= 2")

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    dump = {}
    for wl in args.workloads:
        sets = []
        for s in range(args.sets):
            values, bad = {}, 0
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                res = run_once(wl, seed, args.seconds, args.trace)
                bad += (not res["correct"]) or res["failed"] != 0
                for k, v in res["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
            if bad:
                print(f"{wl}: {bad} run(s) failed a correctness check")
                ok = False
            sets.append(values)
        dump[wl] = sets
        print(f"\n{wl}  ({args.runs} runs x {args.sets} set(s), "
              f"{args.seconds:g} s each)")
        print(f"  {'metric':32} {'median':>14} {'iqr/med':>8} "
              f"{'max/min':>8}  verdict")
        for name in sets[0]:
            med, _, mm = spread(sets[0][name])
            iqrs = [spread(v[name])[1] for v in sets]
            verdict = ""
            b = bounds.get(name) if args.trace == 0 else None
            if b:
                bound = b["bound"]
                if name != "setup_s" and max(iqrs) > bound:
                    verdict, ok = f"IQR > bound {bound}", False
                elif name != "setup_s" and max(iqrs) > bound / 3:
                    verdict = f"IQR > bound/3 ({bound / 3:.3f})"
                if len(sets) == 2 and med:
                    med2 = statistics.median(sets[1][name])
                    worse = ((med - med2) / med if b["better"] == "higher"
                             else (med2 - med) / med)
                    verdict += f" set2 {worse:+.3f}"
                    if worse > bound:
                        verdict += " WORSE THAN BOUND"
                        ok = False
            iqr_text = "/".join(f"{q:.4f}" for q in iqrs)
            print(f"  {name:32} {med:14.6g} {iqr_text:>8} {mm:8.3f}  {verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps(dump, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
