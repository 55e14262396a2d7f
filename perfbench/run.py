#!/usr/bin/env python3
"""Build and run the PRISM benchmark for one workload.

    python3 perfbench/run.py --workload halo_causal --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout.  It configures and builds
perfbench/CMakeLists.txt (the prism libraries from src/ plus the benchmark)
in Release into $CARGO_TARGET_DIR, or .bench_build when that is unset, then
runs the benchmark binary.  The binary's report goes to standard output; its
last line is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 1 the spans of the traced run are written to
<build dir>/spans/<workload>-seed<seed>.trace.json.

Exits nonzero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("halo_causal", "forward_online", "federated_halo", "model_sweep")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(bdir: Path) -> None:
    """Configure once, then build incrementally.  Tool output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                   stdout=sys.stderr, check=True)


def declared_metrics(trace: bool):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    spec = HERE.parent / "BENCHMARK.json"
    if not spec.exists():
        return None
    doc = json.loads(spec.read_text())
    return [(m["name"], m["unit"])
            for m in doc["per_layer" if trace else "end_to_end"]]


def check_result(line: str, trace: bool) -> None:
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    declared = declared_metrics(trace)
    if declared is not None:
        got = [(k, v["unit"]) for k, v in result["metrics"].items()]
        if sorted(got) != sorted(declared):
            raise ValueError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(got) ^ set(declared))}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    bdir = build_dir()
    try:
        build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.self_test:
        return subprocess.run([str(bdir / "perfbench_selftest")]).returncode

    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = bdir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        check_result(lines[-1], bool(args.trace))
    except (ValueError, KeyError) as e:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: bad result line: {e}", file=sys.stderr)
        return 1
    # Passed through unchanged, so every value keeps all its digits.
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
