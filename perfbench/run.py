#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and compiles the library
and the benchmark binary (perfbench/src) into $CARGO_TARGET_DIR (default .bench_build) with
CMake; later calls rebuild only what changed. The binary runs one workload and reports
its metrics; this script checks them against BENCHMARK.json, writes the full record
(stamped with host core count, thread pools, build type and commit) under
<build dir>/results/, and prints the result object as the last line of stdout.

Workloads and metrics are documented in perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(out: Path) -> Path:
    """Configures and builds the binary (incrementally); returns the binary's path."""
    tree = out / "perfbench"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(tree), *generator,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(tree), "-j", jobs]]
    for step in steps:
        # Build output goes to stderr: stdout carries only the benchmark's lines.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    # Flush the build's writes now rather than during the measurement.
    os.sync()
    return tree / "perfbench"


def source_id() -> str:
    """The commit when the checkout is a git repository, else a digest of src/."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of the host's CPUs so far, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def complete_metrics(record: dict, trace: bool, spec: dict) -> dict:
    """The metrics this run prints: every end-to-end metric of an untraced run,
    every per-layer metric of a traced one. The binary reports each of them itself (a
    layer the workload never reaches as an explicit 0, named in the record's
    `unreached`); a metric missing, extra or in another unit is an error in the
    binary."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    measured = record["metrics"]
    for name, metric in measured.items():
        if name not in declared:
            sys.exit(f"perfbench: binary reported undeclared metric {name}")
        if metric["unit"] != declared[name]:
            sys.exit(f"perfbench: {name} reported in {metric['unit']}, "
                     f"declared in {declared[name]}")
        if metric["value"] is None:
            sys.exit(f"perfbench: {name} is not a finite number")
    missing = [name for name in declared if name not in measured]
    if missing:
        sys.exit(f"perfbench: binary did not report {', '.join(missing)}")
    return {name: {"value": measured[name]["value"], "unit": unit}
            for name, unit in declared.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload}")
    out = build_dir()
    binary = build(out)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    commit = source_id()

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(results), "--commit", commit]
    steal_before, total_before = cpu_ticks()
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    steal_after, total_after = cpu_ticks()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: binary exited with {done.returncode}")
    record = json.loads(lines[-1])
    metrics = complete_metrics(record, bool(args.trace), spec)

    record["stamp"].update({
        "nproc": os.cpu_count(),
        "parallax_threads_env": os.environ.get("PARALLAX_THREADS"),
        # Share of CPU time the hypervisor gave to other guests while the run measured:
        # wall-clock figures from runs with a high share are not comparable.
        "host_steal_share": (steal_after - steal_before) / max(total_after - total_before, 1),
        "unix_time": time.time(),
    })
    record["reported_metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    info = record["info"]
    summary = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    diagnostics = ", ".join(f"{k} {info[k]:.6g}" for k in
                            ("latency_ms_p50", "throughput_per_s", "sim_iter_ms",
                             "final_loss", "failed_ratio") if k in info)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {summary}"
          f" | {diagnostics}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
