#!/usr/bin/env python3
"""Summarizes benchmark result records into one JSON document.

    python3 perfbench/summarize.py <results dir or record files...> [--out FILE]

Reads the records run.py writes under <build dir>/results/ and reports, per workload,
each end-to-end metric's median, quartiles and spread (inter-quartile range over the
median, as statistics.quantiles(n=4) gives them) over the untraced runs, the median of
each per-layer metric over the traced runs (and which of them the workload never
reaches), the deterministic diagnostics per seed, plan_service's query shares, and the
stamps (host cores, thread pools, build type, commit). The committed baselines in
perfbench/results/ were made with it.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths):
    records = []
    for path in paths:
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            record = json.loads(file.read_text())
            if "reported_metrics" in record:
                records.append(record)
    return records


def spread(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def summarize(records):
    out = {}
    for record in records:
        stamp = record["stamp"]
        workload = out.setdefault(stamp["workload"], {
            "end_to_end": {}, "per_layer": {}, "diagnostics": {}, "stamps": set()})
        kind = "per_layer" if stamp["trace"] else "end_to_end"
        for name, metric in record["reported_metrics"].items():
            workload[kind].setdefault(name, {"unit": metric["unit"], "values": []})
            workload[kind][name]["values"].append(metric["value"])
        diagnostics = workload["diagnostics"].setdefault(str(stamp["seed"]), {})
        for name in ("sim_iter_ms", "final_loss", "failed_ratio"):
            if name in record["info"]:
                diagnostics.setdefault(name, set()).add(record["info"][name])
        for name, value in record["info"].items():
            if name.startswith("share."):
                workload.setdefault("shares", {}).setdefault(name, []).append(value)
        if record.get("unreached"):
            workload["unreached"] = sorted(record["unreached"])
        if "host_steal_share" in stamp:
            workload.setdefault("host_steal_share", []).append(stamp["host_steal_share"])
        for name, unit in (("latency_ms_p50", "ms"), ("throughput_per_s", "1/s")):
            if not stamp["trace"] and name in record["info"]:
                workload["end_to_end"].setdefault(f"{name} (not gated)", {
                    "unit": unit, "values": []})["values"].append(record["info"][name])
        workload["stamps"].add(json.dumps({
            "nproc": stamp.get("nproc"),
            "sparse_pool_threads": record["info"].get("sparse_pool_threads"),
            "service_pool_threads": record["info"].get("service_pool_threads"),
            "parallax_threads_env": stamp.get("parallax_threads_env"),
            "build_type": stamp["build_type"], "commit": stamp["commit"]},
            sort_keys=True))
    for workload in out.values():
        for kind in ("end_to_end", "per_layer"):
            for name, metric in workload[kind].items():
                metric.update(spread(metric.pop("values")))
        for diagnostics in workload["diagnostics"].values():
            for name, values in diagnostics.items():
                # One value per seed when the run is deterministic, as it must be.
                diagnostics[name] = sorted(values) if len(values) > 1 else values.pop()
        workload["stamps"] = [json.loads(s) for s in sorted(workload["stamps"])]
        if "host_steal_share" in workload:
            workload["host_steal_share"] = spread(workload["host_steal_share"])
        for name, values in workload.get("shares", {}).items():
            workload["shares"][name] = statistics.median(values)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    records = load(args.paths)
    if not records:
        sys.exit("summarize: no result records found")
    text = json.dumps(summarize(records), indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
