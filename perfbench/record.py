#!/usr/bin/env python3
"""Measure every workload once, traced, and write the result as a baseline.

Usage (from the root of a source checkout):

    python3 perfbench/record.py [--output perfbench/baseline.json]

Prints samples_per_s, peak_rss_mb, setup_s and failed_frac for each workload
and writes them, with the per-layer metrics, the traced breakdown in
microseconds per call and the environment, to ``--output``. Each run lasts
``run_seconds`` from BENCHMARK.json. Single runs on a shared machine: read the
numbers with the spread given in README.md.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import run


def breakdown(result: dict) -> dict:
    """Per-call self time of every span that ran, in microseconds."""
    layer = result["per_layer"]
    out = {}
    for name in run.SPAN_NAMES:
        calls = layer[f"{name}.calls"][0]
        if calls:
            out[name] = layer[f"{name}.self_s"][0] / calls * 1e6
    loads = layer["fileio.parse_predictions.calls"][0]
    if loads:
        load_s = (layer["fileio.parse_predictions.self_s"][0]
                  + layer["core.normalize_text.self_s"][0])
        out["load_per_sample"] = load_s / (loads * result["samples"]) * 1e6
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default=str(run.HERE / "baseline.json"))
    args = parser.parse_args(argv)
    seconds = run.run_seconds()
    results = {}
    print(f"{'workload':<10} {'samples':>7} {'samples_per_s':>14} {'peak_rss_mb':>12} "
          f"{'setup_s':>8} {'failed_frac':>12}")
    for workload in run.WORKLOADS:
        result = run.run_workload(workload, checks.DEFAULT_SEED, seconds, True)
        m = result["metrics"]
        print(f"{workload:<10} {result['samples']:>7} {m['samples_per_s'][0]:>14.1f} "
              f"{m['peak_rss_mb'][0]:>12.1f} {m['setup_s'][0]:>8.3f} "
              f"{result['failed'] / result['attempted']:>12.4f}")
        for problem in result["problems"]:
            print(f"check failed: {workload}: {problem}", file=sys.stderr)
        results[workload] = {
            "samples": result["samples"], "iterations": result["iterations"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "failed_frac": result["failed"] / result["attempted"],
            "metrics": {k: v for k, (v, _) in result["metrics"].items()},
            "per_layer": {k: v for k, (v, _) in result["per_layer"].items()},
            "self_us_per_call": breakdown(result),
            "outputs_sha256": result["outputs_sha256"],
        }
    baseline = {"seed": checks.DEFAULT_SEED, "seconds": seconds,
                "env": result["env"], "workloads": results}
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
