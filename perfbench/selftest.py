#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Usage (from the root of a source checkout): python3 perfbench/selftest.py

Runs every workload traced, on a tiny corpus at the default seed, and
requires every output check to pass and every metric to be reported. Then it
corrupts outputs on purpose and requires each corruption to be counted as a
failed command: a fused file missing its last record, a fused file with one
text changed (caught by the pinned digest), and an eval report with a wrong
count (caught by the recount). Last, it requires a traced command that lost a
binding, or never entered a span it should, to count as failed. Exits 0 when
all of that holds.
"""

from __future__ import annotations

import csv
import json
import os
import sys

import checks
import run
from traced import SPAN_NAMES

TINY = 120
SECONDS = 0.5


def drop_last_fused_record(command, out):
    if command == "fuse":
        path = out / "fused.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")


def change_a_fused_text(command, out):
    if command == "fuse":
        path = out / "fused.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[0])
        text = record["text"]
        record["text"] = ("B" if text[0] == "A" else "A") + text[1:]
        lines[0] = json.dumps(record, separators=(",", ":")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")


def miscount_eval(command, out):
    if command == "eval":
        path = out / "eval.csv"
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        correct = int(rows[1][2])
        rows[1][2] = str(correct - 1 if correct else 1)
        path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


def main() -> int:
    errors = []
    expected = {f"cli.{c}.{m}" for c in run.COMMANDS
                for m in ("wall_s", "cpu_s", "ref_s", "peak_rss_mb")}
    expected |= {f"{s}.{m}" for s in SPAN_NAMES for m in ("self_s", "calls")}
    expected |= {"trace.overhead_frac"}
    for workload in run.WORKLOADS:
        key = f"{workload}/{TINY}"
        if key not in checks.PINNED_SHA256:
            errors.append(f"no pinned digests for {key}")
        result = run.run_workload(workload, checks.DEFAULT_SEED, SECONDS, True, TINY)
        print(f"{workload}: failed {result['failed']}/{result['attempted']}, "
              f"outputs {json.dumps(result['outputs_sha256'])}")
        if not result["correct"] or result["failed"]:
            errors.append(f"{workload}: clean run failed: {result['problems']}")
        if set(result["per_layer"]) != expected:
            errors.append(f"{workload}: per-layer metrics differ: "
                          f"{sorted(set(result['per_layer']) ^ expected)}")
        if set(result["metrics"]) != {"samples_per_s", "peak_rss_mb", "setup_s"}:
            errors.append(f"{workload}: end-to-end metrics are {sorted(result['metrics'])}")

    for tamper, command in ((drop_last_fused_record, "fuse"),
                            (change_a_fused_text, "fuse"),
                            (miscount_eval, "eval")):
        result = run.run_workload("fuse-eval", checks.DEFAULT_SEED, SECONDS, False,
                                  TINY, tamper)
        caught = [p for p in result["problems"] if p.startswith(f"{command}:")]
        print(f"{tamper.__name__}: failed {result['failed']}/{result['attempted']}"
              f"{', e.g. ' + caught[0] if caught else ''}")
        if result["correct"] or not result["failed"] or not caught:
            errors.append(f"{tamper.__name__} was not counted as a failed {command}")

    # A refactor that renames a traced function, or stops calling it, must
    # fail the traced command rather than leave its span reading 0.
    spans = run.ROOT / ".perfbench_work" / f"selftest-spans-{os.getpid()}.json"
    spans.parent.mkdir(exist_ok=True)
    try:
        spans.write_text(json.dumps({
            "rc": 0, "wall_s": 1.0, "cpu_s": 1.0, "missing": ["platefuse.fileio:dump_fused"],
            "spans": {"cli.main": {"self_s": 1.0, "calls": 1}}}), encoding="utf-8")
        problems = run.span_problems(spans, "fuse")
    finally:
        spans.unlink(missing_ok=True)
        try:
            spans.parent.rmdir()
        except OSError:
            pass
    print(f"lost spans: {len(problems)} problems, e.g. {problems[:2]}")
    if not any("found no platefuse.fileio:dump_fused" in p for p in problems):
        errors.append("a missing binding was not counted as a failure")
    if not any("never entered kernels.mvcp_select" in p for p in problems):
        errors.append("a span with no calls was not counted as a failure")

    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
