#!/usr/bin/env python3
"""End-to-end benchmark of the platefuse CLI, with a traced per-layer breakdown.

Usage (from the root of a source checkout; the package need not be installed):

    python3 perfbench/run.py --workload fuse-eval --seed 1 --seconds 30 --trace 0

One client runs the workload's chain of CLI commands (``python -m
platefuse.cli`` with ``PYTHONPATH=src``) one command at a time, in a closed
loop, until ``--seconds`` have passed, and checks every output. Inputs come
from ``perfbench/setup_inputs.py``, generated from ``--seed``. Each command's
CPU time and peak RSS come from that child's own ``os.wait4`` rusage.

The benchmark, its commands and a speedometer (``perfbench/speedometer.py``)
share one CPU. The speedometer runs beside each timed command and set-up, and
its rate over the same window turns the command's CPU time into reference
seconds, from which the drift of a shared machine's speed cancels out.

With ``--trace 1`` every untraced chain is followed by a traced one, which
runs each command in-process through ``perfbench/traced.py`` to record
per-layer spans. The spans of the fastest traced chain are reported, and every
traced output must be byte-identical to the untraced one.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (CLI commands run, and those that exited
non-zero or failed a check), and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
from speedometer import Speedometer
from traced import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload -> (corpus samples, CLI commands run in order). The samples are
# scaled down from the sizes the workloads are named after (fuse-eval and
# simulate 50k, sweep 5k) so that one chain takes a few seconds and a run
# measures several chains.
WORKLOADS = {
    "fuse-eval": (5000, ("fuse", "eval")),
    "sweep": (600, ("sweep",)),
    "simulate": (5000, ("simulate",)),
}
COMMANDS = ("simulate", "fuse", "eval", "sweep")
OUTPUTS = {"simulate": "corpus.jsonl", "fuse": "fused.jsonl",
           "eval": "eval.csv", "sweep": "sweep.csv"}
# The spans each command must enter at least once (besides the cli.main
# root); README.md maps them to the metrics and workloads they should move.
_LOAD = ("fileio.parse_predictions", "core.normalize_text")
EXPECTED_SPANS = {
    "simulate": ("synth.generate", "fileio.dump_predictions"),
    "fuse": (*_LOAD, "core.mvcp_fuse", "kernels.mvcp_select", "fileio.dump_fused"),
    "eval": (*_LOAD, "fileio.load_fused", "scoring.recognition_rate",
             "fileio.render_report"),
    "sweep": (*_LOAD, "core.hc_fuse", "core.mv_fuse", "core.mvcp_fuse",
              "kernels.hc_select", "kernels.mv_select", "kernels.mvcp_select",
              "scoring.sweep_top_n", "scoring.recognition_rate",
              "fileio.render_report"),
}
SETUP_REPEATS = 3
MIN_ITERATIONS = 3

ENV_PROBE = ("import json, sys, numpy, platefuse, platefuse.cli; print(json.dumps("
             "{'python': sys.version.split()[0], 'numpy': numpy.__version__, "
             "'backend': platefuse.backend_name()}))")


@dataclass(frozen=True)
class Proc:
    """One finished child process, measured from its own rusage."""

    rc: int
    wall_s: float
    cpu_s: float
    ref_s: float  # cpu_s in reference seconds (see speedometer.py)
    peak_rss_mb: float


@dataclass
class Context:
    workload: str
    seed: int
    samples: int
    work: Path
    inputs: Path
    speedometer: Speedometer | None = None
    truth: checks.Truth | None = None
    corpus_sha256: str = ""
    digests: dict = field(default_factory=dict)  # output name -> first digest
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def pin_key(self) -> str:
        return f"{self.workload}/{self.samples}"

    def record(self, command: str, proc: Proc, problems: list[str]) -> None:
        """Count one CLI command; it failed if it exited non-zero or a check failed."""
        self.attempted += 1
        if proc.rc != 0:
            log = (self.work / "logs" / f"{command}.log").read_text(errors="replace")
            tail = log.strip().splitlines()[-1:] or ["(no output)"]
            problems = [f"exit status {proc.rc}: {tail[0]}", *problems]
        if problems:
            self.failed += 1
            self.problems += [f"{command}: {p}" for p in problems]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], log: Path, speedometer: Speedometer) -> Proc:
    """Run ``argv`` to completion beside the speedometer; measure it with ``os.wait4``."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as out:
        started = speedometer.start()
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            speedometer.pause()
            raise
        wall = perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        ref = speedometer.stop(started, cpu)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, cpu, ref, usage.ru_maxrss * 1024 / 1e6)


def cli_args(command: str, inputs: Path, out: Path) -> list[str]:
    corpus = str(inputs / "corpus.jsonl")
    return {
        "simulate": ["simulate", "--config", str(inputs / "config.json"),
                     "--output", str(out / "corpus.jsonl")],
        "fuse": ["fuse", "--input", corpus, "--strategy", "mvcp-hc",
                 "--output", str(out / "fused.jsonl")],
        "eval": ["eval", "--input", corpus, "--fused", str(out / "fused.jsonl"),
                 "--output", str(out / "eval.csv")],
        "sweep": ["sweep", "--input", corpus,
                  "--profiles", str(inputs / "profiles.jsonl"), "--rank", "accuracy",
                  "--output", str(out / "sweep.csv")],
    }[command]


def environment() -> dict:
    """What the result depends on besides the code. Also compiles bytecode."""
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=ROOT,
                           env=child_env(), capture_output=True, text=True,
                           check=True)
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                              "HEAD"], capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {"commit": commit, **json.loads(probe.stdout),
            "nproc": len(os.sched_getaffinity(0)),
            "PLATEFUSE_PURE_PYTHON": os.environ.get("PLATEFUSE_PURE_PYTHON")}


def set_up(ctx: Context) -> list[Proc]:
    """Generate the inputs SETUP_REPEATS times; return each measurement."""
    procs, corpus_digests = [], set()
    for _ in range(SETUP_REPEATS):
        proc = spawn([sys.executable, str(HERE / "setup_inputs.py"), str(ctx.inputs),
                      str(ctx.samples), str(ctx.seed)], ctx.work / "logs" / "setup.log",
                     ctx.speedometer)
        if proc.rc != 0:
            raise RuntimeError("input generation failed:\n"
                               + (ctx.work / "logs" / "setup.log").read_text())
        procs.append(proc)
        corpus_digests.add(checks.sha256(ctx.inputs / "corpus.jsonl"))
    if len(corpus_digests) > 1:
        ctx.problems.append("setup: the same config generated different corpora")
    ctx.corpus_sha256 = corpus_digests.pop()
    ctx.problems += [f"setup: {p}" for p in checks.check_pinned(
        ctx.pin_key, ctx.seed, {"corpus.jsonl": ctx.corpus_sha256})]
    ctx.truth = checks.load_truth(ctx.inputs / "corpus.jsonl",
                                  ctx.inputs / "profiles.jsonl")
    return procs


def check_output(ctx: Context, command: str, out: Path) -> list[str]:
    path = out / OUTPUTS[command]
    if not path.exists():
        return [f"wrote no {path.name}"]
    if command == "simulate":
        problems = checks.check_corpus(path, ctx.corpus_sha256, ctx.truth)
    elif command == "fuse":
        problems = checks.check_fused(path, ctx.truth)
    elif command == "eval":
        problems = checks.check_eval(path, out / "fused.jsonl", ctx.truth)
    else:
        problems = checks.check_sweep(path, ctx.truth)
    digest = checks.sha256(path)
    if digest != ctx.digests.setdefault(path.name, digest):
        problems.append(f"{path.name} differs from an earlier run on the same inputs")
    return problems + checks.check_pinned(ctx.pin_key, ctx.seed, {path.name: digest})


def run_seconds() -> int:
    """The run length that BENCHMARK.json fixes."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_chain(ctx: Context, commands, out: Path, traced: bool, tamper=None) -> dict:
    """Run the commands in order, then check their outputs; return their Procs."""
    out.mkdir(parents=True, exist_ok=True)
    procs = {}
    for command in commands:
        (out / OUTPUTS[command]).unlink(missing_ok=True)
        args = cli_args(command, ctx.inputs, out)
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"),
                    str(ctx.work / f"spans-{command}.json"), *args]
        else:
            argv = [sys.executable, "-m", "platefuse.cli", *args]
        procs[command] = spawn(argv, ctx.work / "logs" / f"{command}.log",
                               ctx.speedometer)
        if tamper is not None:
            tamper(command, out)
    for command, proc in procs.items():
        problems = check_output(ctx, command, out)
        if traced and proc.rc == 0:
            problems += span_problems(ctx.work / f"spans-{command}.json", command)
        ctx.record(command, proc, problems)
    return procs


def span_problems(path: Path, command: str) -> list[str]:
    """A traced command must reach every binding and enter its expected spans."""
    record = json.loads(path.read_text())
    problems = [f"traced run found no {binding}" for binding in record["missing"]]
    problems += [f"traced run never entered {name}" for name in EXPECTED_SPANS[command]
                 if record["spans"].get(name, {}).get("calls", 0) == 0]
    return problems


def chain_ref(procs: dict) -> float:
    return sum(p.ref_s for p in procs.values())


def merged_spans(ctx: Context, procs: dict) -> dict:
    """The traced chain's spans, summed over its commands, in reference seconds.

    A span's self time is wall time, and the speedometer took part of the CPU
    during it. Each command's spans are scaled by the share of its ``cli.main``
    wall time that was its own CPU time, and by its reference seconds per CPU
    second, so that they add up to the reference seconds of ``cli.main``.
    """
    spans = {}
    for command, proc in procs.items():
        path = ctx.work / f"spans-{command}.json"
        if not path.exists() or proc.cpu_s == 0:
            continue
        record = json.loads(path.read_text())
        scale = record["cpu_s"] / record["wall_s"] * proc.ref_s / proc.cpu_s
        for name, span in record["spans"].items():
            total = spans.setdefault(name, {"self_s": 0.0, "calls": 0})
            total["self_s"] += span["self_s"] * scale
            total["calls"] += span["calls"]
    return spans


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 samples: int | None = None, tamper=None) -> dict:
    """Set up, measure and check one workload; return the full result.

    ``samples`` overrides the workload's corpus size and ``tamper(command,
    out_dir)``, called after each untraced command, lets the self-test corrupt
    an output before it is checked.
    """
    default_samples, commands = WORKLOADS[workload]
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    ctx = Context(workload, seed, samples or default_samples, work, work / "inputs")
    # The benchmark, its commands and the speedometer share one CPU (see
    # speedometer.py); the commands and the speedometer inherit the affinity.
    env = environment()
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        work.mkdir(parents=True, exist_ok=True)
        ctx.speedometer = Speedometer(work / "speedometer")
        setups = set_up(ctx)
        iterations, traced = [], []  # traced: (chain reference seconds, spans) per chain
        start = perf_counter()
        while True:
            began = perf_counter()
            iterations.append(run_chain(ctx, commands, work / "out", False, tamper))
            if trace:
                # Alternating with the untraced chains lets each traced chain
                # be compared with its neighbour, under the same machine load.
                procs = run_chain(ctx, commands, work / "traced", True)
                traced.append((chain_ref(procs), merged_spans(ctx, procs)))
            now = perf_counter()
            if len(iterations) >= MIN_ITERATIONS and now - start + now - began > seconds:
                break
    finally:
        if ctx.speedometer is not None:
            ctx.speedometer.close()
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    chain_refs = [chain_ref(it) for it in iterations]
    peaks = [max(p.peak_rss_mb for p in it.values()) for it in iterations]
    # With vfork the parent's peak RSS becomes the child's starting peak.
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if own_peak >= min(peaks):
        ctx.problems.append(f"benchmark process peak RSS {own_peak:.1f} MB masks "
                            f"its children's ({min(peaks):.1f} MB)")
    # Times are in reference seconds: a shared machine's speed drifts in
    # spells of seconds, 1.5 times apart, and wall or CPU time drifts with it.
    metrics = {
        "samples_per_s": (ctx.samples * len(chain_refs) / sum(chain_refs), "1/s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "setup_s": (statistics.median(p.ref_s for p in setups), "s"),
    }
    per_layer = {}
    if trace:
        for command in COMMANDS:
            runs = [it[command] for it in iterations if command in it]
            for attr, unit in (("wall_s", "s"), ("cpu_s", "s"), ("ref_s", "s"),
                               ("peak_rss_mb", "MB")):
                value = statistics.median(getattr(p, attr) for p in runs) if runs else 0.0
                per_layer[f"cli.{command}.{attr}"] = (value, unit)
        # Best-of-N per stage, as ROADMAP item 1 asks: the fastest traced chain.
        spans = min(traced, key=lambda t: t[0])[1]
        for name in SPAN_NAMES:
            span = spans.get(name, {"self_s": 0.0, "calls": 0})
            per_layer[f"{name}.self_s"] = (span["self_s"], "s")
            per_layer[f"{name}.calls"] = (span["calls"], "count")
        per_layer["trace.overhead_frac"] = (statistics.median(
            ref / u for (ref, _), u in zip(traced, chain_refs)) - 1.0, "ratio")
    return {
        "workload": workload, "seed": seed, "samples": ctx.samples,
        "iterations": len(iterations), "chain_ref_s": chain_refs,
        "setup_ref_s": [p.ref_s for p in setups], "env": env,
        "outputs_sha256": dict(sorted({"corpus.jsonl": ctx.corpus_sha256,
                                       **ctx.digests}.items())),
        "correct": ctx.failed == 0 and not ctx.problems,
        "attempted": ctx.attempted, "failed": ctx.failed, "problems": ctx.problems,
        "metrics": metrics, "per_layer": per_layer,
    }


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must be in [0, 2**64)")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "platefuse" / "cli.py").is_file():
        print(f"error: no platefuse source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds or run_seconds(),
                          bool(args.trace))
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(result["env"]))
    print("outputs_sha256 " + json.dumps(result["outputs_sha256"]))
    print(f"{result['workload']} seed={result['seed']} samples={result['samples']} "
          f"iterations={result['iterations']} "
          f"failed_frac={result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})")
    for key in ("setup_ref_s", "chain_ref_s"):
        print(key + " " + " ".join(f"{w:.3f}" for w in result[key]))
    shown = result["per_layer"] if args.trace else result["metrics"]
    for name, (value, unit) in {**result["metrics"], **result["per_layer"]}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
