#!/usr/bin/env python3
"""Benchmark the compiled vote kernels against the pure-Python reference.

Builds a seeded synthetic corpus, extracts the kernel-level inputs once, then
times each kernel on every ensemble. Also times the end-to-end fuse calls so
the dispatch overhead is visible.

Usage: python benchmarks/bench_backends.py [--samples N] [--models K]
"""

import argparse
import time

from platefuse import ErrorModel, SynthConfig, TieBreak, TieBreakKind, backend_name, generate
from platefuse import _kernels_py
from platefuse import core

try:
    from platefuse import _kernels as _compiled
except ImportError:
    _compiled = None


def kernel_inputs(samples):
    """Pre-canonicalized (texts, confs, prio) per sample."""
    prepared = []
    for s in samples:
        items = sorted(s.predictions.items())
        texts = [p.text for _, p in items]
        confs = [p.confidence for _, p in items]
        prio = list(range(len(items)))
        prepared.append((texts, confs, prio))
    return prepared


def time_kernels(kernels, prepared, repeats):
    timings = {}
    for name, call in [
        ("hc_select", lambda t, c, p: kernels.hc_select(c, p)),
        ("mv_select", lambda t, c, p: kernels.mv_select(t, c, p, True)),
        ("mvcp_select", lambda t, c, p: kernels.mvcp_select(t, c, p, True)),
    ]:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for texts, confs, prio in prepared:
                call(texts, confs, prio)
            best = min(best, time.perf_counter() - start)
        timings[name] = best / len(prepared)
    return timings


def time_fuse(samples, repeats):
    tiebreak = TieBreak(TieBreakKind.HIGHEST_CONFIDENCE)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for s in samples:
            core.mvcp_fuse(s.predictions, tiebreak)
        best = min(best, time.perf_counter() - start)
    return best / len(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=5000)
    parser.add_argument("--models", type=int, default=12)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    config = SynthConfig(
        seed=1234, n_models=args.models, n_samples=args.samples, plate_length=7,
        per_model=tuple(
            ErrorModel(per_char_sub_rate=0.2, insertion_rate=0.1,
                       deletion_rate=0.1)
            for _ in range(args.models)
        ),
    )
    samples = generate(config)
    prepared = kernel_inputs(samples)

    pure = time_kernels(_kernels_py, prepared, args.repeats)
    if _compiled is None:
        print("compiled kernels not built; showing pure-Python timings only")
        for name, t in pure.items():
            print(f"{name:<12} {t * 1e6:8.2f} us/ensemble")
        return

    fast = time_kernels(_compiled, prepared, args.repeats)
    print(f"{args.samples} ensembles x {args.models} models, plate length 7")
    print(f"{'kernel':<12} {'pure (us)':>10} {'compiled (us)':>14} {'speedup':>8}")
    for name in pure:
        ratio = pure[name] / fast[name]
        print(f"{name:<12} {pure[name] * 1e6:10.2f} {fast[name] * 1e6:14.2f} "
              f"{ratio:7.1f}x")
    per_fuse = time_fuse(samples, args.repeats)
    print(f"\nmvcp_fuse end to end ({backend_name()}): {per_fuse * 1e6:.2f} us/sample")


if __name__ == "__main__":
    main()
