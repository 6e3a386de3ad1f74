"""Output checks of the benchmark, independent of the platefuse package.

Each check returns a list of problems (empty when the output is correct).
They read the files the CLI wrote with plain ``json`` and ``csv`` parsing and
recompute what they can from the corpus, so they also hold for seeds whose
output digests are not pinned. The benchmark process imports nothing heavy and
streams what it reads: its own peak RSS leaks into the RSS its children
report, so it must stay below theirs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

DEFAULT_SEED = 1

# sha256 of every output at DEFAULT_SEED, keyed by "<workload>/<samples>".
# The outputs must stay byte-identical, so these change only with the corpus
# shape in setup_inputs.py or a workload's size.
PINNED_SHA256 = {
    "fuse-eval/5000": {
        "corpus.jsonl": "bab57f716eff8aa7422399fd4c5a6ce32c5778ec9051b4e09c7c9839e8ccffc3",
        "fused.jsonl": "0eca06dd2bfbb677149c2a89c05efae120f61a361fee293ce83bffa94b07d7cd",
        "eval.csv": "791ebc3e7cb68d7b58aef484140d57d8839e90586058b7c91f6e770b08a56b56",
    },
    "sweep/600": {
        "corpus.jsonl": "3f94f65a56a3797a45a9ed629dd5238bf53882dc956e2b7a33859068b8a9b091",
        "sweep.csv": "d388203bdd643ff73bedcaa91428e534964b1864c96d33b07d0b1d02c8c3a58e",
    },
    "simulate/5000": {
        "corpus.jsonl": "bab57f716eff8aa7422399fd4c5a6ce32c5778ec9051b4e09c7c9839e8ccffc3",
    },
    # The self-test's tiny size.
    "fuse-eval/120": {
        "corpus.jsonl": "aba7e5cd5c53e398df32abb258d99d87e2f0140d6fa3432099b67d95edd192f7",
        "fused.jsonl": "25dd348093f1e49c8de4f32bf19c49545b0135ee8fb7f2c746b82368636a67b2",
        "eval.csv": "84bfc26e2bed6c90957f03960547c2d3dede589ada1ae083c9aaaf30150bdec6",
    },
    "sweep/120": {
        "corpus.jsonl": "aba7e5cd5c53e398df32abb258d99d87e2f0140d6fa3432099b67d95edd192f7",
        "sweep.csv": "02640b7cbaa285cc00c88eed1313480fedb00cb1b4e00350ac7ef9ab81ba10f7",
    },
    "simulate/120": {
        "corpus.jsonl": "aba7e5cd5c53e398df32abb258d99d87e2f0140d6fa3432099b67d95edd192f7",
    },
}


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def percent_digits(rate: float) -> str:
    """A rate as the reports print it: percent, one decimal, half-up."""
    return str(Decimal(repr(rate * 100.0)).quantize(Decimal("0.1"),
                                                    rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class Truth:
    """What the checks need to know about a generated corpus."""

    samples: tuple[tuple[str, str, str], ...]  # (sample_id, dataset, ground truth)
    n_models: int
    top_model_rate: float  # macro exact-match rate of the accuracy-rank-1 model


def load_truth(corpus_path, profiles_path) -> Truth:
    with open(profiles_path, encoding="utf-8") as f:
        profiles = [json.loads(line) for line in f if line.strip()]
    top = min(profiles, key=lambda p: p["accuracy_rank"])["id"]
    samples = []
    totals: dict[str, int] = {}
    corrects: dict[str, int] = {}
    with open(corpus_path, encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            dataset, truth = record["dataset"], record["ground_truth"]
            samples.append((record["sample_id"], dataset, truth))
            totals[dataset] = totals.get(dataset, 0) + 1
            if record["predictions"][top]["text"] == truth:
                corrects[dataset] = corrects.get(dataset, 0) + 1
    rate = math.fsum(corrects.get(d, 0) / totals[d] for d in totals) / len(totals)
    return Truth(tuple(samples), len(profiles), rate)


def check_corpus(path, expected_sha256: str, truth: Truth) -> list[str]:
    """``simulate`` must reproduce the corpus generated in-process."""
    with open(path, encoding="utf-8") as f:
        count = sum(1 for line in f if line.strip())
    problems = []
    if count != len(truth.samples):
        problems.append(f"corpus has {count} records, expected {len(truth.samples)}")
    if sha256(path) != expected_sha256:
        problems.append("corpus differs from the in-process generated corpus")
    return problems


def fused_records(path):
    """Yield the fused file's records one at a time, keeping memory flat."""
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                yield json.loads(line)


def check_fused(path, truth: Truth) -> list[str]:
    """One fused record per sample, in corpus order."""
    count = 0
    try:
        for count, record in enumerate(fused_records(path), start=1):
            if count > len(truth.samples):
                return [f"fused file has more than {len(truth.samples)} records"]
            sample_id, dataset, _ = truth.samples[count - 1]
            if record.get("sample_id") != sample_id or record.get("dataset") != dataset:
                return [f"fused line {count} is not sample {sample_id!r} of {dataset!r}"]
            if not isinstance(record.get("text"), str) or not record["text"]:
                return [f"fused line {count} has no text"]
    except ValueError as exc:
        return [f"fused file is not JSONL: {exc}"]
    if count != len(truth.samples):
        return [f"fused file has {count} records for {len(truth.samples)} samples"]
    return []


def expected_eval(fused_path, truth: Truth) -> list[list[str]]:
    """The delimited eval report recounted from the fused file."""
    fused = {r["sample_id"]: r["text"] for r in fused_records(fused_path)}
    totals: dict[str, int] = {}
    corrects: dict[str, int] = {}
    for sample_id, dataset, ground_truth in truth.samples:
        totals[dataset] = totals.get(dataset, 0) + 1
        if fused.get(sample_id) == ground_truth:
            corrects[dataset] = corrects.get(dataset, 0) + 1
    rows = [["dataset", "total", "correct", "rate"]]
    rates = []
    for d in sorted(totals):
        rates.append(corrects.get(d, 0) / totals[d])
        rows.append([d, str(totals[d]), str(corrects.get(d, 0)),
                     percent_digits(rates[-1])])
    rows.append(["average", "", "", percent_digits(math.fsum(rates) / len(rates))])
    return rows


def check_eval(report_path, fused_path, truth: Truth) -> list[str]:
    """``eval``'s counts must match a recount of the fused file."""
    with open(report_path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    try:
        expected = expected_eval(fused_path, truth)
    except (OSError, ValueError, KeyError) as exc:
        return [f"cannot recount the fused file: {exc!r}"]
    if rows != expected:
        return [f"eval report {rows} differs from the recount {expected}"]
    return []


def check_sweep(report_path, truth: Truth) -> list[str]:
    """One row per ensemble size; at n=1 every strategy is the top model."""
    with open(report_path, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    problems = []
    if [row["n"] for row in rows] != [str(n) for n in range(1, truth.n_models + 1)]:
        problems.append(f"sweep rows are not n=1..{truth.n_models}")
    if not rows:
        return problems
    expected = percent_digits(truth.top_model_rate)
    strategies = [k for k in rows[0]
                  if k not in ("n", "added_model", "cumulative_latency_ms", "fps")]
    for strategy in strategies:
        if rows[0][strategy] != expected:
            problems.append(f"sweep n=1 {strategy} rate {rows[0][strategy]} is not "
                            f"the top model's raw rate {expected}")
    return problems


def check_pinned(key: str, seed: int, digests: dict[str, str]) -> list[str]:
    """At the default seed, every output digest must equal its pinned value."""
    pinned = PINNED_SHA256.get(key)
    if seed != DEFAULT_SEED or pinned is None:
        return []
    return [f"{name} sha256 {digest[:12]} differs from the pinned {pinned[name][:12]}"
            for name, digest in digests.items()
            if name in pinned and digest != pinned[name]]
