"""Write one benchmark run's inputs: generator config, model profiles, corpus.

Usage: python3 perfbench/setup_inputs.py OUT_DIR SAMPLES SEED

Every workload uses the same corpus shape: 12 models, plate length 7, graded
substitution rates 0.04-0.26, insertion and deletion rates of 0.04, and the two
worst models overconfident. The corpus is generated in-process through
``synth.generate`` and ``fileio.dump_predictions``, not through the CLI, so the
``simulate`` workload can compare its CLI output against it. Profiles rank the
models by their substitution rate and draw latencies from the seed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

N_MODELS = 12
PLATE_LENGTH = 7
INDEL_RATE = 0.04
OVERCONFIDENT = frozenset({10, 11})


def synth_config(samples: int, seed: int) -> dict:
    return {
        "seed": seed,
        "n_models": N_MODELS,
        "n_samples": samples,
        "plate_length": PLATE_LENGTH,
        "per_model": [
            {
                "per_char_sub_rate": round(0.04 + 0.02 * i, 2),
                "insertion_rate": INDEL_RATE,
                "deletion_rate": INDEL_RATE,
                "overconfident": i in OVERCONFIDENT,
            }
            for i in range(N_MODELS)
        ],
    }


def profiles(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        {"id": f"m{i:02d}", "accuracy_rank": i + 1,
         "latency_ms": round(rng.uniform(2.0, 17.0), 1)}
        for i in range(N_MODELS)
    ]


def main(argv: list[str]) -> int:
    out, samples, seed = Path(argv[1]), int(argv[2]), int(argv[3])
    from platefuse import fileio, synth

    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(synth_config(samples, seed)) + "\n",
                           encoding="utf-8")
    (out / "profiles.jsonl").write_text(
        "".join(json.dumps(p) + "\n" for p in profiles(seed)), encoding="utf-8")
    config = fileio.load_synth_config(config_path)
    fileio.dump_predictions(synth.generate(config), out / "corpus.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
