"""Byte pins of CLI outputs on a small corpus rich in vote and confidence ties.

Every output byte is part of platefuse's contract, so a rewrite of a hot path
must leave these digests unchanged. A change that moves one must say why.

The corpus is built so that each tie-break decides texts: three symbols,
plates of 3 and 4 symbols with insertions and deletions, confidences at a few
levels shared between models (a spread of 0 gives exactly the mean; a mean of
1.0 with a spread puts half the draws at exactly 1.0), accuracy ranks in no
relation to model ids, and latencies that repeat, so the speed order falls
back to model ids. In both sweep orders the hc, mv and mvcp votes each need
a tie-break on many samples, and the two tie-breaks of each kind give
different texts on some of them. The corpus bytes are pinned too, as
`simulate` writes each dataset, and so are those of a corpus of the default
error models, and of a corpus on a non-ASCII alphabet with its sweep.
"""

import hashlib
import json
from dataclasses import asdict, replace

import pytest

from conftest import INDEL_CONFIG
from platefuse import ErrorModel, ModelProfile, SynthConfig, cli, fileio, generate

ALPHABET = "ABC"
# Per model: substitution rate, (mean, spread) of the confidence when the
# prediction is right, and when it is wrong. m03 and m07 are overconfident.
MODELS = (
    (0.10, (1.0, 0.2), (0.5, 0.0)),
    (0.15, (0.8, 0.0), (0.7, 0.0)),
    (0.20, (0.7, 0.0), (0.6, 0.0)),
    (0.25, (1.0, 0.4), (0.5, 0.0)),
    (0.30, (0.8, 0.0), (0.6, 0.0)),
    (0.35, (0.6, 0.0), (0.5, 0.0)),
    (0.40, (0.7, 0.0), (1.0, 0.3)),
    (0.45, (0.8, 0.0), (0.5, 0.0)),
)
ACCURACY_RANKS = (5, 2, 8, 1, 7, 3, 6, 4)
LATENCIES_MS = (2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 4.0, 1.0)

PINS = {
    "eval-mvcp-hc": "2a7cca02b5381d6993e430c75fe20fd49dbc31bf9546b65c61b046660ee12d66",
    "eval-mvcp-hc-table": "c3584ad1fb59e94bfaa3e3f0e4b0eac101ff051086e9f36f07b9bd0ed871af9f",
    "fuse-hc": "e72d333138561c4d11b73e012dff005e9abac49a87c1fb4455a99a646d1ba3ae",
    "fuse-hc-without-profiles": "8f3555fc258b648f3b01a9433532497a0962b60f5436592de06845cf761575c2",
    "fuse-mv-bm": "8170d6b68d6e3ddc5f2b6cb0a80d593e3f0cf9413643f3336bd123dfc2095831",
    "fuse-mv-hc": "c1a69582d0d8f9f2cea2054ef18251678ff25e15a568ed16c7476945e36d89f8",
    "fuse-mvcp-bm": "772928fe89f7d9ee5713e765c28560b311868a5007082f9b3f0fe033cca13134",
    "fuse-mvcp-hc": "5d14305ac6faf198c62dfb10ee54f1eb7172cce58e21b5d9e6b4a24283d494ef",
    "report-eval-delimited": "2a7cca02b5381d6993e430c75fe20fd49dbc31bf9546b65c61b046660ee12d66",
    "report-eval-table": "2924657d7b0d6cf3408e49df7f81db691d4565f33dfd5a8c9b4545ca6cbae380",
    "report-sweep-delimited": "489a78842cd91944f16f37b740dd89a692737af9827d59a77f2655a93863fc88",
    "report-sweep-table": "f570f308efd53af1a613b72d0a6efdf73201beb4ab73a158bf4c2fa5bb3cebc2",
    "simulate-default-errors": "cac9248de8c0d03e3f3d413238f291eab04bf6a30b2569c92375c03b21ccd0cc",
    "simulate-indel": "4f246a358bc1bcf42b317a062e7d6679a58a4e7c74f2090a710b14d28c6af4c0",
    "simulate-plates3": "e7da39416e3b2efe417ec76c0eca38cf6879d82e9fa1f2a143396b4591923060",
    "simulate-plates4": "65f4bd2ac321eda509ac3ac0e4b794a76640390eef8d53dc193182a260c22de0",
    "sweep-accuracy-delimited": "489a78842cd91944f16f37b740dd89a692737af9827d59a77f2655a93863fc88",
    "sweep-accuracy-table": "2e70653ee35f924b18dd59403eb7b3e7ce2000860f19cfc3abc109c360c18a45",
    "sweep-indel": "14b73bf124e40a736ce361faf9ad050907c0b12d56f8cf987818cbcee6ab1899",
    "sweep-speed-delimited": "e1f6121f27c105227d84f5f876a17a03a56efe9f9f477f1eebb00dedd4a7f102",
    "sweep-speed-table": "d6b94a5bd8821cdbfb1b7371a3bcfb4d4c429a65b8ed48c69f64fe461a3547e4",
}


def _configs():
    """The generator config of each dataset of the corpus."""
    per_model = tuple(
        ErrorModel(per_char_sub_rate=sub, insertion_rate=0.1, deletion_rate=0.1,
                   confidence_when_correct=right, confidence_when_wrong=wrong,
                   overconfident=j in (3, 7))
        for j, (sub, right, wrong) in enumerate(MODELS)
    )
    return [SynthConfig(seed=seed, n_models=len(MODELS), n_samples=150,
                        plate_length=length, alphabet=ALPHABET,
                        per_model=per_model, dataset=dataset)
            for dataset, length, seed in (("plates3", 3, 11), ("plates4", 4, 12))]


def _corpus():
    return [replace(s, sample_id=f"{config.dataset}-{s.sample_id}")
            for config in _configs() for s in generate(config)]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Output name -> sha256 of the bytes the CLI wrote."""
    work = tmp_path_factory.mktemp("pins")
    corpus, profiles = work / "corpus.jsonl", work / "profiles.jsonl"
    fileio.dump_predictions(_corpus(), corpus)
    fileio.dump_profiles([
        ModelProfile(f"m{j:02d}", latency, rank)
        for j, (latency, rank) in enumerate(zip(LATENCIES_MS, ACCURACY_RANKS))
    ], profiles)
    common = ["--input", str(corpus), "--alphabet", ALPHABET]
    with_profiles = [*common, "--profiles", str(profiles)]
    commands = {
        f"fuse-{name}": ["fuse", *with_profiles, "--strategy", name]
        for name in ("hc", "mv-bm", "mv-hc", "mvcp-bm", "mvcp-hc")
    }
    commands["fuse-hc-without-profiles"] = ["fuse", *common, "--strategy", "hc"]
    commands["eval-mvcp-hc"] = ["eval", *common, "--strategy", "mvcp-hc"]
    commands["eval-mvcp-hc-table"] = [*commands["eval-mvcp-hc"], "--format", "table"]
    # The corpus bytes: each dataset's, with confidences at exactly 1.0 and
    # at levels shared between models, one of the default error models, and
    # the indel corpus.
    configs = {f"simulate-{c.dataset}": asdict(c) for c in _configs()}
    configs["simulate-default-errors"] = {"seed": 1, "n_models": 3, "n_samples": 50,
                                          "plate_length": 7}
    configs["simulate-indel"] = INDEL_CONFIG
    for name, config in configs.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        commands[name] = ["simulate", "--config", str(path)]
    indel_profiles = work / "indel-profiles.jsonl"
    fileio.dump_profiles([ModelProfile(f"m{j:02d}", latency, j + 1)
                          for j, latency in enumerate((4.5, 6.5, 9.5))], indel_profiles)
    commands["sweep-indel"] = ["sweep", "--input", str(work / "simulate-indel"),
                               "--alphabet", INDEL_CONFIG["alphabet"],
                               "--profiles", str(indel_profiles)]
    for rank in ("accuracy", "speed"):
        for fmt in ("delimited", "table"):
            commands[f"sweep-{rank}-{fmt}"] = [
                "sweep", *with_profiles, "--rank", rank, "--format", fmt]
    # `report` re-renders delimited outputs written above, so it runs last.
    for kind, source in (("eval", "eval-mvcp-hc"), ("sweep", "sweep-accuracy-delimited")):
        for fmt in ("delimited", "table"):
            commands[f"report-{kind}-{fmt}"] = [
                "report", "--input", str(work / source), "--format", fmt]
    digests = {}
    for name, argv in commands.items():
        out = work / name
        assert cli.main([*argv, "--output", str(out)]) == 0, name
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_bytes_are_pinned(outputs, name):
    assert outputs[name] == PINS[name]
