"""End-to-end tests for the command-line interface."""

import dataclasses
import json
import logging
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from conftest import INDEL_CONFIG, SHOWCASE_PATH, TOP5_RANKING
from platefuse import (
    ErrorModel,
    FusionStrategy,
    ModelProfile,
    SynthConfig,
    apply_strategy,
    cli,
    fileio,
    generate,
    normalize_confidences,
)


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def profiles_path(tmp_path, stock_profiles):
    path = tmp_path / "profiles.jsonl"
    fileio.dump_profiles(stock_profiles, path)
    return path


def _fused_texts(path):
    return {r.sample_id: r.text for r in fileio.load_fused(path)}


# --- fuse ------------------------------------------------------------------

def test_fuse_majority_vote_golden_cases(tmp_path):
    out = tmp_path / "fused.jsonl"
    assert run("fuse", "--input", str(SHOWCASE_PATH),
               "--strategy", "mv-hc", "--output", str(out)) == 0
    texts = _fused_texts(out)
    assert texts["case-a"] == "AIQ1056"
    assert texts["case-e"] == "KRM7E95"
    assert texts["case-f"] == "Y88096"
    assert texts["case-g"] == "HLP4594"
    assert texts["case-h"] == "MRD3095"


def test_fuse_writes_provenance(tmp_path):
    out = tmp_path / "fused.jsonl"
    run("fuse", "--input", str(SHOWCASE_PATH), "--strategy", "mv-hc",
        "--output", str(out))
    records = {r.sample_id: r for r in fileio.load_fused(out)}
    case_h = records["case-h"]
    assert case_h.winning_votes == 3
    assert not case_h.tie_broken
    assert case_h.contributors == ("CR-NET", "RARE", "TRBA")
    assert records["case-a"].tie_broken


def test_fuse_single_model_passthrough(tmp_path):
    source = tmp_path / "solo.jsonl"
    lines = [
        json.dumps({"sample_id": f"s{i}", "dataset": "d",
                    "predictions": {"m": {"text": t, "confidence": 0.5}}})
        for i, t in enumerate(["AAA1", "BBB2", "CCC3"])
    ]
    source.write_text("\n".join(lines) + "\n")
    for strategy in ("hc", "mv-hc", "mvcp-hc"):
        out = tmp_path / f"fused-{strategy}.jsonl"
        assert run("fuse", "--input", str(source), "--strategy", strategy,
                   "--output", str(out)) == 0
        assert list(_fused_texts(out).values()) == ["AAA1", "BBB2", "CCC3"]


def test_fuse_bm_without_profiles_is_usage_error(tmp_path, capsys):
    out = tmp_path / "fused.jsonl"
    with pytest.raises(SystemExit) as exc:
        run("fuse", "--input", str(SHOWCASE_PATH),
            "--strategy", "mvcp-bm", "--output", str(out))
    assert exc.value.code == 2
    assert "requires --profiles" in capsys.readouterr().err


@pytest.mark.parametrize("alphabet,message", [
    ("ab", "alphabet symbol 'a' is not its own uppercase"),
    ("A-B", "alphabet symbol '-' is a separator"),
    ("", "alphabet must not be empty"),
])
def test_invalid_alphabet_is_a_usage_error(tmp_path, capsys, alphabet, message):
    out = tmp_path / "fused.jsonl"
    with pytest.raises(SystemExit) as exc:
        run("fuse", "--input", str(SHOWCASE_PATH), "--strategy", "hc",
            "--alphabet", alphabet, "--output", str(out))
    assert exc.value.code == 2
    assert f"argument --alphabet: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_fuse_bm_with_profiles(tmp_path, profiles_path):
    out = tmp_path / "fused.jsonl"
    assert run("fuse", "--input", str(SHOWCASE_PATH), "--strategy", "mv-bm",
               "--profiles", str(profiles_path), "--output", str(out)) == 0
    # 2-2 tie on case-a resolved toward the rank-1 model's text.
    assert _fused_texts(out)["case-a"] == "AIQ1Q56"


def test_only_a_strategy_that_reads_the_ranking_needs_accuracy_ranks(
        tmp_path, capsys, stock_profiles):
    # Latency-only profiles, as `sweep --rank speed` reads them: mv-hc and
    # mvcp-hc read no ranking, so they fuse as without --profiles, while hc
    # and mv-bm read the accuracy ranking and cannot build it.
    latency_only = tmp_path / "latency.jsonl"
    fileio.dump_profiles([dataclasses.replace(p, accuracy_rank=None)
                          for p in stock_profiles], latency_only)
    for command in ("fuse", "eval"):
        for strategy in ("mv-hc", "mvcp-hc"):
            plain, profiled = tmp_path / "plain", tmp_path / "profiled"
            base = (command, "--input", str(SHOWCASE_PATH), "--strategy", strategy)
            assert run(*base, "--output", str(plain)) == 0
            assert run(*base, "--profiles", str(latency_only),
                       "--output", str(profiled)) == 0
            assert profiled.read_bytes() == plain.read_bytes()
        for strategy in ("hc", "mv-bm"):
            out = tmp_path / f"{command}-{strategy}"
            assert run(command, "--input", str(SHOWCASE_PATH), "--strategy", strategy,
                       "--profiles", str(latency_only), "--output", str(out)) == 1
            assert "has no accuracy rank" in capsys.readouterr().err
            assert not out.exists()
    # sweep --rank speed orders the models by latency alone, and neither
    # strategy reads a ranking: every tie-break key comes from model-id order.
    reports = []
    for rank in (True, False):
        profiles = tmp_path / f"top5-{rank}.jsonl"
        fileio.dump_profiles([p if rank else dataclasses.replace(p, accuracy_rank=None)
                              for p in stock_profiles if p.model_id in TOP5_RANKING],
                             profiles)
        out = tmp_path / f"sweep-{rank}.csv"
        assert run("sweep", "--input", str(SHOWCASE_PATH), "--profiles", str(profiles),
                   "--rank", "speed", "--strategies", "mv-hc,mvcp-hc",
                   "--output", str(out)) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_output_dash_writes_the_file_bytes_to_stdout(tmp_path):
    src = Path(cli.__file__).resolve().parent.parent
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 5, "n_models": 3, "n_samples": 30, "plate_length": 5,
        "alphabet": "\u00c4\u00d6\u20ac\u03a9Z",
        "per_model": [{"insertion_rate": 0.2, "deletion_rate": 0.2}] * 3,
    }))
    corpus = tmp_path / "corpus.jsonl"
    for argv, out in [
        (("simulate", "--config", str(config)), corpus),
        (("fuse", "--input", str(corpus), "--alphabet", "\u00c4\u00d6\u20ac\u03a9Z",
          "--strategy", "mvcp-hc"), tmp_path / "fused.jsonl"),
    ]:
        assert run(*argv, "--output", str(out)) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "platefuse.cli", *argv, "--output", "-"],
            env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
            capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()
        assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_a_report_on_stdout_is_the_file_bytes_under_any_stdout_encoding(
        tmp_path, encoding):
    # A report is UTF-8 on stdout as in a file: under ascii, writing through
    # stdout's encoding failed, and under latin-1 it wrote other bytes.
    src = Path(cli.__file__).resolve().parent.parent
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "n_models": 3, "n_samples": 20,
                                  "plate_length": 5, "dataset": "g\u00e4te"}))
    corpus = tmp_path / "corpus.jsonl"
    assert run("simulate", "--config", str(config), "--output", str(corpus)) == 0
    report = tmp_path / "eval.csv"
    for argv, out in [
        (("eval", "--input", str(corpus), "--strategy", "hc"), report),
        (("report", "--input", str(report), "--format", "table"),
         tmp_path / "table.txt"),
    ]:
        assert run(*argv, "--output", str(out)) == 0
        assert "g\u00e4te".encode() in out.read_bytes()
        proc = subprocess.run(
            [sys.executable, "-m", "platefuse.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": encoding},
            cwd=tmp_path, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()


@pytest.fixture(scope="module")
def route_files(tmp_path_factory):
    """The files the route cases read, by name."""
    work = tmp_path_factory.mktemp("routes")
    files = {name: work / f"{name}.jsonl" for name in (
        "corpus", "indel", "profiles", "speed", "fused", "corpus_spaced", "fused_spaced",
        "accented", "accented_fused")}
    fileio.dump_predictions(generate(SynthConfig(seed=1, n_models=3, n_samples=50,
                                                 plate_length=7)), files["corpus"])
    fileio.dump_predictions(generate(fileio.parse_synth_config(json.dumps(INDEL_CONFIG))),
                            files["indel"])
    # Latencies that order the models as their ranks do, and otherwise.
    for name, latencies in (("profiles", (4.5, 6.5, 9.5)), ("speed", (9.5, 4.5, 6.5))):
        fileio.dump_profiles([ModelProfile(f"m{j:02d}", latency, j + 1)
                              for j, latency in enumerate(latencies)], files[name])
    assert run("fuse", "--input", str(files["corpus"]), "--strategy", "mv-hc",
               "--output", str(files["fused"])) == 0
    for name in ("corpus", "fused"):
        spaced = [json.dumps(json.loads(line)) + "\n"
                  for line in files[name].read_text(encoding="utf-8").splitlines()]
        assert spaced[0].startswith('{"sample_id": ')
        files[f"{name}_spaced"].write_text("".join(spaced), encoding="utf-8")
    # A model id that is not ASCII, raw in the corpus and \u-escaped in the
    # fused file: no template matches either.
    files["accented"].write_text(files["corpus"].read_text(encoding="utf-8").replace(
        '"m00"', '"m\u00e90"'), encoding="utf-8")
    assert run("fuse", "--input", str(files["accented"]), "--strategy", "mvcp-hc",
               "--output", str(files["accented_fused"])) == 0
    assert '"m\\u00e90"' in files["accented_fused"].read_text(encoding="ascii")
    return files


# Each case is a command on the file route and on another route to the same
# bytes, where a word "a|b" is a on the first and b on the second. {pipe} is
# the first route's --input piped to a child's stdin; a *_spaced file is its
# original re-encoded with json's default separators, which no line template
# matches.
_ROUTES = {
    "pipe-fuse": "fuse --input {corpus}|{pipe} --strategy mv-hc",
    "pipe-eval-fused": "eval --input {corpus}|{pipe} --fused {fused}",
    "pipe-eval-strategy": "eval --input {corpus}|{pipe} --strategy mv-hc",
    "pipe-sweep-accuracy": "sweep --input {corpus}|{pipe} --profiles {profiles}",
    "pipe-sweep-speed": "sweep --input {corpus}|{pipe} --profiles {speed} --rank speed"
                        " --strategies hc,mv-bm,mvcp-hc",
    "pipe-indel-sweep-accuracy": "sweep --input {indel}|{pipe} --alphabet ÄÖ€ΩZ"
                                 " --profiles {profiles}",
    "pipe-indel-sweep-speed": "sweep --input {indel}|{pipe} --alphabet ÄÖ€ΩZ"
                              " --profiles {speed} --rank speed",
    "spaced-fuse-mv-hc": "fuse --input {corpus}|{corpus_spaced} --strategy mv-hc",
    # hc and normalization read every confidence, which a matched line
    # decodes only when read.
    "spaced-fuse-hc": "fuse --input {corpus}|{corpus_spaced} --strategy hc",
    "spaced-fuse-normalized": "fuse --input {corpus}|{corpus_spaced} --strategy mvcp-hc"
                              " --normalize per-model-mean",
    "spaced-eval-fused": "eval --input {corpus}|{corpus_spaced} --fused {fused}|{fused_spaced}",
    # The model id read as a model id and as a contributor.
    "accented-eval-fused": "eval --input {accented} --strategy|--fused mvcp-hc|{accented_fused}",
}


@pytest.mark.parametrize("case", _ROUTES)
def test_every_route_gives_the_bytes_of_the_file_route(tmp_path, route_files, case):
    words = [word.format(pipe="/dev/stdin", **route_files).split("|")
             for word in _ROUTES[case].split()]
    file_route, other_route = [w[0] for w in words], [w[-1] for w in words]
    expected, out = tmp_path / "expected", tmp_path / "out"
    assert run(*file_route, "--output", str(expected)) == 0
    if "/dev/stdin" in other_route:
        # As `cat corpus | platefuse ... --input /dev/stdin` reads it.
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "platefuse.cli", *other_route, "--output", str(out)],
            input=Path(file_route[file_route.index("--input") + 1]).read_bytes(),
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
    else:
        assert run(*other_route, "--output", str(out)) == 0
    assert out.read_bytes() == expected.read_bytes()


def test_fuse_missing_input_fails_cleanly(tmp_path, capsys):
    assert run("fuse", "--input", str(tmp_path / "nope.jsonl"),
               "--strategy", "mv-hc", "--output", str(tmp_path / "o")) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    # A byte that is not UTF-8.
    b'{"sample_id": "s1", "dataset": "d\xff", "ground_truth": "AB", '
    b'"predictions": {"m": {"text": "AB", "confidence": 0.5}}}\n',
    # A JSON escape that decodes to a lone surrogate.
    b'{"sample_id": "s1", "dataset": "d\\ud800", "ground_truth": "AB", '
    b'"predictions": {"m": {"text": "AB", "confidence": 0.5}}}\n',
], ids=["non-utf8", "lone-surrogate"])
def test_eval_rejects_unencodable_input_with_line(tmp_path, capsys, line):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(line)
    out = tmp_path / "out.csv"
    out.write_bytes(b"old report\n")
    assert run("eval", "--input", str(corpus), "--strategy", "mv-hc",
               "--output", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: line 1:")
    assert out.read_bytes() == b"old report\n"


def test_fuse_is_idempotent(tmp_path):
    out1 = tmp_path / "fused1.jsonl"
    out2 = tmp_path / "fused2.jsonl"
    run("fuse", "--input", str(SHOWCASE_PATH), "--strategy", "mvcp-hc",
        "--output", str(out1))
    run("fuse", "--input", str(SHOWCASE_PATH), "--strategy", "mvcp-hc",
        "--output", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def _corpus_lines(count):
    return [json.dumps({"sample_id": f"s{i}", "dataset": "d", "ground_truth": "AB",
                        "predictions": {"m": {"text": "AB", "confidence": 0.5}}})
            for i in range(count)]


def test_fuse_rejection_on_the_last_line_keeps_the_old_output(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([*_corpus_lines(2), '{"sample_id": "s2"']) + "\n")
    out = tmp_path / "fused.jsonl"
    out.write_bytes(b"old fused\n")
    assert run("fuse", "--input", str(corpus), "--strategy", "hc",
               "--output", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: line 3: invalid JSON")
    assert out.read_bytes() == b"old fused\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "fused.jsonl"]


def test_eval_rejects_a_confidence_past_the_integer_digit_limit(tmp_path, capsys):
    # json.loads raises ValueError, not JSONDecodeError, for an integer of
    # more than 4300 digits; without that limit the value is out of range.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(_corpus_lines(1)[0] + "\n" + _corpus_lines(2)[1].replace(
        '"confidence": 0.5', '"confidence": ' + "1" * 5000) + "\n")
    assert run("eval", "--input", str(corpus), "--strategy", "hc") == 1
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize("command", ["fuse", "eval"])
def test_unranked_model_on_an_earlier_line_wins_over_a_later_bad_line(
        tmp_path, capsys, profiles_path, command):
    # Records are fused as they are read, so the ranking error of line 1 is
    # met before the invalid JSON of line 2.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(_corpus_lines(1)[0] + "\n" + '{"sample_id": "s1"' + "\n")
    out = tmp_path / "out"
    out.write_bytes(b"old output\n")
    assert run(command, "--input", str(corpus), "--strategy", "mv-bm",
               "--profiles", str(profiles_path), "--output", str(out)) == 1
    assert capsys.readouterr().err == \
        "error: model 'm' is missing from the ranking\n"
    assert out.read_bytes() == b"old output\n"


def test_per_model_mean_from_a_file_and_from_a_pipe(tmp_path, caplog):
    corpus = tmp_path / "corpus.jsonl"
    lines = [json.dumps(json.loads(line) | {"camera": "c3"})  # an unknown field
             for line in SHOWCASE_PATH.read_text().splitlines()]
    corpus.write_text("\n".join(lines) + "\n")
    strategy = FusionStrategy("hc")
    def fused(samples):
        return [fileio.FusedRecord.from_result(s, apply_strategy(s.predictions, strategy))
                for s in samples]
    expected = fused(normalize_confidences(fileio.load_predictions(SHOWCASE_PATH),
                                           "per-model-mean"))
    assert expected != fused(fileio.load_predictions(SHOWCASE_PATH))
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(corpus.read_bytes(),),
                              daemon=True)
    writer.start()
    for source in (corpus, fifo):
        out = tmp_path / "fused.jsonl"
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="platefuse.fileio"):
            assert run("fuse", "--input", str(source), "--normalize", "per-model-mean",
                       "--strategy", "hc", "--output", str(out)) == 0
        assert list(fileio.load_fused(out)) == expected
        # The first unknown field is warned about with its line, the other
        # seven are counted in one summary line.
        assert [r.getMessage() for r in caplog.records] == [
            "line 1: unknown field(s) 'camera' (ignored)",
            f"{len(lines) - 1} more records with unknown fields (ignored)"]
    writer.join(timeout=10)
    assert not writer.is_alive()


def _peak_bytes(*argv):
    """Peak memory that Python allocated while the command ran."""
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def memory_corpora(tmp_path_factory):
    """Corpora of 1k and 4k samples of 12 models, each with its mvcp-hc fusion."""
    tmp_path = tmp_path_factory.mktemp("memory")
    corpora = []
    for size in (1000, 4000):
        config = SynthConfig(seed=21, n_models=12, n_samples=size, plate_length=7,
                             per_model=tuple(ErrorModel(per_char_sub_rate=0.1,
                                                        insertion_rate=0.04,
                                                        deletion_rate=0.04)
                                             for _ in range(12)))
        corpus = tmp_path / f"corpus-{size}.jsonl"
        fileio.dump_predictions(generate(config), corpus)
        fused = tmp_path / f"fused-{size}.jsonl"
        assert run("fuse", "--input", str(corpus), "--strategy", "mvcp-hc",
                   "--output", str(fused)) == 0
        corpora.append((size, corpus, fused))
    return corpora


@pytest.fixture(scope="module")
def varied_corpora(memory_corpora, tmp_path_factory):
    """The memory corpora as ``(size, path)`` pairs, each sample with an
    unranked model of its own too, so that no two samples share a model set."""
    tmp_path = tmp_path_factory.mktemp("varied")
    corpora = []
    for size, corpus, _ in memory_corpora:
        varied = tmp_path / f"varied-{size}.jsonl"
        with open(corpus, encoding="utf-8") as lines, \
                open(varied, "w", encoding="utf-8") as out:
            for i, line in enumerate(lines):
                record = json.loads(line)
                record["predictions"][f"x{i:05d}"] = {"text": "A", "confidence": 0.5}
                out.write(json.dumps(record) + "\n")
        corpora.append((size, varied))
    return corpora


def _bytes_per_sample(corpora, command, *options):
    """Peak-memory growth per sample of running ``command`` with ``options``
    on the larger corpus of ``corpora``, ``(size, path)`` pairs, over the
    smaller; and the two peaks."""
    args = [(command, "--input", str(corpus), *options) for _, corpus in corpora]
    # Untraced first, so that one-time set-up is not counted.
    assert run(*args[0]) == 0
    small, large = (_peak_bytes(*argv) for argv in args)
    (small_n, _), (large_n, _) = corpora
    return (large - small) / (large_n - small_n), (small, large)


def test_fuse_memory_does_not_grow_with_the_corpus(tmp_path, memory_corpora):
    out = tmp_path / "fused.jsonl"
    # Each corpus was fused once already, so one-time set-up (caches,
    # imports) is not counted.
    small, large = (_peak_bytes("fuse", "--input", str(corpus), "--strategy", "mvcp-hc",
                                "--output", str(out))
                    for _, corpus, _ in memory_corpora)
    assert abs(large - small) < 1_000_000, (small, large)


def test_fuse_memory_from_a_pipe_does_not_grow_with_the_corpus(tmp_path, memory_corpora):
    # A pipe is read once, line by line, as a regular file is. Holding it
    # whole (to check all of it is UTF-8 first) cost some 900 bytes a sample.
    out = tmp_path / "fused.jsonl"
    fifo = tmp_path / "pipe"
    peaks = []
    for _, corpus, _ in memory_corpora:
        os.mkfifo(fifo)
        # Read before tracing starts, so the writer's copy is not counted.
        writer = threading.Thread(target=fifo.write_bytes, args=(corpus.read_bytes(),),
                                  daemon=True)
        writer.start()
        peaks.append(_peak_bytes("fuse", "--input", str(fifo), "--strategy", "mvcp-hc",
                                 "--output", str(out)))
        writer.join(timeout=10)
        assert not writer.is_alive()
        fifo.unlink()
    small, large = peaks
    assert abs(large - small) < 1_000_000, (small, large)


def test_simulate_memory_does_not_grow_with_the_corpus(tmp_path):
    # simulate writes each sample as it is drawn. Drawing the whole corpus
    # before writing it held some 1,500 bytes a sample.
    out = tmp_path / "corpus.jsonl"
    args = []
    for size in (1000, 4000):
        config = tmp_path / f"config-{size}.json"
        config.write_text(json.dumps({"seed": 21, "n_models": 12, "n_samples": size,
                                      "plate_length": 7}))
        args.append(("simulate", "--config", str(config), "--output", str(out)))
    # Untraced first, so that one-time set-up is not counted.
    assert run(*args[0]) == 0
    small, large = (_peak_bytes(*argv) for argv in args)
    assert abs(large - small) < 1_000_000, (small, large)


def test_eval_fused_memory_per_sample(tmp_path, memory_corpora):
    # eval --fused holds the fused texts not yet matched, which at the start
    # of the corpus is all of them, and the loader's set of sample ids: about
    # 170 bytes a sample. Keeping each sample's id, dataset and ground truth
    # for scoring too cost some 450; building each sample's predictions, or a
    # list of the fused records, some 1,400.
    out = tmp_path / "eval.csv"
    args = [("eval", "--input", str(corpus), "--fused", str(fused), "--output", str(out))
            for _, corpus, fused in memory_corpora]
    # Untraced first, so that one-time set-up is not counted.
    assert run(*args[0]) == 0
    small, large = (_peak_bytes(*argv) for argv in args)
    (small_n, *_), (large_n, *_) = memory_corpora
    assert (large - small) / (large_n - small_n) < 300, (small, large)


def test_eval_strategy_memory_per_sample(tmp_path, memory_corpora):
    # eval --strategy scores each sample as it is fused, so it holds only
    # the loader's set of sample ids, about 85 bytes a sample here. Keeping
    # each sample's id, dataset, ground truth and fused text cost some 395.
    out = tmp_path / "eval.csv"
    args = [("eval", "--input", str(corpus), "--strategy", "mvcp-hc", "--output", str(out))
            for _, corpus, _ in memory_corpora]
    assert run(*args[0]) == 0
    small, large = (_peak_bytes(*argv) for argv in args)
    (small_n, *_), (large_n, *_) = memory_corpora
    assert (large - small) / (large_n - small_n) < 200, (small, large)


def _sweep_bytes_per_sample(tmp_path, corpora):
    """Peak-memory growth per sample of sweeping the larger corpus of
    ``corpora``, ``(size, path)`` pairs, over the smaller, under the
    memory corpora's 12 ranked models."""
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text("".join(
        json.dumps({"id": f"m{i:02d}", "accuracy_rank": i + 1, "latency_ms": 5.0 + i})
        + "\n" for i in range(12)))
    return _bytes_per_sample(corpora, "sweep", "--profiles", str(profiles),
                             "--output", str(tmp_path / "sweep.csv"))


def test_sweep_memory_per_sample(tmp_path, memory_corpora):
    # sweep scores each sample for every N and strategy as it is read, so
    # it holds only the loader's set of sample ids, about 90 bytes a sample
    # here. Holding the corpus and a fused-text map per (strategy, N) cost
    # some 1,970.
    per_sample, peaks = _sweep_bytes_per_sample(
        tmp_path, [(size, corpus) for size, corpus, _ in memory_corpora])
    assert per_sample < 300, peaks


def test_sweep_memory_with_a_model_set_per_sample(tmp_path, varied_corpora):
    # No two samples share a model set. sweep keeps the current model set's
    # pick only, and the loader checks each model id without keeping it, so
    # sweep holds only the set of sample ids, as with fixed model sets (about
    # 90 bytes a sample). A pick per model set cost some 1,180 bytes a
    # sample; a set of the model ids checked, some 85 more.
    per_sample, peaks = _sweep_bytes_per_sample(tmp_path, varied_corpora)
    assert per_sample < 130, peaks


def test_fuse_and_eval_memory_with_a_model_set_per_sample(tmp_path, varied_corpora):
    # fuse and eval --strategy hold only the loader's set of sample ids
    # whatever model ids the samples carry (about 90 bytes a sample). A set
    # of the model ids checked grew by one id a sample, some 85 bytes more.
    for command, out in (("fuse", "fused.jsonl"), ("eval", "eval.csv")):
        per_sample, peaks = _bytes_per_sample(varied_corpora, command,
                                              "--strategy", "mvcp-hc",
                                              "--output", str(tmp_path / out))
        assert per_sample < 130, (command, peaks)


# --- eval ------------------------------------------------------------------------

def test_eval_with_precomputed_fused(tmp_path):
    fused = tmp_path / "fused.jsonl"
    run("fuse", "--input", str(SHOWCASE_PATH), "--strategy", "mv-hc",
        "--output", str(fused))
    report = tmp_path / "report.csv"
    assert run("eval", "--input", str(SHOWCASE_PATH), "--fused", str(fused),
               "--output", str(report)) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "dataset,total,correct,rate"
    # mv-hc recognizes a, c, e, f, g; cases b, d, h remain wrong.
    assert lines[1] == "showcase,8,5,62.5"


def test_eval_on_the_fly_matches_fused_route(tmp_path):
    fused = tmp_path / "fused.jsonl"
    run("fuse", "--input", str(SHOWCASE_PATH), "--strategy", "mv-hc",
        "--output", str(fused))
    via_fused = tmp_path / "a.csv"
    via_strategy = tmp_path / "b.csv"
    run("eval", "--input", str(SHOWCASE_PATH), "--fused", str(fused),
        "--output", str(via_fused))
    run("eval", "--input", str(SHOWCASE_PATH), "--strategy", "mv-hc",
        "--output", str(via_strategy))
    assert via_fused.read_bytes() == via_strategy.read_bytes()


def test_eval_fused_ignores_confidence_normalization(tmp_path):
    # The fused route reads no confidence, so there is nothing to rescale.
    fused = tmp_path / "fused.jsonl"
    assert run("fuse", "--input", str(SHOWCASE_PATH), "--strategy", "mv-hc",
               "--output", str(fused)) == 0
    reports = []
    for mode in ("off", "per-model-mean"):
        reports.append(tmp_path / f"eval-{mode}.csv")
        assert run("eval", "--input", str(SHOWCASE_PATH), "--fused", str(fused),
                   "--normalize", mode, "--output", str(reports[-1])) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


def _twin_corpora(tmp_path):
    """A corpus in canonical form, and its twin that the loader must read the same.

    In the twin every text is lowercase and holds separators, the exact
    confidences 0.0 and 1.0 are the integers 0 and 1, and every prediction
    has an unknown field, which the CLI's tolerant mode ignores.
    """
    corpus = tmp_path / "generated.jsonl"
    fileio.dump_predictions(generate(SynthConfig(seed=5, n_models=6, n_samples=300,
                                                 plate_length=7)), corpus)
    canonical, twin = [], []
    for i, line in enumerate(corpus.read_text().splitlines()):
        record = json.loads(line)
        for k, entry in enumerate(record["predictions"].values()):
            entry["confidence"] = {0: 0.0, 1: 1.0}.get((i + k) % 5, entry["confidence"])
        canonical.append(json.dumps(record))
        record["ground_truth"] = _twin_text(record["ground_truth"])
        for entry in record["predictions"].values():
            entry["text"] = _twin_text(entry["text"])
            if entry["confidence"] in (0.0, 1.0):
                entry["confidence"] = int(entry["confidence"])
            entry["camera"] = "c1"
        twin.append(json.dumps(record))
    paths = tmp_path / "canonical.jsonl", tmp_path / "twin.jsonl"
    for path, lines in zip(paths, (canonical, twin)):
        path.write_text("\n".join(lines) + "\n")
    assert '"confidence": 0,' in paths[1].read_text()
    assert '"confidence": 1,' in paths[1].read_text()
    return paths


def _twin_text(text):
    return text[0].lower() + "-" + text[1:].lower() + " "


@pytest.mark.parametrize("strategy", ["hc", "mv-hc", "mvcp-hc"])
def test_twin_corpus_fuses_and_scores_to_the_same_bytes(tmp_path, strategy):
    canonical, twin = _twin_corpora(tmp_path)
    assert (list(fileio.load_predictions(twin, strict=False))
            == list(fileio.load_predictions(canonical)))
    outputs = []
    for corpus in (canonical, twin):
        fused = tmp_path / f"fused-{corpus.stem}.jsonl"
        report = tmp_path / f"eval-{corpus.stem}.csv"
        assert run("fuse", "--input", str(corpus), "--strategy", strategy,
                   "--output", str(fused)) == 0
        assert run("eval", "--input", str(corpus), "--fused", str(fused),
                   "--output", str(report)) == 0
        outputs.append((fused.read_bytes(), report.read_bytes()))
    assert outputs[1] == outputs[0]


def _one_sample_with_extra_fused_ids(tmp_path, extra=("zz",)):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({
        "sample_id": "s1", "dataset": "d", "ground_truth": "AB12",
        "predictions": {"m": {"text": "AB12", "confidence": 0.5}},
    }) + "\n")
    fused = tmp_path / "fused.jsonl"
    fused.write_text("".join(
        json.dumps({"sample_id": sample_id, "dataset": "d", "text": "AB12",
                    "winning_votes": 1, "tie_broken": False,
                    "contributors": ["m"]}) + "\n"
        for sample_id in ("s1", *extra)
    ))
    return corpus, fused


def test_eval_bm_without_profiles_is_a_usage_error_before_a_corpus_error(
        tmp_path, capsys):
    # The strategy is built before the corpus is streamed, so the missing
    # --profiles (exit 2) is reported ahead of the corpus's invalid JSON.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"sample_id": "s0"\n')
    with pytest.raises(SystemExit) as exc:
        run("eval", "--input", str(corpus), "--strategy", "mv-bm")
    assert exc.value.code == 2
    assert "requires --profiles" in capsys.readouterr().err


def test_eval_reports_a_fused_file_error_before_a_corpus_error(tmp_path, capsys):
    # The fused texts are loaded first, and the corpus is scored as it streams.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(_corpus_lines(1)[0] + "\n[1]\n")
    fused = tmp_path / "fused.jsonl"
    fused.write_text('{"sample_id": "s0"\n')
    assert run("eval", "--input", str(corpus), "--fused", str(fused)) == 1
    assert capsys.readouterr().err.startswith("error: line 1: invalid JSON")


def test_eval_fused_without_a_corpus_sample_is_uncovered(tmp_path, capsys):
    corpus, fused = _one_sample_with_extra_fused_ids(tmp_path, ())
    corpus.write_text(corpus.read_text() + _corpus_lines(1)[0] + "\n")
    assert run("eval", "--input", str(corpus), "--fused", str(fused)) == 1
    assert capsys.readouterr().err == "error: no fused output for sample 's0'\n"


@pytest.mark.parametrize("command", [
    ["eval", "--strategy", "mv-hc"],
    ["eval", "--fused", "{fused}"],
    ["sweep", "--profiles", "{profiles}"],
], ids=["eval-strategy", "eval-fused", "sweep"])
def test_a_sample_without_ground_truth_is_reported_before_a_later_rejection(
        tmp_path, capsys, command):
    # Each sample is scored as it is read, so the first sample's missing
    # ground truth comes before the second line's fault.
    record = json.loads(_corpus_lines(1)[0])
    del record["ground_truth"]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(record) + "\n[1]\n")
    fused = tmp_path / "fused.jsonl"
    fused.write_text(json.dumps({
        "sample_id": "s0", "dataset": "d", "text": "AB", "winning_votes": 1,
        "tie_broken": False, "contributors": ["m"]}) + "\n")
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text(
        json.dumps({"id": "m", "accuracy_rank": 1, "latency_ms": 1.0}) + "\n")
    name, *options = (word.format(fused=fused, profiles=profiles) for word in command)
    assert run(name, "--input", str(corpus), *options) == 1
    assert capsys.readouterr().err == "error: sample 's0' has no ground truth\n"


def test_sweep_reports_a_missing_ground_truth_before_a_missing_model(tmp_path, capsys):
    # Both samples would fall in one voted block, but each is checked as it
    # is read: the first has no ground truth, the second lacks ranked model n.
    first, second = (json.loads(line) for line in _corpus_lines(2))
    del first["ground_truth"]
    first["predictions"]["n"] = {"text": "AB", "confidence": 0.5}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text("".join(
        json.dumps({"id": m, "accuracy_rank": rank, "latency_ms": 1.0}) + "\n"
        for rank, m in enumerate("mn", 1)))
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--input", str(corpus), "--profiles", str(profiles),
               "--output", str(out)) == 1
    assert capsys.readouterr().err == "error: sample 's0' has no ground truth\n"
    assert not out.exists()


def test_sweep_reports_a_profiles_error_before_a_corpus_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("[1]\n")
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text('{"id": "m", "accuracy_rank": 1, "latency_ms": 0}\n')
    assert run("sweep", "--input", str(corpus), "--profiles", str(profiles)) == 1
    assert capsys.readouterr().err == (
        "error: line 1: latency_ms must be in [0.001, 1e9], got 0.0\n")


def test_eval_strict_rejects_fused_id_missing_from_corpus(tmp_path, capsys):
    corpus, fused = _one_sample_with_extra_fused_ids(tmp_path)
    assert run("eval", "--input", str(corpus), "--fused", str(fused),
               "--strict") == 1
    assert capsys.readouterr().err == (
        f"error: {fused}: fused sample_id 'zz' is not in {corpus}\n")


def test_eval_tolerant_warns_of_the_first_unmatched_fused_id_and_counts_the_rest(
        tmp_path, capsys, caplog):
    corpus, fused = _one_sample_with_extra_fused_ids(tmp_path, ("zz", "zy", "zx", "zw"))
    with caplog.at_level(logging.WARNING, logger="platefuse"):
        assert run("eval", "--input", str(corpus), "--fused", str(fused)) == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"{fused}: fused sample_id 'zz' is not in {corpus} (ignored)",
        "3 more fused sample_ids not in the corpus (ignored)"]
    assert capsys.readouterr().out.splitlines()[1] == "d,1,1,100.0"


def test_duplicate_sample_id_keeps_the_first_record(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"sample_id": "s1", "dataset": "d", "ground_truth": truth,
                    "predictions": {"m": {"text": "AB", "confidence": 0.5}}}) + "\n"
        for truth in ("AB", "CD")
    ))
    assert run("eval", "--input", str(corpus), "--strategy", "hc") == 0
    assert capsys.readouterr().out.splitlines()[1] == "d,1,1,100.0"
    fused = tmp_path / "fused.jsonl"
    assert run("fuse", "--input", str(corpus), "--strategy", "hc",
               "--output", str(fused)) == 0
    assert len(fused.read_text().splitlines()) == 1
    assert run("eval", "--input", str(corpus), "--fused", str(fused)) == 0
    assert capsys.readouterr().out.splitlines()[1] == "d,1,1,100.0"


@pytest.mark.parametrize("separator", ["\u2028", "\u0085"])
def test_eval_then_report_round_trips_a_unicode_separator(tmp_path, separator):
    corpus = tmp_path / "corpus.jsonl"
    dataset = f"gate{separator}cam"
    corpus.write_text(json.dumps({
        "sample_id": "s1", "dataset": dataset, "ground_truth": "AB",
        "predictions": {"m": {"text": "AB", "confidence": 0.5}},
    }, ensure_ascii=False) + "\n", encoding="utf-8")
    report = tmp_path / "report.csv"
    assert run("eval", "--input", str(corpus), "--strategy", "mv-hc",
               "--output", str(report)) == 0
    assert report.read_text(encoding="utf-8").split("\n")[1] == f"{dataset},1,1,100.0"
    again = tmp_path / "again.csv"
    assert run("report", "--input", str(report), "--format", "delimited",
               "--output", str(again)) == 0
    assert again.read_bytes() == report.read_bytes()


def test_eval_rejects_a_dataset_that_breaks_the_report(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({
        "sample_id": "s1", "dataset": "gate,cam", "ground_truth": "AB",
        "predictions": {"m": {"text": "AB", "confidence": 0.5}},
    }) + "\n")
    assert run("eval", "--input", str(corpus), "--strategy", "hc") == 1
    assert capsys.readouterr().err == (
        "error: line 1: dataset 'gate,cam' holds a comma or line break\n")


@pytest.mark.parametrize("ending,accepted", [("\r\n", True), ("\r", False)])
def test_report_line_endings(tmp_path, capsys, ending, accepted):
    report = tmp_path / "report.csv"
    report.write_bytes(ending.join(["dataset,total,correct,rate", "d,1,1,100.0",
                                    "average,,,100.0", ""]).encode())
    assert run("report", "--input", str(report)) == (0 if accepted else 1)
    out, err = capsys.readouterr()
    if accepted:
        assert out.splitlines()[2].split() == ["d", "1", "1", "100.0"]
    else:
        assert err.startswith("error: line 1: carriage return")


# --- sweep ------------------------------------------------------------------------

def _showcase_top5(tmp_path, stock_profiles):
    path = tmp_path / "top5.jsonl"
    fileio.dump_profiles(
        [p for p in stock_profiles if p.accuracy_rank <= 5], path
    )
    return path


def test_sweep_speed_rank_row_order(tmp_path, stock_profiles):
    top5 = _showcase_top5(tmp_path, stock_profiles)
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--input", str(SHOWCASE_PATH), "--profiles", str(top5),
               "--rank", "speed", "--strategies", "mv-hc",
               "--output", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == \
        ["CR-NET", "STAR-Net", "ViTSTR-Base", "RARE", "TRBA"]
    # Cumulative latency follows the speed ordering.
    assert [r[-2] for r in rows] == ["5.3", "12.4", "19.7", "32.7", "49.6"]


def test_sweep_table_format(tmp_path, stock_profiles):
    top5 = _showcase_top5(tmp_path, stock_profiles)
    out = tmp_path / "sweep.txt"
    assert run("sweep", "--input", str(SHOWCASE_PATH), "--profiles", str(top5),
               "--rank", "accuracy", "--format", "table",
               "--output", str(out)) == 0
    text = out.read_text()
    assert "7.3 / 137" in text
    assert "top-n" in text


def test_sweep_rejects_unknown_strategy(tmp_path, profiles_path, capsys):
    with pytest.raises(SystemExit):
        run("sweep", "--input", str(SHOWCASE_PATH),
            "--profiles", str(profiles_path), "--strategies", "mv-xx")
    assert "unknown strategy" in capsys.readouterr().err


def test_sweep_rejects_a_repeated_strategy(tmp_path, profiles_path, capsys):
    # A usage error, so it is reported ahead of a corpus rejection.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"sample_id": "s1"}\n')
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run("sweep", "--input", str(corpus), "--profiles", str(profiles_path),
            "--strategies", "hc,mv-hc, hc", "--output", str(out))
    assert exc.value.code == 2
    assert "strategy 'hc' given twice" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_an_empty_strategy_list(tmp_path, profiles_path, capsys):
    # A usage error like an unknown or repeated name, ahead of a corpus rejection.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"sample_id": "s1"}\n')
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run("sweep", "--input", str(corpus), "--profiles", str(profiles_path),
            "--strategies", " , ", "--output", str(out))
    assert exc.value.code == 2
    assert "error: no strategies to sweep" in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_does_not_import_the_sweep_vote():
    # sweep_top_n imports platefuse.blockvote when a sweep runs.
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, platefuse.cli; print('platefuse.blockvote' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv,message", [
    (("sweep", "--strategies", " , "), "no strategies to sweep"),
    (("sweep", "--strategies", "mv-xx"), "unknown strategy 'mv-xx'"),
    (("sweep", "--strategies", "hc,mv-hc, hc"), "strategy 'hc' given twice"),
    (("fuse", "--strategy", "mv-bm"), "strategy 'mv-bm' requires --profiles"),
    (("eval", "--strategy", "mvcp-bm"), "strategy 'mvcp-bm' requires --profiles"),
    # Neither file exists: the usage error comes first.
    (("eval", "--fused", "no-such-fused.jsonl", "--profiles", "no-such-profiles.jsonl"),
     "--profiles applies only with --strategy"),
], ids=["sweep-empty", "sweep-unknown", "sweep-repeated", "fuse-bm", "eval-bm",
        "eval-fused-profiles"])
def test_a_usage_error_prints_its_subcommand_usage(tmp_path, profiles_path, capsys,
                                                  argv, message):
    command, *options = argv
    out = tmp_path / "out"
    extra = {"sweep": ("--profiles", str(profiles_path)), "eval": ()}.get(
        command, ("--output", str(out)))
    with pytest.raises(SystemExit) as exc:
        run(command, "--input", str(SHOWCASE_PATH), *options, *extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: platefuse {command} [-h]")
    assert err.endswith(f"platefuse {command}: error: {message}\n")
    assert not out.exists()


def test_sweep_rejects_a_latency_it_cannot_render(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({
        "sample_id": "s1", "dataset": "d", "ground_truth": "AB",
        "predictions": {m: {"text": "AB", "confidence": 0.5} for m in ("a", "b")},
    }) + "\n")
    profiles = tmp_path / "profiles.jsonl"
    out = tmp_path / "sweep.csv"
    def sweep(latencies):
        profiles.write_text("".join(
            json.dumps({"id": m, "accuracy_rank": rank, "latency_ms": latency}) + "\n"
            for rank, (m, latency) in enumerate(zip("ab", latencies), start=1)))
        return run("sweep", "--input", str(corpus), "--profiles", str(profiles),
                   "--output", str(out))
    # The ends of the accepted range render, summed and as FPS.
    assert sweep([1e-3, 1e9]) == 0
    assert [line.split(",")[-2:] for line in out.read_text().splitlines()[1:]] == [
        ["0.0", "1000000"], ["1000000000.0", "0"]]
    # An FPS of inf, a sum past Decimal's precision, a sum past float range.
    for latencies, number in (([1e-310, 1.0], 1), ([1.0, 1e30], 2),
                              ([1e308, 1e308], 1)):
        capsys.readouterr()
        assert sweep(latencies) == 1
        assert capsys.readouterr().err == (
            f"error: line {number}: latency_ms must be in [0.001, 1e9], "
            f"got {latencies[number - 1]!r}\n")


# --- simulate / report --------------------------------------------------------------

def test_simulate_then_eval_zero_noise(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 5, "n_models": 4, "n_samples": 40, "plate_length": 7,
        "per_model": [{"per_char_sub_rate": 0.0} for _ in range(4)],
    }))
    corpus = tmp_path / "corpus.jsonl"
    assert run("simulate", "--config", str(config), "--output", str(corpus)) == 0
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text("\n".join(
        json.dumps({"id": f"m0{i}", "accuracy_rank": i + 1, "latency_ms": 1.0 + i})
        for i in range(4)
    ) + "\n")
    for strategy in ("hc", "mv-bm", "mv-hc", "mvcp-bm", "mvcp-hc"):
        report = tmp_path / f"report-{strategy}.csv"
        assert run("eval", "--input", str(corpus), "--strategy", strategy,
                   "--profiles", str(profiles), "--output", str(report)) == 0
        assert report.read_text().splitlines()[-1] == "average,,,100.0"


def test_simulate_deterministic(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 77, "n_models": 3, "n_samples": 25, "plate_length": 6,
        "per_model": [{"per_char_sub_rate": 0.3, "insertion_rate": 0.15,
                       "deletion_rate": 0.15} for _ in range(3)],
    }))
    out1 = tmp_path / "c1.jsonl"
    out2 = tmp_path / "c2.jsonl"
    run("simulate", "--config", str(config), "--output", str(out1))
    run("simulate", "--config", str(config), "--output", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_rejects_a_confidence_past_float_range(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        '{"seed": 1, "n_models": 1, "n_samples": 1, "plate_length": 3, '
        '"per_model": [{"confidence_when_correct": [1' + "0" * 400 + ', 0.1]}]}')
    out = tmp_path / "corpus.jsonl"
    assert run("simulate", "--config", str(config), "--output", str(out)) == 1
    assert capsys.readouterr().err == (
        "error: config: per_model[0]: confidence_when_correct mean must be in (0, 1]\n")
    assert not out.exists()


def test_simulate_rejects_an_alphabet_utf8_cannot_encode(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"seed": 1, "n_models": 1, "n_samples": 1, "plate_length": 3, '
                      '"alphabet": "\\ud800A"}')
    out = tmp_path / "corpus.jsonl"
    assert run("simulate", "--config", str(config), "--output", str(out)) == 1
    assert capsys.readouterr().err == (
        "error: config: alphabet symbol '\\ud800' is not encodable as UTF-8\n")
    assert not out.exists()


def test_report_renders_table(tmp_path, capsys):
    report = tmp_path / "report.csv"
    run("eval", "--input", str(SHOWCASE_PATH), "--strategy", "mv-hc",
        "--output", str(report))
    assert run("report", "--input", str(report), "--format", "table") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["dataset", "total", "correct", "rate"]
    assert "62.5" in out


def test_report_rejects_a_byte_order_mark(tmp_path, capsys):
    # As every JSONL loader does, instead of keeping it in the first cell.
    report = tmp_path / "report.csv"
    report.write_text("\ufeffdataset,total,correct,rate\nd,1,1,100.0\n",
                      encoding="utf-8")
    assert run("report", "--input", str(report)) == 1
    assert capsys.readouterr() == ("", "error: line 1: unexpected UTF-8 BOM\n")


def test_report_rejects_non_utf8_input_with_line(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_bytes(b"dataset,total,correct,rate\nd\xe9,1,1,100.0\n")
    assert run("report", "--input", str(report)) == 1
    assert capsys.readouterr().err.startswith("error: line 2: not UTF-8")
