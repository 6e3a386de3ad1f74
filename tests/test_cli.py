"""End-to-end tests for the command-line interface."""

import json
import logging

import pytest

from conftest import SHOWCASE_PATH
from platefuse import cli, fileio


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


def test_fuse_bm_with_profiles(tmp_path, profiles_path):
    out = tmp_path / "fused.jsonl"
    assert run("fuse", "--input", str(SHOWCASE_PATH), "--strategy", "mv-bm",
               "--profiles", str(profiles_path), "--output", str(out)) == 0
    # 2-2 tie on case-a resolved toward the rank-1 model's text.
    assert _fused_texts(out)["case-a"] == "AIQ1Q56"


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


def _one_sample_with_extra_fused_id(tmp_path):
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
        for sample_id in ("s1", "zz")
    ))
    return corpus, fused


def test_eval_strict_rejects_fused_id_missing_from_corpus(tmp_path, capsys):
    corpus, fused = _one_sample_with_extra_fused_id(tmp_path)
    assert run("eval", "--input", str(corpus), "--fused", str(fused),
               "--strict") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'zz'" in err


def test_eval_tolerant_warns_once_per_unmatched_fused_id(tmp_path, capsys, caplog):
    corpus, fused = _one_sample_with_extra_fused_id(tmp_path)
    with caplog.at_level(logging.WARNING, logger="platefuse.cli"):
        assert run("eval", "--input", str(corpus), "--fused", str(fused)) == 0
    warnings = [r.getMessage() for r in caplog.records if r.name == "platefuse.cli"]
    assert len(warnings) == 1 and "'zz'" in warnings[0]
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


def test_report_renders_table(tmp_path, capsys):
    report = tmp_path / "report.csv"
    run("eval", "--input", str(SHOWCASE_PATH), "--strategy", "mv-hc",
        "--output", str(report))
    assert run("report", "--input", str(report), "--format", "table") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["dataset", "total", "correct", "rate"]
    assert "62.5" in out


def test_report_rejects_non_utf8_input_with_line(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_bytes(b"dataset,total,correct,rate\nd\xe9,1,1,100.0\n")
    assert run("report", "--input", str(report)) == 1
    assert capsys.readouterr().err.startswith("error: line 2: not UTF-8")
