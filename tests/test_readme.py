"""README's quick-start examples run as written and print what they claim."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from platefuse import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_block(heading: str, language: str = "") -> str:
    """The first fenced block after ``heading`` in README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    match = re.search(rf"^```{language}\n(.*?)^```$", section, re.S | re.M)
    return match.group(1)


def test_api_quick_start_prints_its_comments():
    code = _first_block("## Quick start (API)", "python")
    expected = [line.split("#", 1)[1].split()[0]
                for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["AIQ1056", "2", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().split() == expected


def test_cli_quick_start_chain(tmp_path, monkeypatch, capsys):
    block = _first_block("## Quick start (CLI)")
    heredoc = re.search(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, re.S | re.M)
    config_name, config = heredoc.groups()
    monkeypatch.chdir(tmp_path)
    (tmp_path / config_name).write_text(config, encoding="utf-8")
    commands = [shlex.split(line) for line in block[heredoc.end():].splitlines()
                if line.startswith("platefuse ")]
    assert [argv[1] for argv in commands] == ["simulate", "fuse", "eval"]
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    table = capsys.readouterr().out
    assert re.search(r"^average\s", table, re.M), table
