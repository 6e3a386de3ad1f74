"""The benchmark's traced run still finds every layer it times.

``perfbench/traced.py`` wraps the functions the CLI reaches by name, and
``perfbench/run.py`` fails a traced command that never enters one of its
expected spans. A refactor that routes around those bindings would fail the
benchmark; this runs the same check on a tiny corpus so that it fails here.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_MODULES = ("run", "checks", "speedometer", "traced", "setup_inputs")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``run`` and ``setup_inputs`` modules, imported as it imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("setup_inputs")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in _MODULES:
            sys.modules.pop(name, None)


def test_traced_commands_enter_every_expected_span(tmp_path, perfbench):
    run, setup_inputs = perfbench
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    out.mkdir()
    assert setup_inputs.main(["setup_inputs.py", str(inputs), "30", "1"]) == 0
    for command in ("fuse", "eval", "sweep"):
        spans = tmp_path / f"spans-{command}.json"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced.py"), str(spans),
             *run.cli_args(command, inputs, out)],
            cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert run.span_problems(spans, command) == [], command
