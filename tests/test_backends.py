"""Parity between the compiled kernels and the pure-Python reference."""

import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from conftest import random_ensemble
from platefuse import _kernels_py, backend_name, core

KERNELS_C = Path(core.__file__).with_name("_kernels.c")


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The kernels compiled from the committed ``_kernels.c``.

    The module is loaded from a temporary directory and never registered as
    ``platefuse._kernels``, so ``core`` keeps the backend it chose at import.
    """
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not shutil.which(cc[0]):
        pytest.skip(f"no C compiler ({cc[0]!r}) to build the compiled kernels")
    include = Path(sysconfig.get_paths()["include"])
    if not (include / "Python.h").exists():
        pytest.skip(f"no Python headers in {include}")
    target = (tmp_path_factory.mktemp("kernels")
              / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX")))
    build = subprocess.run([*cc, "-O1", "-shared", "-fPIC", f"-I{include}",
                            str(KERNELS_C), "-o", str(target)],
                           capture_output=True, text=True)
    if build.returncode != 0:
        pytest.fail(f"compiling {KERNELS_C.name} failed:\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("_kernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _kernel_inputs(rng):
    predictions, ranking = random_ensemble(rng)
    items = sorted(predictions.items())
    texts = [p.text for _, p in items]
    confs = [p.confidence for _, p in items]
    position = {m: i for i, m in enumerate(ranking)}
    prio_rank = [position[m] for m, _ in items]
    prio_id = list(range(len(items)))
    return texts, confs, prio_rank, prio_id


def test_backend_reports_a_name():
    try:
        from platefuse import _kernels as built
    except ImportError:
        built = _kernels_py
    assert core.kernels is built
    assert backend_name() == ("python" if built is _kernels_py else "compiled")


@pytest.mark.parametrize("seed", range(5))
def test_kernels_agree_on_random_inputs(compiled, seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(400):
        texts, confs, prio_rank, prio_id = _kernel_inputs(rng)
        for prio in (prio_rank, prio_id):
            assert compiled.hc_select(confs, prio) == \
                _kernels_py.hc_select(confs, prio)
            for use_conf in (True, False):
                assert compiled.mv_select(texts, confs, prio, use_conf) == \
                    _kernels_py.mv_select(texts, confs, prio, use_conf)
                assert compiled.mvcp_select(texts, confs, prio, use_conf) == \
                    _kernels_py.mvcp_select(texts, confs, prio, use_conf)


def test_kernels_agree_on_curated_edge_cases(compiled):
    cases = [
        # singleton
        (["ABCD"], [0.5], [0]),
        # full exact-confidence ties
        (["AAAA", "BBBB", "CCCC"], [0.5, 0.5, 0.5], [2, 0, 1]),
        # mixed lengths with a length tie
        (["AB", "ABCD"], [0.9, 0.9], [1, 0]),
        # duplicate texts, distinct confidences
        (["XY", "XY", "ZW", "ZW"], [0.1, 0.9, 0.5, 0.5], [0, 1, 2, 3]),
    ]
    for texts, confs, prio in cases:
        for use_conf in (True, False):
            assert compiled.mv_select(texts, confs, prio, use_conf) == \
                _kernels_py.mv_select(texts, confs, prio, use_conf)
            assert compiled.mvcp_select(texts, confs, prio, use_conf) == \
                _kernels_py.mvcp_select(texts, confs, prio, use_conf)
        assert compiled.hc_select(confs, prio) == _kernels_py.hc_select(confs, prio)
