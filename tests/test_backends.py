"""Parity between the compiled kernels and the pure-Python reference."""

import numpy as np
import pytest

from conftest import random_ensemble
from platefuse import _kernels_py, backend_name, core


@pytest.fixture
def compiled():
    return pytest.importorskip("platefuse._kernels", reason="compiled kernels not built")


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
