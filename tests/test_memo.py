"""The per-process memo of checked catalog entries and exact distributions:
a warm memo changes no report byte, shares only read-only arrays and stays
within its bound."""

from __future__ import annotations

import numpy as np
import pytest

from merminsim import ExperimentConfig, NoiseModel, Setup, render_report, run_experiment
from merminsim.harness import _checked_setup, _exact_distribution

CELLS = [
    pytest.param(n, setup, expand, noise, id=f"{n}q-{setup.value}-{mode}-p{noise.p1}")
    for n in (3, 4, 5)
    for setup in Setup
    for expand, mode in ((False, "class"), (True, "expanded"))
    for noise in (NoiseModel(), NoiseModel(0.02, 0.02, 0.02))
    if noise.is_zero or setup is Setup.AL_MODIFIED
]


def _json(n: int, setup: Setup, expand: bool, noise: NoiseModel) -> str:
    cfg = ExperimentConfig(qubits=n, setup=setup, seed=9, noise=noise, expand_permutations=expand)
    return render_report(run_experiment(cfg), "json")


@pytest.mark.parametrize("n, setup, expand, noise", CELLS)
def test_warm_memo_report_is_byte_identical_to_cold(n, setup, expand, noise):
    cold = _json(n, setup, expand, noise)
    assert _exact_distribution.cache_info().currsize > 0
    warm = _json(n, setup, expand, noise)
    assert _exact_distribution.cache_info().hits > 0
    assert warm == cold


def test_memoised_distribution_is_read_only():
    probs = _exact_distribution(3, np.pi / 2, "XXY", NoiseModel(0.01, 0.01, 0.01))
    with pytest.raises(ValueError):
        probs[0] = 1.0
    assert _exact_distribution(3, np.pi / 2, "XXY", NoiseModel(0.01, 0.01, 0.01)) is probs


def test_checked_setup_entry_is_immutable_and_shared():
    sc, classes = _checked_setup(4, Setup.AL)
    assert isinstance(classes, tuple)
    assert _checked_setup(4, "al") == (sc, classes)
    assert _checked_setup.cache_info().hits == 1


def test_distribution_memo_stays_within_its_bound():
    maxsize = _exact_distribution.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize + 8):
        _exact_distribution(3, np.pi / 2, "XXY", NoiseModel(k / (4 * maxsize)))
        assert _exact_distribution.cache_info().currsize <= maxsize
    assert _exact_distribution.cache_info().currsize == maxsize
    assert _checked_setup.cache_info().maxsize is not None
