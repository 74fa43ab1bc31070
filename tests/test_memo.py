"""The per-process memo of checked catalog entries and of each run plan's
checked multinomial weights: a warm memo changes no report byte, holds
exactly the checked exact distribution of each circuit, shares only
read-only arrays, memoises nothing that fails its checks and stays within
its bound."""

from __future__ import annotations

import numpy as np
import pytest

from merminsim import (
    ExperimentConfig,
    NoiseModel,
    Setup,
    all_setup_configs,
    ghz_circuit,
    measurement_transform,
    outcome_probabilities,
    render_report,
    run_experiment,
)
from merminsim import harness
from merminsim.harness import _checked_setup, _plan_weights
from merminsim.reference import device_results
from merminsim.sampling import checked_weights

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
    assert _plan_weights.cache_info().currsize > 0
    warm = _json(n, setup, expand, noise)
    assert _plan_weights.cache_info().hits > 0
    assert warm == cold


def test_memoised_distribution_is_read_only():
    weights = _plan_weights(3, np.pi / 2, ("XXX", "XXY"), NoiseModel(0.01, 0.01, 0.01))
    assert isinstance(weights, tuple) and len(weights) == 2
    for probs in weights:
        with pytest.raises(ValueError):
            probs[0] = 1.0
    assert _plan_weights(3, np.pi / 2, ("XXX", "XXY"), NoiseModel(0.01, 0.01, 0.01)) is weights


def test_checked_setup_entry_is_immutable_and_shared():
    entry = _checked_setup(4, Setup.AL)
    assert isinstance(entry, tuple) and entry.config.setup is Setup.AL
    assert all(isinstance(field, tuple) for field in (entry.modes, entry.md_published))
    # Each mode holds its plan and, in plan order, its seed labels, axes,
    # weights and what each report term states.
    for mode in entry.modes:
        assert all(isinstance(field, tuple) for field in mode)
        assert mode.labels == tuple(p.label for p in mode.plan)
        assert mode.axes == tuple(p.axes for p in mode.plan)
        assert mode.weights == tuple(float(p.coefficient) * p.multiplicity for p in mode.plan)
        assert mode.stated == tuple((p.y_count, p.axes, p.coefficient, p.multiplicity) for p in mode.plan)
    assert entry.text.startswith('  "ghz_phase": ')
    # Published rows are the class-mode table's, one per device.
    assert len(entry.md_published) == len(device_results(4, "al")["rows"])
    assert _checked_setup(4, "al") is entry
    assert _checked_setup.cache_info().hits == 1


def test_distribution_memo_stays_within_its_bound():
    maxsize = _plan_weights.cache_info().maxsize
    assert maxsize == 1024
    for k in range(maxsize + 8):
        _plan_weights(3, np.pi / 2, ("XXY",), NoiseModel(k / (4 * maxsize)))
        assert _plan_weights.cache_info().currsize <= maxsize
    assert _plan_weights.cache_info().currsize == maxsize
    assert _checked_setup.cache_info().maxsize is not None


def _measured_circuits(noise: NoiseModel) -> set[tuple[int, float, str]]:
    """(qubits, GHZ phase, axes) of every circuit the reports measure: all nine
    setups in class and expanded mode.  An exchange test is the expanded
    mermin run, so it measures no circuit of its own."""
    circuits = set()
    for sc in all_setup_configs():
        for expand in (False, True):
            cfg = ExperimentConfig(qubits=sc.n, setup=sc.setup, noise=noise, expand_permutations=expand)
            circuits |= {(sc.n, sc.ghz_phase, t.axes) for t in run_experiment(cfg).terms}
    return circuits


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(0.02, 0.02, 0.02)], ids=["clean", "p0.02"])
def test_memoised_weights_draw_what_sample_shots_draws(noise):
    # Pins report bytes to the documented composition without fixing numpy's
    # draws: a row depends only on its weights and seed, and the memoised
    # weights are checked_weights(outcome_probabilities(circuit, model)).
    circuits = _measured_circuits(noise)
    assert len(circuits) == 92  # distinct circuits; the three 3-qubit setups share theirs
    for n, phase, axes in sorted(circuits):
        circuit = ghz_circuit(n, phase).then(measurement_transform(axes))
        want = checked_weights(outcome_probabilities(circuit, noise))
        assert np.array_equal(_plan_weights(n, phase, (axes,), noise)[0], want)


@pytest.mark.parametrize(
    "bad", [np.full(8, np.nan), np.array([1.5, -0.5, 0, 0, 0, 0, 0, 0])], ids=["nan", "negative"]
)
def test_distribution_failing_its_checks_is_not_memoised(monkeypatch, bad):
    run_experiment(ExperimentConfig(qubits=3, setup="mermin"))
    size = _plan_weights.cache_info().currsize
    monkeypatch.setattr(harness, "outcome_probabilities", lambda circuit, noise: bad.copy())
    cfg = ExperimentConfig(qubits=3, setup="mermin", noise=NoiseModel(0.01))
    with pytest.raises(ValueError, match="probability"):
        run_experiment(cfg)
    assert _plan_weights.cache_info().currsize == size
    monkeypatch.undo()
    assert run_experiment(cfg).config == cfg
