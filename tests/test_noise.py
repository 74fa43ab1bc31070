"""Noise channel: exact noisy distributions, statistical agreement with the
trajectory oracle, and determinism."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from conftest import dense_noisy_probabilities, trajectory_counts
from merminsim import (
    Circuit,
    ExperimentConfig,
    NoiseModel,
    PauliString,
    all_setup_configs,
    collapse,
    ghz_circuit,
    measurement_transform,
    outcome_probabilities,
    probabilities,
    run,
    run_experiment,
    sample_noisy_shots,
)
from merminsim.pauli import mask_parity


def _measured_circuit(n: int, phase: float, axes: str) -> Circuit:
    return ghz_circuit(n, phase).then(measurement_transform(PauliString.from_str(axes)))


def _measured_terms(config, expanded: bool) -> list[tuple[float, str]]:
    """(weight, axes) of every circuit one run measures, as in run_experiment."""
    if expanded:
        return [(float(c), str(s)) for c, s in config.polynomial.terms]
    n = config.n
    return [
        (float(cl.coefficient) * cl.multiplicity, "X" * (n - cl.y_count) + "Y" * cl.y_count)
        for cl in collapse(config.polynomial)
    ]


def _parity_mean(probs: np.ndarray) -> float:
    signs = 1 - 2 * mask_parity(np.arange(probs.size), probs.size - 1)
    return float(probs @ signs)


def _exact_value(config, model: NoiseModel, expanded: bool = False) -> float:
    """Exact mean of the reported polynomial value under ``model``."""
    total = 0.0
    for w, a in _measured_terms(config, expanded):
        circuit = _measured_circuit(config.n, config.ghz_phase, a)
        total += w * _parity_mean(outcome_probabilities(circuit, model))
    return total


def _symmetric(p: float) -> NoiseModel:
    return NoiseModel(p1=p, p2=p, readout_flip=p)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(p2=1.5)
    with pytest.raises(ValueError):
        NoiseModel(readout_flip=2.0)
    assert NoiseModel().is_zero
    assert not NoiseModel(p1=0.01).is_zero


def test_noise_model_dict_round_trip():
    model = NoiseModel(0.01, 0.02, 0.03)
    assert NoiseModel.from_dict(model.to_dict()) == model


def test_zero_noise_sampler_matches_exact_distribution():
    # Goodness of fit of the noisy sampler at zero noise against the exact
    # four-outcome distribution of a rotated GHZ circuit.
    circuit = _measured_circuit(3, np.pi / 2, "YXX")
    exact = probabilities(run(circuit))
    support = np.flatnonzero(exact > 1e-12)
    assert support.size == 4

    counts = sample_noisy_shots(circuit, NoiseModel(), 16384, seed=21)
    vec = counts.as_vector()
    assert vec.sum() == 16384
    # No leakage outside the exact support in the absence of noise.
    off_support = np.delete(vec, support)
    assert off_support.sum() == 0
    result = stats.chisquare(vec[support], f_exp=16384 * exact[support])
    assert result.pvalue > 0.001


def test_noisy_sampler_is_deterministic_per_seed():
    circuit = ghz_circuit(3, np.pi / 2)
    model = NoiseModel(0.02, 0.04, 0.01)
    a = sample_noisy_shots(circuit, model, 4096, seed=5)
    b = sample_noisy_shots(circuit, model, 4096, seed=5)
    c = sample_noisy_shots(circuit, model, 4096, seed=6)
    assert a == b
    assert a.counts != c.counts


def test_two_qubit_noise_ignored_without_cnot_gates():
    # A model with only p2 set leaves a CNOT-free circuit noiseless, so it
    # yields the zero model's probability vector.
    circuit = Circuit(2, (ghz_circuit(2, 0.0).gates[0],))  # just the Hadamard
    np.testing.assert_array_equal(
        outcome_probabilities(circuit, NoiseModel(p2=0.5)),
        outcome_probabilities(circuit, NoiseModel()),
    )


def test_full_readout_scrambling_is_uniform():
    # readout_flip = 0.5 makes every output bit a fair coin regardless of
    # the underlying state: the exact distribution is uniform to the last bit.
    circuit = ghz_circuit(3, 0.0)
    counts = sample_noisy_shots(circuit, NoiseModel(readout_flip=0.5), 16384, seed=11)
    result = stats.chisquare(counts.as_vector())
    assert result.pvalue > 0.001
    for n, phase, axes in ((3, np.pi / 2, "XYY"), (5, np.pi, "XXYYY")):
        circuit = _measured_circuit(n, phase, axes)
        for model in (NoiseModel(readout_flip=0.5), NoiseModel(0.02, 0.04, 0.5)):
            probs = outcome_probabilities(circuit, model)
            assert np.all(probs == probs[0])
            assert probs[0] == pytest.approx(2.0**-n, rel=1e-12)


def test_single_trajectory_zero_noise_support():
    counts = trajectory_counts(ghz_circuit(3, 0.0), NoiseModel(), 50, seed=7)
    assert set(counts.counts) == {"000", "111"}


def test_certain_readout_flip_inverts_bits():
    # Empty circuit leaves |00>; a certain readout flip reports "11".
    circuit = Circuit(2, ())
    model = NoiseModel(readout_flip=1.0)
    assert trajectory_counts(circuit, model, 16, seed=0).counts == {"11": 16}
    np.testing.assert_array_equal(outcome_probabilities(circuit, model), [0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "model",
    [_symmetric(0.01), _symmetric(0.02), _symmetric(0.03), NoiseModel(0.005, 0.03, 0.015)],
    ids=["p=0.01", "p=0.02", "p=0.03", "asymmetric"],
)
def test_outcome_probabilities_match_dense_kraus_oracle(model):
    # Every circuit any run measures, class and expanded, on all nine setups.
    for config in all_setup_configs():
        axes = {a for expanded in (False, True) for _, a in _measured_terms(config, expanded)}
        for a in sorted(axes):
            circuit = _measured_circuit(config.n, config.ghz_phase, a)
            np.testing.assert_allclose(
                outcome_probabilities(circuit, model),
                dense_noisy_probabilities(circuit, model),
                rtol=0,
                atol=1e-12,
                err_msg=f"{config.n}q/{config.setup.value} {a}",
            )


@pytest.mark.parametrize(
    "n, phase, axes", [(3, np.pi / 2, "XYY"), (4, -np.pi / 4, "XXYY")], ids=["3q", "4q"]
)
def test_noisy_sampler_agrees_with_trajectory_oracle(n, phase, axes):
    # Two-sample chi-square over the outcome bins both histograms populate.
    circuit = _measured_circuit(n, phase, axes)
    model = _symmetric(0.03)
    table = np.stack(
        [
            sample_noisy_shots(circuit, model, 16384, seed=1).as_vector(),
            trajectory_counts(circuit, model, 16384, seed=2).as_vector(),
        ]
    )
    table = table[:, table.sum(axis=0) > 0]
    assert table.shape[1] > 2 ** (n - 1)  # noise populates more than the GHZ support
    assert stats.chi2_contingency(table).pvalue > 0.001


def test_noisy_probabilities_are_a_distribution():
    models = [
        _symmetric(0.03),
        NoiseModel(0.2, 0.5, 0.1),
        NoiseModel(0.75, 0.75, 0.0),  # fully depolarizing: off-diagonal blocks vanish
        _symmetric(1.0),
    ]
    for config in all_setup_configs():
        for _, a in _measured_terms(config, expanded=False):
            circuit = _measured_circuit(config.n, config.ghz_phase, a)
            for model in models:
                probs = outcome_probabilities(circuit, model)
                assert probs.shape == (2**config.n,)
                assert np.all(probs >= 0.0)
                assert abs(probs.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("p, want", [(0.01, 3.2701), (0.02, 2.6653), (0.03, 2.1655)])
def test_exact_noisy_three_qubit_mermin_value(p, want):
    config = all_setup_configs()[0]
    assert (config.n, config.setup.value) == (3, "mermin")
    for expanded in (False, True):
        assert _exact_value(config, _symmetric(p), expanded) == pytest.approx(want, abs=5e-5)


@pytest.mark.parametrize("config", all_setup_configs(), ids=lambda c: f"{c.n}q-{c.setup.value}")
def test_exact_noisy_value_decreases_strictly_with_noise(config):
    levels = [0.005 * k for k in range(11)]
    for expanded in (False, True):
        values = [_exact_value(config, _symmetric(p), expanded) for p in levels]
        assert values[0] == pytest.approx(config.qm_value, abs=1e-9)
        assert all(a > b for a, b in zip(values, values[1:])), values


def test_depolarizing_strength_degrades_violation_monotonically():
    # Ten-seed mean of the three-qubit polynomial value at increasing
    # symmetric gate noise; each step must drop by far more than the
    # scatter of the means.
    seeds = range(10)
    means = []
    sems = []
    for p in (0.0, 0.01, 0.03, 0.05):
        values = [
            run_experiment(
                ExperimentConfig(qubits=3, setup="mermin", seed=s, noise=NoiseModel(p1=p, p2=p))
            ).value
            for s in seeds
        ]
        means.append(np.mean(values))
        sems.append(np.std(values, ddof=1) / np.sqrt(len(values)))
    for i in range(3):
        pooled = np.hypot(sems[i], sems[i + 1])
        assert means[i] - means[i + 1] > 5 * pooled
    assert means[0] == pytest.approx(4.0, abs=1e-9)
