"""Noise channel: exact noisy distributions, statistical agreement with the
trajectory oracle, and determinism."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy import stats

from conftest import dense_noisy_probabilities, trajectory_counts
from merminsim import (
    Circuit,
    ExperimentConfig,
    ExperimentReport,
    NoiseModel,
    all_setup_configs,
    collapse,
    ghz_circuit,
    measurement_transform,
    outcome_probabilities,
    probabilities,
    run,
    run_exchange_test,
    run_experiment,
    setup_config,
)
from merminsim.harness import _plan_weights
from merminsim.pauli import PARITY_SIGNS
from merminsim.sampling import checked_weights, draw_counts


def _measured_circuit(n: int, phase: float, axes: str) -> Circuit:
    return ghz_circuit(n, phase).then(measurement_transform(axes))


def _measured_terms(config, expanded: bool) -> list[tuple[float, str]]:
    """(weight, axes) of every circuit one run measures, as in run_experiment."""
    if expanded:
        return [(float(c), s) for c, s in config.polynomial.terms]
    return [(float(c) * m, s) for c, s, m in collapse(config.polynomial)]


def _parity_mean(probs: np.ndarray) -> float:
    return float(probs @ PARITY_SIGNS[: probs.size])


def _exact_value(config, model: NoiseModel, expanded: bool = False) -> float:
    """Exact mean of the reported polynomial value under ``model``."""
    total = 0.0
    for w, a in _measured_terms(config, expanded):
        circuit = _measured_circuit(config.n, config.ghz_phase, a)
        total += w * _parity_mean(outcome_probabilities(circuit, model))
    return total


def _noisy_shots(circuit: Circuit, model: NoiseModel, shots: int, seed: int) -> np.ndarray:
    """The harness's measurement: one multinomial draw from the exact distribution."""
    return draw_counts([(checked_weights(outcome_probabilities(circuit, model)), seed)], shots)[0]


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


def _report_with_noise(model: NoiseModel) -> ExperimentReport:
    """A clean 3-qubit report whose config carries ``model``: the stored
    noise fields are written and read only as part of a report."""
    report = run_experiment(ExperimentConfig(qubits=3, setup="mermin"))
    return report._replace(config=report.config._replace(noise=model))


def test_noise_model_dict_round_trip():
    report = _report_with_noise(NoiseModel(0.01, 0.02, 0.03))
    payload = report.to_dict()
    assert payload["config"]["noise"] == {"p1": 0.01, "p2": 0.02, "readout_flip": 0.03}
    assert ExperimentReport.from_dict(payload) == report
    for field in ("p1", "p2", "readout_flip"):
        trimmed = report.to_dict()
        del trimmed["config"]["noise"][field]
        with pytest.raises(ValueError, match=f"lacks field '{field}'"):
            ExperimentReport.from_dict(trimmed)


@pytest.mark.parametrize("bad", [True, "0.1", float("nan"), 10**400], ids=["bool", "str", "nan", "1e400"])
@pytest.mark.parametrize("field", ["p1", "p2", "readout_flip"])
def test_noise_model_rejects_non_real_fields(field, bad):
    # A bool would be reported as true and a string would fail with TypeError.
    with pytest.raises(ValueError, match=field):
        NoiseModel(**{field: bad})
    payload = run_experiment(ExperimentConfig(qubits=3, setup="mermin")).to_dict()
    payload["config"]["noise"][field] = bad
    with pytest.raises(ValueError, match=field):
        ExperimentReport.from_dict(payload)
    # Integral probabilities are stored, and reported, as floats.
    assert type(_report_with_noise(NoiseModel(**{field: 1})).to_dict()["config"]["noise"][field]) is float


@pytest.mark.parametrize("bad", [None, (0.1, 0.0, 0.0), "0,0,0"], ids=["none", "tuple", "str"])
def test_noise_that_is_not_a_noise_model_is_rejected(bad):
    # A wrong type must fail where it enters, with ValueError, not deep inside the noise path.
    with pytest.raises(ValueError, match="noise"):
        ExperimentConfig(qubits=3, setup="mermin", noise=bad)
    with pytest.raises(ValueError, match="noise"):
        run_exchange_test(noise=bad)
    # A stored noise that is not a mapping of the three fields is named as such.
    payload = run_experiment(ExperimentConfig(qubits=3, setup="mermin")).to_dict()
    payload["config"]["noise"] = json.loads(json.dumps(bad))
    with pytest.raises(ValueError, match="'noise' must be a mapping"):
        ExperimentReport.from_dict(payload)


def test_zero_noise_sampler_matches_exact_distribution():
    # Goodness of fit of the noisy sampler at zero noise against the exact
    # four-outcome distribution of a rotated GHZ circuit.
    circuit = _measured_circuit(3, np.pi / 2, "YXX")
    exact = probabilities(run(circuit))
    support = np.flatnonzero(exact > 1e-12)
    assert support.size == 4

    vec = _noisy_shots(circuit, NoiseModel(), 16384, seed=21)
    assert vec.sum() == 16384
    # No leakage outside the exact support in the absence of noise.
    off_support = np.delete(vec, support)
    assert off_support.sum() == 0
    result = stats.chisquare(vec[support], f_exp=16384 * exact[support])
    assert result.pvalue > 0.001


def test_noisy_sampler_is_deterministic_per_seed():
    circuit = ghz_circuit(3, np.pi / 2)
    model = NoiseModel(0.02, 0.04, 0.01)
    a = _noisy_shots(circuit, model, 4096, seed=5)
    b = _noisy_shots(circuit, model, 4096, seed=5)
    c = _noisy_shots(circuit, model, 4096, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


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
    result = stats.chisquare(_noisy_shots(circuit, NoiseModel(readout_flip=0.5), 16384, seed=11))
    assert result.pvalue > 0.001
    for n, phase, axes in ((3, np.pi / 2, "XYY"), (5, np.pi, "XXYYY")):
        circuit = _measured_circuit(n, phase, axes)
        for model in (NoiseModel(readout_flip=0.5), NoiseModel(0.02, 0.04, 0.5)):
            probs = outcome_probabilities(circuit, model)
            assert np.all(probs == probs[0])
            assert probs[0] == pytest.approx(2.0**-n, rel=1e-12)


def test_single_trajectory_zero_noise_support():
    counts = trajectory_counts(ghz_circuit(3, 0.0), NoiseModel(), 50, seed=7)
    assert set(np.flatnonzero(counts).tolist()) == {0b000, 0b111}


def test_certain_readout_flip_inverts_bits():
    # Empty circuit leaves |00>; a certain readout flip reports "11".
    circuit = Circuit(2, ())
    model = NoiseModel(readout_flip=1.0)
    assert trajectory_counts(circuit, model, 16, seed=0).tolist() == [0, 0, 0, 16]
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
    "model",
    [
        NoiseModel(),
        _symmetric(0.01),
        _symmetric(0.03),
        NoiseModel(0.02, 0.05, 0.01),
        NoiseModel(0.1, 0.0, 0.04),
        NoiseModel(0.0, 0.07, 0.0),
    ],
    ids=["clean", "p=0.01", "p=0.03", "asymmetric", "no-p2", "p2-only"],
)
def test_outcome_probabilities_match_the_closed_form(model):
    # Pauli channels pass through the Clifford frame as scalars, so every
    # planned circuit's distribution is (1 + (-1)^|o| E) / 2^n, with
    # E = cos(phase - Y pi/2) l1^g1 l2^(2(n-1)) (1 - 2f)^n, l = 1 - 4p/3 and
    # g1 = 1 + [phase != 0] + n + Y the circuit's one-qubit gate count.
    circuits = {
        (config.n, config.ghz_phase, a)
        for config in all_setup_configs()
        for expanded in (False, True)
        for _, a in _measured_terms(config, expanded)
    }
    assert len(circuits) == 92  # the three 3-qubit setups share theirs
    l1, l2, flip = 1 - 4 * model.p1 / 3, 1 - 4 * model.p2 / 3, 1 - 2 * model.readout_flip
    for n, phase, axes in sorted(circuits):
        y = axes.count("Y")
        g1 = 1 + (phase != 0) + n + y
        exact = math.cos(phase - y * math.pi / 2) * l1**g1 * l2 ** (2 * (n - 1)) * flip**n
        np.testing.assert_allclose(
            outcome_probabilities(_measured_circuit(n, phase, axes), model),
            (1 + PARITY_SIGNS[: 2**n] * exact) / 2**n,
            rtol=0,
            atol=1e-12,
            err_msg=f"{n}q phase {phase} {axes}",
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
            _noisy_shots(circuit, model, 16384, seed=1),
            trajectory_counts(circuit, model, 16384, seed=2),
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


@pytest.mark.parametrize(
    "n, setup, p",
    [(n, s, 0.02) for n in (3, 4, 5) for s in ("mermin", "al")] + [(4, "al", 0.0)],
    ids=lambda v: str(v),
)
def test_class_spread_is_chi2_with_the_true_variance_and_the_reported_bars_are_conservative(n, setup, p):
    # Under a depolarizing model the m terms of a symmetry class share one
    # exact value E, so over seeds sum_i (v_i - mean)^2 / sigma^2 follows
    # chi2(m - 1) with the true variance sigma^2 = (1 - E^2)/N.  With each
    # term's reported (plug-in) error in place of sigma its mean is
    # (m - 1)(1 - E^2)/(1 - sum w^2), below m - 1 for these |E|.
    noise = _symmetric(p)
    runs = [
        run_experiment(ExperimentConfig(qubits=n, setup=setup, seed=s, noise=noise, expand_permutations=True))
        for s in range(1000)
    ]
    cfg = runs[0].config
    phase = setup_config(n, cfg.setup).ghz_phase
    values = np.array([[t.value for t in r.terms] for r in runs])
    errors = np.array([[t.error for t in r.terms] for r in runs])
    classes: dict[int, list[int]] = {}
    for i, t in enumerate(runs[0].terms):
        classes.setdefault(t.y_count, []).append(i)
    classes = {y: members for y, members in classes.items() if len(members) >= 2}
    assert classes
    for y, members in classes.items():
        m = len(members)
        weights = _plan_weights(n, phase, tuple(runs[0].terms[i].axes for i in members), noise)
        exact = [_parity_mean(w) for w in weights]
        assert max(exact) - min(exact) <= 1e-12, (y, exact)
        e, sum_w2 = exact[0], float(weights[0] @ weights[0])
        squares = (values[:, members] - values[:, members].mean(axis=1, keepdims=True)) ** 2
        true_stat = squares.sum(axis=1) / ((1 - e * e) / cfg.shots)
        assert stats.kstest(true_stat, stats.chi2(m - 1).cdf).pvalue > 1e-3, y
        predicted = (m - 1) * (1 - e * e) / (1 - sum_w2)
        assert predicted < m - 1, y
        reported_stat = (squares / errors[:, members] ** 2).sum(axis=1)
        assert reported_stat.mean() == pytest.approx(predicted, rel=0.1), y
