"""GHZ preparation circuits, basis rotations, and setup configuration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from merminsim import (
    Circuit,
    Gate,
    PauliString,
    Setup,
    all_setup_configs,
    exact_expectation,
    ghz_circuit,
    ghz_state,
    measurement_transform,
    probabilities,
    run,
    setup_config,
)

SQRT2 = float(np.sqrt(2.0))


def _fidelity(a, b) -> float:
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


def test_ghz_circuit_structure():
    circ = ghz_circuit(3, np.pi / 2)
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["H", "PHASE", "CNOT", "CNOT"]
    assert circ.gates[1].angle == np.pi / 2
    # Zero phase drops the phase gate entirely.
    assert [g.kind for g in ghz_circuit(4, 0.0).gates] == ["H", "CNOT", "CNOT", "CNOT"]


@pytest.mark.parametrize("config", all_setup_configs(), ids=lambda c: f"{c.n}q-{c.setup.value}")
def test_ghz_circuit_prepares_exact_state(config):
    prepared = run(ghz_circuit(config.n, config.ghz_phase))
    target = ghz_state(config.n, config.ghz_phase)
    assert _fidelity(prepared, target) >= 1.0 - 1e-10
    # Exactly the all-zeros and all-ones amplitudes are populated.
    nonzero = np.flatnonzero(np.abs(prepared.amplitudes) > 1e-12)
    assert list(nonzero) == [0, prepared.dim - 1]


def test_measurement_transform_gate_sequence():
    circ = measurement_transform(PauliString.from_str("YYXX"))
    assert [(g.kind, g.targets[0]) for g in circ.gates] == [
        ("SDG", 0),
        ("H", 0),
        ("SDG", 1),
        ("H", 1),
        ("H", 2),
        ("H", 3),
    ]


def test_rotated_parity_reproduces_exact_expectation():
    # Measuring P on a state is the same as rotating into the
    # computational basis and reading the parity of the outcome bits.
    rng = np.random.default_rng(500)
    for config in all_setup_configs():
        n = config.n
        for _ in range(4):
            axes = "".join(rng.choice(["X", "Y"], size=n))
            p = PauliString.from_str(axes)
            circ = ghz_circuit(n, config.ghz_phase).then(measurement_transform(p))
            probs = probabilities(run(circ))
            parities = np.array([(-1) ** bin(i).count("1") for i in range(2**n)])
            sampled_free = float(np.dot(probs, parities))
            exact = exact_expectation(ghz_state(n, config.ghz_phase), p)
            np.testing.assert_allclose(sampled_free, exact, atol=1e-10)


def test_then_concatenates_circuits():
    a = ghz_circuit(3, 0.0)
    b = measurement_transform(PauliString.from_str("XXY"))
    combined = a.then(b)
    assert combined.gates == a.gates + b.gates
    with pytest.raises(ValueError):
        a.then(Circuit(2, (Gate("H", (0,)),)))


def test_relabelling_qubits_preserves_symmetric_ghz():
    # Relabelling qubits transposes the (2,)*n amplitude tensor (qubit q is
    # axis q); the GHZ state is symmetric under every such relabelling.
    amp = run(ghz_circuit(4, np.pi / 2)).amplitudes
    shuffled = amp.reshape((2,) * 4).transpose((3, 1, 0, 2)).reshape(-1)
    assert abs(np.vdot(shuffled, amp)) ** 2 >= 1.0 - 1e-12


def test_circuit_rejects_out_of_range_targets():
    with pytest.raises(ValueError):
        Circuit(2, (Gate("H", (2,)),))


@pytest.mark.parametrize(
    "n,setup,phase,lr,qm",
    [
        (3, Setup.AL, np.pi / 2, 2.0, 4.0),
        (3, Setup.AL_MODIFIED, np.pi / 2, 2.0, 4.0),
        (3, Setup.MERMIN, np.pi / 2, 2.0, 4.0),
        (4, Setup.AL, -np.pi / 4, 4.0, 8 * SQRT2),
        (4, Setup.AL_MODIFIED, 3 * np.pi / 4, 4.0, 8 * SQRT2),
        (4, Setup.MERMIN, np.pi / 2, 4.0, 8.0),
        (5, Setup.AL, 0.0, 4.0, 16.0),
        (5, Setup.AL_MODIFIED, np.pi, 4.0, 16.0),
        (5, Setup.MERMIN, np.pi / 2, 4.0, 16.0),
    ],
    ids=lambda v: v.value if isinstance(v, Setup) else None,
)
def test_setup_table(n, setup, phase, lr, qm):
    # Exact: report bytes depend on these floats, and on the sign of a zero phase.
    config = setup_config(n, setup)
    assert config.n == n
    assert config.setup is setup
    assert config.ghz_phase == phase
    assert math.copysign(1.0, config.ghz_phase) == math.copysign(1.0, phase)
    assert config.lr_bound == lr
    assert config.qm_value == qm


def test_setup_config_accepts_strings_and_rejects_unknown():
    assert setup_config(4, "al").setup is Setup.AL
    with pytest.raises(ValueError):
        setup_config(6, Setup.MERMIN)
    with pytest.raises(ValueError):
        setup_config(3, "bogus")


def test_all_setup_configs_is_the_nine_pairings():
    configs = all_setup_configs()
    assert len(configs) == 9
    assert [(c.n, c.setup.value) for c in configs] == [
        (3, "mermin"),
        (3, "al"),
        (3, "al-mod"),
        (4, "mermin"),
        (4, "al"),
        (4, "al-mod"),
        (5, "mermin"),
        (5, "al"),
        (5, "al-mod"),
    ]
