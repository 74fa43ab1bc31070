"""Gate kernels checked against dense matrix construction."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import dense_circuit_matrix, dense_gate_matrix, random_state
from merminsim import Circuit, Gate, ghz_state, init_zero, probabilities, run
from merminsim.statevector import (
    MAX_QUBITS,
    Statevector,
    apply_gate_inplace,
    qubit_bit,
)


def _apply(state: Statevector, gate: Gate) -> Statevector:
    """A new state with one gate applied; the input is left untouched."""
    amp = state.amplitudes.copy()
    apply_gate_inplace(amp, state.n, gate)
    return Statevector(state.n, amp)


def test_init_zero_is_all_zeros_ket():
    state = init_zero(3)
    assert state.n == 3
    assert state.amplitudes[0] == 1.0
    assert np.all(state.amplitudes[1:] == 0.0)


@pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1])
def test_init_zero_rejects_bad_qubit_count(n):
    with pytest.raises(ValueError):
        init_zero(n)


def test_qubit_bit_is_msb_first():
    # Qubit 0 owns the most significant bit of the basis index.
    assert qubit_bit(3, 0) == 4
    assert qubit_bit(3, 1) == 2
    assert qubit_bit(3, 2) == 1


def test_cnot_truth_table():
    # |10> -> |11> with control on qubit 0.
    state = _apply(Statevector(2, [0, 0, 1, 0]), Gate("CNOT", (0, 1)))
    np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-12)
    # Control clear: |01> stays |01>.
    state = _apply(Statevector(2, [0, 1, 0, 0]), Gate("CNOT", (0, 1)))
    np.testing.assert_allclose(state.amplitudes, [0, 1, 0, 0], atol=1e-12)


def test_hadamard_twice_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        amp = random_state(3, rng)
        state = Statevector(3, amp.copy())
        for q in range(3):
            state = _apply(_apply(state, Gate("H", (q,))), Gate("H", (q,)))
        np.testing.assert_allclose(state.amplitudes, amp, atol=1e-12)


def test_s_and_sdg_are_inverses():
    rng = np.random.default_rng(12)
    amp = random_state(2, rng)
    state = Statevector(2, amp.copy())
    state = _apply(_apply(state, Gate("S", (1,))), Gate("SDG", (1,)))
    np.testing.assert_allclose(state.amplitudes, amp, atol=1e-12)


def test_phase_half_pi_matches_s_gate():
    rng = np.random.default_rng(13)
    for _ in range(100):
        amp = random_state(2, rng)
        via_s = _apply(Statevector(2, amp.copy()), Gate("S", (0,)))
        via_phase = _apply(Statevector(2, amp.copy()), Gate("PHASE", (0,), np.pi / 2))
        np.testing.assert_allclose(via_s.amplitudes, via_phase.amplitudes, atol=1e-12)


def test_sdg_then_h_on_plus_i_eigenstate():
    # (|0> + i|1>)/sqrt(2) is the +1 eigenstate of sigma_y; rotating it
    # into the computational basis must land on |0>.
    amp = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    state = Statevector(1, amp)
    state = _apply(state, Gate("SDG", (0,)))
    state = _apply(state, Gate("H", (0,)))
    np.testing.assert_allclose(state.amplitudes, [1, 0], atol=1e-12)


@pytest.mark.parametrize("kind", ["H", "S", "SDG"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_single_qubit_gates_match_dense_oracle(kind, n):
    rng = np.random.default_rng(100 * n + ord(kind[0]))
    for q in range(n):
        gate = Gate(kind, (q,))
        dense = dense_gate_matrix(gate, n)
        for _ in range(5):
            amp = random_state(n, rng)
            fast = _apply(Statevector(n, amp.copy()), gate).amplitudes
            np.testing.assert_allclose(fast, dense @ amp, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phase_and_cnot_match_dense_oracle(n):
    rng = np.random.default_rng(200 + n)
    gates = [Gate("PHASE", (q,), float(rng.uniform(-np.pi, np.pi))) for q in range(n)]
    gates += [Gate("CNOT", (c, t)) for c in range(n) for t in range(n) if c != t]
    for gate in gates:
        dense = dense_gate_matrix(gate, n)
        amp = random_state(n, rng)
        fast = _apply(Statevector(n, amp.copy()), gate).amplitudes
        np.testing.assert_allclose(fast, dense @ amp, atol=1e-12)


def test_random_circuit_matches_dense_oracle():
    rng = np.random.default_rng(42)
    n = 4
    for _ in range(10):
        gates = []
        for _ in range(12):
            kind = rng.choice(["H", "S", "SDG", "PHASE", "CNOT"])
            if kind == "CNOT":
                c, t = rng.choice(n, size=2, replace=False)
                gates.append(Gate("CNOT", (int(c), int(t))))
            elif kind == "PHASE":
                gates.append(Gate("PHASE", (int(rng.integers(n)),), float(rng.uniform(0, 2 * np.pi))))
            else:
                gates.append(Gate(str(kind), (int(rng.integers(n)),)))
        circuit = Circuit(n, tuple(gates))
        fast = run(circuit).amplitudes
        dense = dense_circuit_matrix(circuit) @ init_zero(n).amplitudes
        np.testing.assert_allclose(fast, dense, atol=1e-11)
        assert abs(np.linalg.norm(fast) - 1.0) < 1e-12


def test_ghz_state_amplitudes():
    for n in (3, 4, 5):
        for phase in (0.0, np.pi / 2, -np.pi / 4, np.pi):
            state = ghz_state(n, phase)
            amp = state.amplitudes
            np.testing.assert_allclose(amp[0], 1 / np.sqrt(2), atol=1e-12)
            np.testing.assert_allclose(amp[-1], np.exp(1j * phase) / np.sqrt(2), atol=1e-12)
            assert np.all(amp[1:-1] == 0.0)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    state = Statevector(3, random_state(3, rng))
    probs = probabilities(state)
    assert probs.shape == (8,)
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
    assert np.all(probs >= 0)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("BOGUS", (0,))
    with pytest.raises(ValueError):
        Gate("X", (0,))


@pytest.mark.parametrize(
    "kind, targets, angle",
    [
        ("H", (0.7,), None),  # int() would truncate it to qubit 0
        ("H", (1.0,), None),
        ("H", ("1",), None),
        ("H", (True,), None),
        ("H", (-1,), None),
        ("CNOT", (0, np.float64(1.0)), None),
        ("PHASE", (0,), float("nan")),
        ("PHASE", (0,), float("inf")),
        ("PHASE", (0,), "0.5"),
        ("PHASE", (0,), True),
        ("PHASE", (0,), 1j),
    ],
    ids=["float", "integral-float", "str", "bool", "negative", "numpy-float", "nan", "inf", "str-angle",
         "bool-angle", "complex-angle"],
)
def test_gate_refuses_non_integer_targets_and_non_finite_angles(kind, targets, angle):
    with pytest.raises(ValueError):
        Gate(kind, targets, angle)


def test_gate_reads_numpy_numbers_as_plain_ones():
    gate = Gate("CNOT", (np.int64(0), np.int32(2)))
    assert gate.targets == (0, 2) and all(type(t) is int for t in gate.targets)
    phase = Gate("PHASE", (np.uint8(1),), np.float64(0.5))
    assert phase == Gate("PHASE", (1,), 0.5) and type(phase.angle) is float
    assert Gate("PHASE", (0,), 1).angle == 1.0


def test_inplace_kernel_handles_batched_amplitudes():
    # The same kernel drives (dim,) states and the rows of (dim, dim) density
    # matrices; applying a gate to a batch must equal row-by-row application.
    rng = np.random.default_rng(77)
    n, batch = 3, 6
    amps = np.stack([random_state(n, rng) for _ in range(batch)])
    for gate in (Gate("H", (1,)), Gate("S", (2,)), Gate("CNOT", (0, 2)), Gate("PHASE", (1,), 1.1)):
        batched = amps.copy()
        apply_gate_inplace(batched, n, gate)
        for row in range(batch):
            single = amps[row].copy()
            apply_gate_inplace(single, n, gate)
            np.testing.assert_allclose(batched[row], single, atol=1e-12)


def test_inplace_kernel_writes_through_non_contiguous_buffers():
    # The noisy path hands the kernel rho.T, whose last axis is strided; the
    # gate must land in rho itself, not in a temporary copy of it.
    rng = np.random.default_rng(78)
    n = 3
    rho = np.outer(random_state(n, rng), random_state(n, rng).conj())
    rows = np.stack([random_state(n, rng) for _ in range(6)])
    gates = [Gate(kind, (q,)) for kind in ("H", "S", "SDG") for q in range(n)]
    gates += [Gate("PHASE", (q,), float(rng.uniform(-np.pi, np.pi))) for q in range(n)]
    gates += [Gate("CNOT", (c, t)) for c in range(n) for t in range(n) if c != t]
    for gate in gates:
        dense = dense_gate_matrix(gate, n)
        work = rho.copy()
        apply_gate_inplace(work.T, n, gate)
        np.testing.assert_allclose(work, dense @ rho, atol=1e-12, err_msg=str(gate))
        work = rows.copy()
        apply_gate_inplace(work[::2], n, gate)
        np.testing.assert_allclose(work[::2], rows[::2] @ dense.T, atol=1e-12, err_msg=str(gate))
        np.testing.assert_array_equal(work[1::2], rows[1::2])
