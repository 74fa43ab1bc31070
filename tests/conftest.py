"""Shared test helpers: dense-matrix oracles and random state factories.

The production code applies gates and Pauli strings with bitwise index
arithmetic and never materializes an operator matrix.  The helpers here
build the full 2^n x 2^n matrices the slow, obvious way (Kronecker
products, qubit 0 as the leftmost factor) so tests can check the fast
kernels against an independent construction.  The noisy oracles apply the
same matrices either in operator-sum (Kraus) form or one sampled
trajectory per shot.
"""

from __future__ import annotations

import numpy as np
import pytest

from merminsim import Circuit, Gate, NoiseModel, ShotCounts
from merminsim.harness import _checked_setup, _exact_distribution


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts from an empty per-process memo, so no test is served
    a catalog entry or distribution built by another (or before a patch)."""
    _checked_setup.cache_clear()
    _exact_distribution.cache_clear()

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_P0 = np.diag([1, 0]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)

AXIS_MATRICES = {"X": _X, "Y": _Y}


def embed(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Lift a single-qubit operator to n qubits (qubit 0 = leftmost factor)."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, op if q == qubit else _I2)
    return out


def dense_gate_matrix(gate: Gate, n: int) -> np.ndarray:
    if gate.kind == "H":
        return embed(_H, gate.targets[0], n)
    if gate.kind == "S":
        return embed(_S, gate.targets[0], n)
    if gate.kind == "SDG":
        return embed(_S.conj().T, gate.targets[0], n)
    if gate.kind == "X":
        return embed(_X, gate.targets[0], n)
    if gate.kind == "PHASE":
        return embed(np.diag([1, np.exp(1j * gate.angle)]), gate.targets[0], n)
    if gate.kind == "CNOT":
        control, target = gate.targets
        return embed(_P0, control, n) + embed(_P1, control, n) @ embed(_X, target, n)
    raise ValueError(f"no dense form for gate kind {gate.kind!r}")


def dense_circuit_matrix(circuit: Circuit) -> np.ndarray:
    mat = np.eye(2**circuit.n, dtype=complex)
    for gate in circuit.gates:
        mat = dense_gate_matrix(gate, circuit.n) @ mat
    return mat


def _gate_noise_prob(gate: Gate, model: NoiseModel) -> float:
    return model.p2 if gate.kind == "CNOT" else model.p1


def dense_noisy_probabilities(circuit: Circuit, model: NoiseModel) -> np.ndarray:
    """Exact noisy outcome distribution: rho -> sum_k K rho K^dagger with
    dense Kraus matrices, then a stochastic bit-flip matrix per readout bit."""
    n = circuit.n
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = dense_gate_matrix(gate, n)
        rho = u @ rho @ u.conj().T
        p = _gate_noise_prob(gate, model)
        for q in gate.targets:
            kraus = [np.sqrt(1 - p) * np.eye(2**n)]
            kraus += [np.sqrt(p / 3) * embed(s, q, n) for s in (_X, _Y, _Z)]
            rho = sum(k @ rho @ k.conj().T for k in kraus)
    probs = np.real(np.diag(rho))
    f = model.readout_flip
    for q in range(n):
        probs = np.real(embed(np.array([[1 - f, f], [f, 1 - f]]), q, n)) @ probs
    return probs


def trajectory_counts(circuit: Circuit, model: NoiseModel, shots: int, seed: int) -> ShotCounts:
    """Monte Carlo oracle: one pure-state trajectory per shot.  After every
    gate each touched qubit draws an X, Y or Z kick with the gate's
    probability; each outcome bit then flips with the readout probability."""
    n = circuit.n
    rng = np.random.default_rng(seed)
    amp = np.zeros((shots, 2**n), dtype=complex)
    amp[:, 0] = 1.0
    for gate in circuit.gates:
        amp = amp @ dense_gate_matrix(gate, n).T
        p = _gate_noise_prob(gate, model)
        for q in gate.targets:
            kinds = np.where(rng.random(shots) < p, rng.integers(0, 3, size=shots), -1)
            for kind, pauli in enumerate((_X, _Y, _Z)):
                rows = kinds == kind
                amp[rows] = amp[rows] @ embed(pauli, q, n).T
    probs = np.abs(amp) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    outcomes = (np.cumsum(probs, axis=1) < rng.random((shots, 1))).sum(axis=1)
    outcomes = np.minimum(outcomes, 2**n - 1)
    bits = 1 << np.arange(n - 1, -1, -1)  # qubit 0 is the most significant bit
    outcomes ^= (rng.random((shots, n)) < model.readout_flip) @ bits
    return ShotCounts.from_vector(n, np.bincount(outcomes, minlength=2**n))


def dense_pauli_matrix(axes: str) -> np.ndarray:
    mat = np.eye(1, dtype=complex)
    for axis in axes:
        mat = np.kron(mat, AXIS_MATRICES[axis])
    return mat


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return amp / np.linalg.norm(amp)


def random_symmetric_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random state invariant under qubit permutations.

    Amplitudes depend only on the number of 1 bits in the basis index,
    which is exactly the class of states the symmetry-collapse shortcut
    relies on.
    """
    weights = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    amp = np.array([weights[bin(i).count("1")] for i in range(2**n)], dtype=complex)
    return amp / np.linalg.norm(amp)
