"""Stochastic Pauli noise: exact noisy outcome distributions.

After every gate, each touched qubit independently suffers a uniformly random
X, Y, or Z kick with the gate's depolarizing probability (p1 for one-qubit
gates, p2 for CNOT).  Readout flips each measured bit symmetrically.  Every
shot is an i.i.d. draw from the mixed state's outcome distribution, so the
density matrix is evolved once under that channel (operator-sum form) and its
exact outcome probabilities feed one multinomial draw.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit, run
from .sampling import check_real
from .statevector import Gate, Record, apply_gate_inplace, probabilities


class NoiseModel(Record):
    """Depolarizing probabilities per touched qubit plus readout flip chance."""

    __slots__ = ("p1", "p2", "readout_flip")

    def __init__(self, p1: float = 0.0, p2: float = 0.0, readout_flip: float = 0.0) -> None:
        p1 = check_real("p1", p1, 0.0, 1.0)
        p2 = check_real("p2", p2, 0.0, 1.0)
        readout_flip = check_real("readout_flip", readout_flip, 0.0, 1.0)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "readout_flip", readout_flip)
        object.__setattr__(self, "_values", (p1, p2, readout_flip))

    @property
    def is_zero(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0 and self.readout_flip == 0.0


def _gate_noise_prob(gate: Gate, model: NoiseModel) -> float:
    return model.p2 if gate.kind == "CNOT" else model.p1


def _conjugate(gate: Gate) -> Gate:
    """The gate whose matrix is the complex conjugate of ``gate``'s."""
    if gate.kind == "S":
        return Gate("SDG", gate.targets)
    if gate.kind == "SDG":
        return Gate("S", gate.targets)
    if gate.kind == "PHASE":
        return Gate("PHASE", gate.targets, -gate.angle)
    return gate  # H and CNOT are real


def _qubit_blocks(a: np.ndarray, n: int, q: int) -> np.ndarray:
    """View of ``a`` with every axis split as (higher bits, bit q, lower bits)."""
    shape = (1 << q, 2, 1 << (n - 1 - q))
    return a.reshape(shape * a.ndim)


def _depolarize(rho: np.ndarray, n: int, q: int, p: float) -> None:
    """rho -> (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z) on qubit q, in place.

    Blockwise in bit q of row and column: the diagonal blocks mix with weight
    2p/3 and the off-diagonal blocks shrink by 1 - 4p/3.
    """
    b = _qubit_blocks(rho, n, q)
    d0, d1 = b[:, 0, :, :, 0, :], b[:, 1, :, :, 1, :]
    mix = (2.0 * p / 3.0) * (d1 - d0)
    d0 += mix
    d1 -= mix
    b[:, 0, :, :, 1, :] *= 1.0 - 4.0 * p / 3.0
    b[:, 1, :, :, 0, :] *= 1.0 - 4.0 * p / 3.0


def outcome_probabilities(circuit: Circuit, model: NoiseModel) -> np.ndarray:
    """Exact outcome distribution of ``circuit`` on |0...0> under ``model``.

    rho -> U rho U^dagger applies U to the columns of rho (the rows of
    rho.T) and conj(U) to its rows, both with the statevector kernel.
    """
    if model.is_zero:
        return probabilities(run(circuit))
    n = circuit.n
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        apply_gate_inplace(rho.T, n, gate)
        apply_gate_inplace(rho, n, _conjugate(gate))
        p = _gate_noise_prob(gate, model)
        if p > 0.0:
            for q in gate.targets:
                _depolarize(rho, n, q, p)
    probs = np.clip(rho.real.diagonal(), 0.0, None)  # rounding can leave -1e-17
    f = model.readout_flip
    if f > 0.0:
        for q in range(n):
            b = _qubit_blocks(probs, n, q)
            p0, p1 = b[:, 0, :].copy(), b[:, 1, :].copy()
            b[:, 0, :] = (1.0 - f) * p0 + f * p1
            b[:, 1, :] = f * p0 + (1.0 - f) * p1
    return probs

