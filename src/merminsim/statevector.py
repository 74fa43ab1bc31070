"""Dense complex statevector with the small gate set needed for GHZ experiments.

Conventions used throughout the package:

* Qubit 0 is the leftmost label in ``|b0 b1 ... b_{n-1}>`` and indexes the
  most significant bit of the amplitude array, so basis index ``k`` carries
  ``(k >> (n - 1 - q)) & 1`` for qubit ``q``.
* Amplitudes are complex128 and global phase is kept as-is; nothing ever
  renormalizes it away.
* Gate kernels update the amplitude buffer in place over the *last* axis, so
  the same code serves a single state of shape ``(2**n,)`` and every row of a
  ``(2**n, 2**n)`` density matrix (or of its transpose, for the columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 8

GATE_KINDS = frozenset({"H", "S", "SDG", "PHASE", "CNOT"})

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def qubit_bit(n: int, q: int) -> int:
    """Bitmask selecting qubit q in an n-qubit basis index (qubit 0 = MSB)."""
    return 1 << (n - 1 - q)


@dataclass(frozen=True)
class Gate:
    """One gate: kind in {H, S, SDG, PHASE, CNOT}, targets, optional angle.

    CNOT targets are (control, target).  Only PHASE carries an angle.
    """

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind == "CNOT" else 1
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {self.targets}")
        if any(t < 0 for t in self.targets):
            raise ValueError(f"negative qubit index in {self.targets}")
        if self.kind == "CNOT" and self.targets[0] == self.targets[1]:
            raise ValueError("CNOT control and target must differ")
        if self.kind == "PHASE":
            if self.angle is None:
                raise ValueError("PHASE requires an angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} does not take an angle")


@dataclass
class Statevector:
    """n-qubit pure state: 2**n complex amplitudes indexed MSB-first."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"need 1 <= n <= {MAX_QUBITS}, got {self.n}")
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got shape {amp.shape}")
        self.amplitudes = amp

    @property
    def dim(self) -> int:
        return 1 << self.n


def init_zero(n: int) -> Statevector:
    """The all-zeros computational basis state |00...0>."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"need 1 <= n <= {MAX_QUBITS}, got {n}")
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[0] = 1.0
    return Statevector(n, amp)


def ghz_state(n: int, phase: float) -> Statevector:
    """GHZ state (|0...0> + e^{i*phase}|1...1>)/sqrt(2), built directly."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"need 2 <= n <= {MAX_QUBITS}, got {n}")
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[0] = _INV_SQRT2
    amp[-1] = _INV_SQRT2 * complex(math.cos(phase), math.sin(phase))
    return Statevector(n, amp)


def apply_gate_inplace(amp: np.ndarray, n: int, gate: Gate) -> None:
    """Apply one gate to an amplitude buffer (last axis = basis index)."""
    if gate.kind == "CNOT":
        c, t = gate.targets
        bc, bt = qubit_bit(n, c), qubit_bit(n, t)
        idx = np.arange(amp.shape[-1])
        src = idx[((idx & bc) != 0) & ((idx & bt) == 0)]
        dst = src | bt
        low = amp[..., src]
        amp[..., src] = amp[..., dst]
        amp[..., dst] = low
        return
    (q,) = gate.targets
    # Splitting the last axis as (higher bits, bit q, lower bits) is a view,
    # also of a non-contiguous buffer such as rho.T, so writes land in amp.
    split = amp.reshape(amp.shape[:-1] + (1 << q, 2, 1 << (n - 1 - q)))
    a0, a1 = split[..., 0, :], split[..., 1, :]
    if gate.kind == "H":
        plus = (a0 + a1) * _INV_SQRT2
        minus = (a0 - a1) * _INV_SQRT2
        a0[...] = plus
        a1[...] = minus
    elif gate.kind == "S":
        a1 *= 1j
    elif gate.kind == "SDG":
        a1 *= -1j
    elif gate.kind == "PHASE":
        a1 *= complex(math.cos(gate.angle), math.sin(gate.angle))
    else:  # pragma: no cover - Gate.__post_init__ rejects unknown kinds
        raise ValueError(f"unknown gate kind {gate.kind!r}")


def probabilities(state: Statevector) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 over all basis outcomes."""
    return np.abs(state.amplitudes) ** 2
