"""Tensor products of sigma_x/sigma_y, applied to statevectors without matrices.

Every factor of such a string is off-diagonal, so the string maps basis index
``j`` to ``j`` with all bits flipped, times a phase collected from the Y
factors: sigma_y sends |0> to i|1> and |1> to -i|0>.  For Y factors at the
positions of ``y_mask`` the amplitude picked up at index ``j`` is
``(-i)**Y * (-1)**popcount(j & y_mask)``.
"""

from __future__ import annotations

import numpy as np

from .statevector import MAX_QUBITS, Record, Statevector, qubit_bit

_AXES = frozenset({"X", "Y"})

# (-i)**Y by Y mod 4; exact complex constants, no powers at runtime.
_Y_PHASE = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)

# (-1)**popcount(i) for every index i of up to MAX_QUBITS bits, read as
# PARITY_SIGNS[values & mask] for the sign of each value's bits under mask.
PARITY_SIGNS = np.array([(-1.0) ** bin(i).count("1") for i in range(1 << MAX_QUBITS)])
PARITY_SIGNS.setflags(write=False)


class PauliString(Record):
    """A string over {X, Y}, one axis per qubit (no identity or Z factors)."""

    __slots__ = ("axes",)

    def __init__(self, axes: tuple[str, ...]) -> None:
        axes = tuple(axes)
        if not 1 <= len(axes) <= MAX_QUBITS:
            raise ValueError(f"need 1 to {MAX_QUBITS} factors, got {len(axes)}")
        bad = [a for a in axes if a not in _AXES]
        if bad:
            raise ValueError(f"axes must be 'X' or 'Y', got {bad}")
        self._set(axes)

    @classmethod
    def from_str(cls, s: str) -> "PauliString":
        return cls(tuple(s.upper()))

    def __str__(self) -> str:
        return "".join(self.axes)

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def y_count(self) -> int:
        return sum(1 for a in self.axes if a == "Y")

    @property
    def y_mask(self) -> int:
        m = 0
        for q, a in enumerate(self.axes):
            if a == "Y":
                m |= qubit_bit(self.n, q)
        return m


def apply_pauli(state: Statevector, p: PauliString) -> Statevector:
    """Return p|state>.  Raises ValueError on qubit-count mismatch."""
    if state.n != p.n:
        raise ValueError(f"state has {state.n} qubits but string has {p.n}")
    dim = state.dim
    idx = np.arange(dim)
    signs = PARITY_SIGNS[idx & p.y_mask]
    phase = _Y_PHASE[p.y_count % 4]
    new = state.amplitudes[idx ^ (dim - 1)] * (phase * signs)
    return Statevector(state.n, new)


def exact_expectation(state: Statevector, p: PauliString) -> float:
    """<state| p |state>.  Hermiticity makes this real; the real part is returned."""
    return float(np.real(np.vdot(state.amplitudes, apply_pauli(state, p).amplitudes)))
