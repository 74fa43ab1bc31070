"""Pauli strings over sigma_x/sigma_y, applied to states without matrices.

A string is a plain ``str``, one 'X' or 'Y' per qubit (``check_axes``).  Its
factors are off-diagonal, so it maps basis index ``j`` to ``j`` with all bits
flipped, times a phase collected from the Y factors: sigma_y sends |0> to i|1>
and |1> to -i|0>.  For Y factors at the positions of ``y_mask`` the amplitude
picked up at index ``j`` is ``(-i)**Y * (-1)**popcount(j & y_mask)``.
"""

from __future__ import annotations

import numpy as np

from .statevector import MAX_QUBITS, check_state

# (-i)**Y by Y mod 4; exact complex constants, no powers at runtime.
_Y_PHASE = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)

# (-1)**popcount(i) for every index i of up to MAX_QUBITS bits, read as
# PARITY_SIGNS[values & mask] for the sign of each value's bits under mask.
PARITY_SIGNS = np.array([(-1.0) ** bin(i).count("1") for i in range(1 << MAX_QUBITS)])
PARITY_SIGNS.setflags(write=False)


def check_axes(axes: str, n: int | None = None) -> str:
    """``axes`` itself if it is a str of 1 to MAX_QUBITS factors (``n`` when
    given), each 'X' or 'Y'; anything else raises ``ValueError``."""
    ok = isinstance(axes, str) and 1 <= len(axes) <= MAX_QUBITS and not axes.strip("XY")
    if not ok or n not in (None, len(axes)):
        raise ValueError(f"axes must be {n or f'1 to {MAX_QUBITS}'} factors, each 'X' or 'Y', got {axes!r}")
    return axes


def apply_pauli(state: np.ndarray, axes: str) -> np.ndarray:
    """The amplitudes of axes|state>.  Axes that ``check_axes`` refuses, or a
    state that is not the amplitudes of their qubit count, raise ``ValueError``."""
    amp = check_state(state, len(check_axes(axes)))
    idx = np.arange(len(amp))
    y_mask = int(axes.replace("X", "0").replace("Y", "1"), 2)
    return amp[idx ^ (len(amp) - 1)] * (_Y_PHASE[axes.count("Y") % 4] * PARITY_SIGNS[idx & y_mask])


def exact_expectation(state: np.ndarray, axes: str) -> float:
    """<state| axes |state>.  Hermiticity makes this real; the real part is returned."""
    return float(np.real(np.vdot(state, apply_pauli(state, axes))))
