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

import numpy as np

MAX_QUBITS = 8

GATE_KINDS = frozenset({"H", "S", "SDG", "PHASE", "CNOT"})

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def qubit_bit(n: int, q: int) -> int:
    """Bitmask selecting qubit q in an n-qubit basis index (qubit 0 = MSB)."""
    return 1 << (n - 1 - q)


class Record:
    """Base of the package's immutable value records.

    A subclass names its fields in ``__slots__``.  Its ``__init__`` validates
    the arguments, sets each field once with ``object.__setattr__`` and keeps
    the field tuple as ``_values``, so equality, hashing, ``repr``, pickling
    and ``_replace`` read one tuple.  Assignment and deletion raise
    ``AttributeError``.
    """

    __slots__ = ("_values",)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values

    def _replace(self, **changes: object) -> "Record":
        """A copy with ``changes``, built and validated by ``__init__``."""
        return type(self)(**dict(zip(self.__slots__, self._values), **changes))


class Gate(Record):
    """One gate: kind in {H, S, SDG, PHASE, CNOT}, targets, optional angle.

    CNOT targets are (control, target).  Only PHASE carries an angle.
    """

    __slots__ = ("kind", "targets", "angle")

    def __init__(self, kind: str, targets: tuple[int, ...], angle: float | None = None) -> None:
        targets = tuple(int(t) for t in targets)
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        arity = 2 if kind == "CNOT" else 1
        if len(targets) != arity:
            raise ValueError(f"{kind} takes {arity} target(s), got {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"negative qubit index in {targets}")
        if kind == "CNOT" and targets[0] == targets[1]:
            raise ValueError("CNOT control and target must differ")
        if kind == "PHASE":
            if angle is None:
                raise ValueError("PHASE requires an angle")
            angle = float(angle)
        elif angle is not None:
            raise ValueError(f"{kind} does not take an angle")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "_values", (kind, targets, angle))


class Statevector:
    """n-qubit pure state: 2**n complex amplitudes indexed MSB-first.

    A state is mutable and equals only itself; compare ``amplitudes`` (for
    example with ``np.allclose``) to compare two states.
    """

    __slots__ = ("n", "amplitudes")

    def __init__(self, n: int, amplitudes: np.ndarray) -> None:
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"need 1 <= n <= {MAX_QUBITS}, got {n}")
        amp = np.asarray(amplitudes, dtype=np.complex128)
        if amp.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes, got shape {amp.shape}")
        self.n = n
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
    else:  # pragma: no cover - Gate() rejects unknown kinds
        raise ValueError(f"unknown gate kind {gate.kind!r}")


def probabilities(state: Statevector) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 over all basis outcomes."""
    return np.abs(state.amplitudes) ** 2
