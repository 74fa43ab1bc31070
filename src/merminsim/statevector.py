"""Pure states, as plain amplitude arrays, and the small gate set needed for
GHZ experiments.  Conventions used throughout the package:

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
import numbers

import numpy as np

MAX_QUBITS = 8

GATE_KINDS = frozenset({"H", "S", "SDG", "PHASE", "CNOT"})

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def qubit_bit(n: int, q: int) -> int:
    """Bitmask selecting qubit q in an n-qubit basis index (qubit 0 = MSB)."""
    return 1 << (n - 1 - q)


def check_int(name: str, value: object, minimum: int | None = None) -> int:
    """``value`` as a plain int; bools and floats (even integral ones) are
    rejected, numpy integers are accepted."""
    if type(value) is int and (minimum is None or value >= minimum):
        return value  # the common case, before the slower ABC checks
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(name: str, value: object, minimum: float, maximum: float = math.inf) -> float:
    """``value`` as a plain float in [minimum, maximum]; bools, strings, nan,
    inf and ints past float range are rejected."""
    # The common case first; isfinite, since maximum may be inf.
    if type(value) is float and minimum <= value <= maximum and math.isfinite(value):
        return value
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int past float range
        real = False
    if not real:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if not minimum <= value <= maximum:
        raise ValueError(f"{name} must lie in [{minimum}, {maximum}], got {value}")
    return float(value)


def check_items(name: str, items: object, kind: type = object) -> tuple:
    """A tuple or list of ``kind`` instances as a tuple; anything else raises ``ValueError``."""
    if isinstance(items, (tuple, list)) and (kind is object or all(isinstance(item, kind) for item in items)):
        return tuple(items)
    raise ValueError(f"{name} must be a tuple or list of {kind.__name__} items, got {items!r}")


def check_state(state: np.ndarray, n: int | None = None) -> np.ndarray:
    """``state`` as a complex128 array of 2**n amplitudes, 1 <= n <= MAX_QUBITS, n read from
    its length when not given; any other shape raises ``ValueError``."""
    amp = np.asarray(state, dtype=np.complex128)
    k = (len(amp) if amp.ndim == 1 else 0).bit_length() - 1 if n is None else n
    if not (1 <= k <= MAX_QUBITS and amp.shape == (1 << k,)):
        raise ValueError(f"a state is 2**n amplitudes, n = {n or f'1 to {MAX_QUBITS}'}, got shape {amp.shape}")
    return amp


class Record:
    """Base of the package's immutable value records.

    A subclass names its fields once, in ``__slots__``.  Its ``__init__``
    validates the arguments and ends with one ``_set`` call, which sets the
    fields in ``__slots__`` order and keeps them as the tuple ``_values``, so
    equality, hashing, ``repr``, pickling and ``_replace`` read one tuple.
    Assignment and deletion raise ``AttributeError``.
    """

    __slots__ = ("_values",)

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # Each field's slot setter, looked up once per class, not per build.
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def _set(self, *values: object) -> None:
        """Set the fields to ``values`` in ``__slots__`` order and keep them
        as ``_values``; a count other than the number of fields raises
        ``ValueError``."""
        setters = self._setters
        if len(values) != len(setters):
            raise ValueError(f"{type(self).__qualname__} has {len(setters)} fields, got {len(values)} values")
        # Indexing is faster here than unpacking zip pairs.
        for i, setter in enumerate(setters):
            setter(self, values[i])
        object.__setattr__(self, "_values", values)

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
        targets = tuple(check_int("gate target", t, 0) for t in check_items("gate targets", targets))
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        arity = 2 if kind == "CNOT" else 1
        if len(targets) != arity:
            raise ValueError(f"{kind} takes {arity} target(s), got {targets}")
        if kind == "CNOT" and targets[0] == targets[1]:
            raise ValueError("CNOT control and target must differ")
        if kind == "PHASE":
            if angle is None:
                raise ValueError("PHASE requires an angle")
            angle = check_real("PHASE angle", angle, -math.inf)
        elif angle is not None:
            raise ValueError(f"{kind} does not take an angle")
        self._set(kind, targets, angle)


def init_zero(n: int) -> np.ndarray:
    """The amplitudes of the all-zeros computational basis state |00...0>."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"need 1 <= n <= {MAX_QUBITS}, got {n}")
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[0] = 1.0
    return amp


def ghz_state(n: int, phase: float) -> np.ndarray:
    """Amplitudes of GHZ state (|0...0> + e^{i*phase}|1...1>)/sqrt(2), built directly."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"need 2 <= n <= {MAX_QUBITS}, got {n}")
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[0] = _INV_SQRT2
    amp[-1] = _INV_SQRT2 * complex(math.cos(phase), math.sin(phase))
    return amp


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


def probabilities(state: np.ndarray) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 over all outcomes of a checked state."""
    return np.abs(check_state(state)) ** 2
