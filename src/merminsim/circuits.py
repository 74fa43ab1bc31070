"""GHZ preparation circuits, measurement-basis transforms, and the catalog of
qubit-count/setup combinations used by the harness."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .pauli import check_axes
from .polynomials import MerminPolynomial, alsina_recursive, mermin_direct, optimal_ghz_phase, primed
from .statevector import Gate, Record, apply_gate_inplace, check_int, check_items, check_qubits, init_zero


class Circuit(Record):
    """Gates on ``n`` qubits, applied in order: ``n`` an int in [1, MAX_QUBITS],
    each gate a ``Gate`` on qubits below ``n``; anything else raises ``ValueError``."""

    __slots__ = ("n", "gates")

    def __init__(self, n: int, gates: tuple[Gate, ...]) -> None:
        n = check_qubits(n, 1)
        gates = check_items("gates", gates)
        for g in gates:
            if type(g) is not Gate or max(g.targets) >= n:
                raise ValueError(f"need Gate records on qubits below n={n}, got {g!r}")
        self._set(n, gates)

    def then(self, other: "Circuit") -> "Circuit":
        if other.n != self.n:
            raise ValueError("circuits act on different qubit counts")
        return Circuit(self.n, self.gates + other.gates)


def ghz_circuit(n: int, phase: float = 0.0) -> Circuit:
    """H on qubit 0, PHASE(phase) on qubit 0 (omitted when zero), then a CNOT
    chain 0->1->...->n-1: prepares (|0...0> + e^{i*phase}|1...1>)/sqrt(2)."""
    n = check_qubits(n, 2)
    gates: list[Gate] = [Gate("H", (0,))]
    if phase != 0.0:
        gates.append(Gate("PHASE", (0,), float(phase)))
    gates.extend(Gate("CNOT", (q, q + 1)) for q in range(n - 1))
    return Circuit(n, tuple(gates))


def measurement_transform(axes: str) -> Circuit:
    """Per-qubit basis rotation onto sigma_z (``check_axes`` axes): H for an X
    factor, S-dagger then H for a Y factor.  Z-parity then realizes <axes>."""
    gates: list[Gate] = []
    for q, axis in enumerate(check_axes(axes)):
        if axis == "Y":
            gates.append(Gate("SDG", (q,)))
        gates.append(Gate("H", (q,)))
    return Circuit(len(axes), tuple(gates))


def run(c: Circuit) -> np.ndarray:
    """The amplitudes of the circuit applied to |0...0>."""
    amp = init_zero(c.n)
    for g in c.gates:
        apply_gate_inplace(amp, c.n, g)
    return amp


class Setup(str, Enum):
    """Measurement-setup families: MERMIN measures the direct polynomial, AL
    the primed recursion polynomial and AL_MODIFIED the unprimed one.  Each
    is read on the GHZ state at the polynomial's optimal phase."""

    MERMIN = "mermin"
    AL = "al"
    AL_MODIFIED = "al-mod"


class SetupConfig(Record):
    """Everything one violation experiment needs: state phase, polynomial,
    and the two bounds it is judged against.  ``setup`` is read as a ``Setup``; a
    polynomial that is no ``MerminPolynomial`` on ``n`` qubits, or a ``ghz_phase``
    other than its ``optimal_ghz_phase``, raises ``ValueError``."""

    __slots__ = ("n", "setup", "ghz_phase", "polynomial")

    def __init__(self, n: int, setup: Setup, ghz_phase: float, polynomial: MerminPolynomial) -> None:
        setup = Setup(setup)
        if not isinstance(polynomial, MerminPolynomial) or check_int("n", n) != polynomial.n:
            raise ValueError(f"need a MerminPolynomial on n = {n} qubits, got {polynomial!r}")
        phase = optimal_ghz_phase(polynomial)
        if ghz_phase != phase:
            raise ValueError(f"ghz_phase must be the polynomial's optimal phase {phase}, got {ghz_phase!r}")
        self._set(polynomial.n, setup, phase, polynomial)

    @property
    def lr_bound(self) -> float:
        return self.polynomial.lr_bound

    @property
    def qm_value(self) -> float:
        return self.polynomial.qm_value


# The supported qubit counts and setup ids.
QUBIT_COUNTS = (3, 4, 5)
SETUP_IDS = tuple(s.value for s in Setup)


def setup_config(n: int, setup: Setup | str) -> SetupConfig:
    """The nine supported (qubits, setup) combinations at their optimal GHZ
    phases.  All three setup ids coincide for n=3, where the recursion
    reproduces the direct polynomial."""
    setup, n = Setup(setup), check_int("n", n)
    if n not in QUBIT_COUNTS:
        raise ValueError(f"unsupported combination: {n} qubits, setup {setup.value!r}")
    if n == 3 or setup is Setup.MERMIN:
        poly = mermin_direct(n)
    elif setup is Setup.AL:
        poly = primed(alsina_recursive(n))
    else:
        poly = alsina_recursive(n)
    return SetupConfig(n, setup, optimal_ghz_phase(poly), poly)


def all_setup_configs() -> list[SetupConfig]:
    """The full nine-entry catalog, ordered by qubit count then setup."""
    return [setup_config(n, s) for n in QUBIT_COUNTS for s in Setup]
