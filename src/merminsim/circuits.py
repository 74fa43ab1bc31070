"""GHZ preparation circuits, measurement-basis transforms, and the catalog of
qubit-count/setup combinations used by the harness."""

from __future__ import annotations

from enum import Enum

from .pauli import PauliString
from .polynomials import MerminPolynomial, alsina_recursive, mermin_direct, optimal_ghz_phase, primed
from .statevector import Gate, Record, Statevector, apply_gate_inplace, init_zero


class Circuit(Record):
    __slots__ = ("n", "gates")

    def __init__(self, n: int, gates: tuple[Gate, ...]) -> None:
        gates = tuple(gates)
        for g in gates:
            if max(g.targets) >= n:
                raise ValueError(f"gate {g.kind} targets {g.targets} but n={n}")
        self._set(n, gates)

    def then(self, other: "Circuit") -> "Circuit":
        if other.n != self.n:
            raise ValueError("circuits act on different qubit counts")
        return Circuit(self.n, self.gates + other.gates)


def ghz_circuit(n: int, phase: float = 0.0) -> Circuit:
    """H on qubit 0, PHASE(phase) on qubit 0 (omitted when zero), then a CNOT
    chain 0->1->...->n-1: prepares (|0...0> + e^{i*phase}|1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError(f"GHZ needs n >= 2, got {n}")
    gates: list[Gate] = [Gate("H", (0,))]
    if phase != 0.0:
        gates.append(Gate("PHASE", (0,), float(phase)))
    gates.extend(Gate("CNOT", (q, q + 1)) for q in range(n - 1))
    return Circuit(n, tuple(gates))


def measurement_transform(p: PauliString) -> Circuit:
    """Per-qubit basis rotation onto sigma_z: H for an X factor, S-dagger then
    H for a Y factor.  Measuring z-parity afterwards realizes <p>."""
    gates: list[Gate] = []
    for q, axis in enumerate(p.axes):
        if axis == "Y":
            gates.append(Gate("SDG", (q,)))
        gates.append(Gate("H", (q,)))
    return Circuit(p.n, tuple(gates))


def run(c: Circuit) -> Statevector:
    """Apply the circuit to |0...0>."""
    state = init_zero(c.n)
    for g in c.gates:
        apply_gate_inplace(state.amplitudes, c.n, g)
    return state


class Setup(str, Enum):
    """Measurement-setup families: MERMIN measures the direct polynomial, AL
    the primed recursion polynomial and AL_MODIFIED the unprimed one.  Each
    is read on the GHZ state at the polynomial's optimal phase."""

    MERMIN = "mermin"
    AL = "al"
    AL_MODIFIED = "al-mod"


class SetupConfig(Record):
    """Everything one violation experiment needs: state phase, polynomial,
    and the two bounds it is judged against."""

    __slots__ = ("n", "setup", "ghz_phase", "polynomial")

    def __init__(self, n: int, setup: Setup, ghz_phase: float, polynomial: MerminPolynomial) -> None:
        self._set(n, setup, ghz_phase, polynomial)

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
    setup = Setup(setup)
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
