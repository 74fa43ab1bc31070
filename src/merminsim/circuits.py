"""GHZ preparation circuits, measurement-basis transforms, and the catalog of
qubit-count/setup combinations used by the harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .pauli import PauliString
from .polynomials import MerminPolynomial, alsina_recursive, mermin_direct, primed
from .statevector import Gate, Statevector, apply_gate_inplace, init_zero


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.targets) >= self.n:
                raise ValueError(f"gate {g.kind} targets {g.targets} but n={self.n}")

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
    """Measurement-setup families: MERMIN pairs the direct polynomial with a
    pi/2 GHZ phase; AL pairs primed recursion polynomials with the historical
    phases; AL_MODIFIED pairs unprimed ones with phases fixed to reach the
    quantum maximum."""

    MERMIN = "mermin"
    AL = "al"
    AL_MODIFIED = "al-mod"


@dataclass(frozen=True)
class SetupConfig:
    """Everything one violation experiment needs: state phase, polynomial,
    and the two bounds it is judged against."""

    n: int
    setup: Setup
    ghz_phase: float
    polynomial: MerminPolynomial

    @property
    def lr_bound(self) -> float:
        return self.polynomial.lr_bound

    @property
    def qm_value(self) -> float:
        return self.polynomial.qm_value


_PHASES: dict[tuple[int, Setup], float] = {
    (3, Setup.MERMIN): math.pi / 2,
    (3, Setup.AL): math.pi / 2,
    (3, Setup.AL_MODIFIED): math.pi / 2,
    (4, Setup.MERMIN): math.pi / 2,
    (4, Setup.AL): -math.pi / 4,
    (4, Setup.AL_MODIFIED): 3 * math.pi / 4,
    (5, Setup.MERMIN): math.pi / 2,
    (5, Setup.AL): 0.0,
    (5, Setup.AL_MODIFIED): math.pi,
}
# The supported qubit counts and setup ids, as the catalog above lists them.
QUBIT_COUNTS = tuple(sorted({n for n, _ in _PHASES}))
SETUP_IDS = tuple(s.value for s in Setup)


def setup_config(n: int, setup: Setup | str) -> SetupConfig:
    """The nine supported (qubits, setup) combinations.  All three setup ids
    coincide for n=3, where the recursion reproduces the direct polynomial."""
    setup = Setup(setup)
    if (n, setup) not in _PHASES:
        raise ValueError(f"unsupported combination: {n} qubits, setup {setup.value!r}")
    if n == 3 or setup is Setup.MERMIN:
        poly = mermin_direct(n)
    elif setup is Setup.AL:
        poly = primed(alsina_recursive(n))
    else:
        poly = alsina_recursive(n)
    return SetupConfig(n, setup, _PHASES[(n, setup)], poly)


def all_setup_configs() -> list[SetupConfig]:
    """The full nine-entry catalog, ordered by qubit count then setup."""
    return [setup_config(n, s) for n, s in _PHASES]
