"""Exact expected values of the reported estimates, from a dense density matrix.

Independent of the package: the polynomials, circuits and noise channel are
rebuilt here from their definitions.  Gates are dense 2**n x 2**n Kronecker
products (qubit 0 is the leftmost factor, the most significant bit).  The
benchmark sweeps p1 = p2 = readout = p.  After every gate each touched qubit
goes through the stochastic-Pauli channel
rho -> (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z).  A symmetric readout
flip of probability p on each of the n bits scales a z-parity expectation by
(1 - 2p)**n.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from workloads import GHZ_PHASE

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_SDG = np.diag([1.0, -1j])


def polynomial(n: int, setup: str) -> dict[str, Fraction]:
    """Axes string -> coefficient for the catalog's (n, setup) polynomial."""
    if n == 3 or setup == "mermin":
        # Mermin: every string with an odd number of Y, sign (-1)**((Y-1)/2).
        return {
            "".join("Y" if q in pos else "X" for q in range(n)): Fraction((-1) ** ((y - 1) // 2))
            for y in range(1, n + 1, 2)
            for pos in combinations(range(n), y)
        }
    # M_k = (1/2)[M_{k-1}(x + y) + M*_{k-1}(x - y)], M_1 = x, M* swaps X and Y,
    # rescaled by 2**(n//2); "al" negates every coefficient.
    terms: dict[str, Fraction] = {"X": Fraction(1)}
    for _ in range(n - 1):
        grown: dict[str, Fraction] = defaultdict(Fraction)
        for axes, c in terms.items():
            star = axes.translate(str.maketrans("XY", "YX"))
            grown[axes + "X"] += c / 2
            grown[axes + "Y"] += c / 2
            grown[star + "X"] += c / 2
            grown[star + "Y"] -= c / 2
        terms = {axes: c for axes, c in grown.items() if c}
    sign = -1 if setup == "al" else 1
    return {axes: sign * c * 2 ** (n // 2) for axes, c in terms.items()}


def measured_terms(n: int, setup: str, expanded: bool) -> list[tuple[float, str]]:
    """(weight, axes) of each measured circuit.  In class mode one circuit,
    X...XY...Y, stands for every term with its Y count, weighted by
    coefficient times multiplicity."""
    poly = polynomial(n, setup)
    if expanded:
        return [(float(c), axes) for axes, c in sorted(poly.items())]
    weights: dict[int, Fraction] = defaultdict(Fraction)
    for axes, c in poly.items():
        weights[axes.count("Y")] += c
    return [(float(w), "X" * (n - y) + "Y" * y) for y, w in sorted(weights.items())]


def _embed(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, op if q == qubit else _I)
    return out


def _cnot(control: int, target: int, n: int) -> np.ndarray:
    dim = 1 << n
    cbit, tbit = 1 << (n - 1 - control), 1 << (n - 1 - target)
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        u[k ^ tbit if k & cbit else k, k] = 1.0
    return u


@lru_cache(maxsize=None)
def _paulis(qubit: int, n: int) -> tuple[np.ndarray, ...]:
    return tuple(_embed(s, qubit, n) for s in (_X, _Y, _Z))


def _depolarize(rho: np.ndarray, qubit: int, n: int, p: float) -> np.ndarray:
    if p == 0.0:
        return rho
    kicked = sum(P @ rho @ P for P in _paulis(qubit, n))
    return (1.0 - p) * rho + (p / 3.0) * kicked


@lru_cache(maxsize=None)
def term_value(n: int, phase: float, axes: str, p: float) -> float:
    """Exact mean of the parity estimate for one measured circuit at
    p1 = p2 = readout = p: GHZ preparation (H, PHASE unless zero, CNOT chain)
    then the basis change of ``axes`` (S-dagger for Y, then H)."""
    gates: list[tuple[np.ndarray, tuple[int, ...]]] = [(_embed(_H, 0, n), (0,))]
    if phase != 0.0:
        gates.append((_embed(np.diag([1.0, np.exp(1j * phase)]), 0, n), (0,)))
    gates += [(_cnot(q, q + 1, n), (q, q + 1)) for q in range(n - 1)]
    for q, axis in enumerate(axes):
        if axis == "Y":
            gates.append((_embed(_SDG, q, n), (q,)))
        gates.append((_embed(_H, q, n), (q,)))
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for u, targets in gates:
        rho = u @ rho @ u.conj().T
        for q in targets:
            rho = _depolarize(rho, q, n, p)
    parity = np.array([1.0 - 2.0 * (bin(k).count("1") & 1) for k in range(dim)])
    return float(np.real(np.diag(rho)) @ parity) * (1.0 - 2.0 * p) ** n


def exact_value(n: int, setup: str, expanded: bool, p: float) -> float:
    """Exact mean of the reported polynomial value at p1 = p2 = readout = p."""
    phase = GHZ_PHASE[(n, setup)]
    return sum(w * term_value(n, phase, axes, p) for w, axes in measured_terms(n, setup, expanded))
