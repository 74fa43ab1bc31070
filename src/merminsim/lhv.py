"""Local-realistic bounds for Mermin-type polynomials.

The bound over all local hidden-variable models equals the maximum over
deterministic strategies (the polynomial is linear in each local outcome and
the LHV polytope's vertices are deterministic assignments), so brute force
over every choice of a_x, a_y = +/-1 per qubit is exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .pauli import PARITY_SIGNS
from .statevector import MAX_QUBITS

if TYPE_CHECKING:  # pragma: no cover
    from .polynomials import MerminPolynomial

# Correlations above this value cannot be reproduced by any hybrid model in
# which at most two of the four parties share nonlocal resources; exceeding it
# certifies genuine four-party nonlocality for the 4-qubit polynomials here.
GENUINE_FOURPARTY_BOUND = 8.0


def lr_bound_formula(n: int) -> float:
    """Closed-form LHV bound: 2**(n/2) for even n, 2**((n-1)/2) for odd n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return float(2 ** (n // 2))


def lr_bound_bruteforce(p: "MerminPolynomial") -> float:
    """Exact LHV bound: maximize over all 4**n deterministic assignments.

    An assignment is a pair of n-bit integers (ax, ay); bit q set means the
    qubit answers -1 for that axis.  A term's product of outcomes is then
    (-1)**popcount(ax & x_mask) * (-1)**popcount(ay & y_mask).
    """
    n = p.n
    if n > MAX_QUBITS:
        raise ValueError(f"brute force capped at n <= {MAX_QUBITS}, got {n}")
    dim = 1 << n
    full = dim - 1
    idx = np.arange(dim)
    values = np.zeros((dim, dim))
    for coeff, s in p.terms:
        ym = s.y_mask
        sx = PARITY_SIGNS[idx & (full ^ ym)]
        sy = PARITY_SIGNS[idx & ym]
        values += coeff * np.outer(sx, sy)
    return float(values.max())
