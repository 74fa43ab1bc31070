"""Local-realistic and hybrid bounds for Mermin-type polynomials.

A hybrid model splits the qubits into groups of at most k that may share any
resource (Svetlichny, PRD 35, 3066, 1987; Collins et al., PRL 88, 170405, 2002):
k = 1 is local realism, and a value above the k = n - 1 bound certifies genuine
n-party nonlocality.  Deterministic models reach every maximum, and a correlator
reads only the product of the groups' outputs, so each group answers with a
+/-1 function of its joint settings.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .statevector import MAX_QUBITS, check_int

if TYPE_CHECKING:  # pragma: no cover
    from .polynomials import MerminPolynomial


def lr_bound_formula(n: int) -> float:
    """Closed-form LHV bound: 2**(n/2) for even n, 2**((n-1)/2) for odd n.
    ``n`` is read as an int >= 2 (``check_int``)."""
    return float(2 ** (check_int("n", n, 2) // 2))


def _partitions(qubits: tuple[int, ...], k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every partition of ``qubits`` into groups of at most ``k``."""
    for others in (c for size in range(min(k, len(qubits))) for c in combinations(qubits[1:], size)):
        rest = tuple(q for q in qubits[1:] if q not in others)
        yield from (((qubits[0], *others), *tail) for tail in (_partitions(rest, k) if rest else [()]))


def lr_bound_bruteforce(p: "MerminPolynomial", k: int = 1) -> float:
    """Exact bound over hybrid models whose groups hold at most ``k`` qubits
    (``k = 1``: local realism); a ``k`` that is not an int in [1, n] raises
    ``ValueError``.  Each maximal partition (no two groups could merge)
    contracts the other groups' +/-1 functions, first entry +1 as negating one
    negates every sum, into the coefficients indexed by setting (1 for Y); the
    largest group then takes the sum of |.| over its settings."""
    n = p.n
    if not 1 <= check_int("k", k) <= n <= MAX_QUBITS:
        raise ValueError(f"need 1 <= k <= n <= {MAX_QUBITS}, got k = {k}, n = {n}")
    coeffs = np.zeros((2,) * n)
    for c, s in p.terms:
        coeffs[tuple(int(a == "Y") for a in s)] += c
    best = 0.0
    for groups in (sorted(g, key=len, reverse=True) for g in _partitions(tuple(range(n)), k)):
        if len(groups) > 1 and len(groups[-1]) + len(groups[-2]) <= k:
            continue
        t = coeffs.transpose(sum(groups, ())).reshape([1 << len(g) for g in groups])
        for w in (1 << len(g) for g in groups[1:]):
            t = np.tensordot(t, 1 - 2 * ((np.arange(0, 1 << w, 2)[:, None] >> np.arange(w)) & 1), ([1], [1]))
        best = max(best, float(np.abs(t).sum(axis=0).max()))
    return best
