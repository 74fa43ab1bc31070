"""Mermin-type polynomials: direct odd-Y expansion, two-setting recursion,
primed variants, and collapse into qubit-exchange symmetry classes.

Coefficients are plain ints (every one built here is +-1); floats appear
only when a polynomial is evaluated against a state.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence
from itertools import combinations

import numpy as np

from .lhv import lr_bound_formula
from .pauli import apply_pauli, check_axes
from .statevector import MAX_QUBITS, Record, check_int, check_items, check_real, check_state

# Absolute tolerance of every exact recheck: eigenvalue residuals, and stored
# LR bounds and QM values against their recomputation.
CHECK_TOL = 1e-10

Term = tuple[int, str]


class EigencheckError(ValueError):
    """Raised when a state fails to be an eigenvector of a polynomial."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"state is not an eigenvector: residual norm {residual:.3e}")


class MerminPolynomial(Record):
    """Real-linear combination of X/Y Pauli strings with its two bounds.

    ``lr_bound`` is the maximum over local-realistic models and ``qm_value``
    the quantum maximum, both in the same normalization as ``terms``.  ``n``
    is read as an int >= 1 and both bounds as finite floats >= 0.  Each term
    is stored as an ``(int, str)`` tuple, its coefficient read as a plain int and
    its axes as ``n`` factors (``check_axes``); anything else raises ``ValueError``.
    """

    __slots__ = ("n", "terms", "lr_bound", "qm_value")

    def __init__(self, n: int, terms: tuple[Term, ...], lr_bound: float, qm_value: float) -> None:
        n = check_int("n", n, 1)
        pairs = check_items("terms", terms, Sequence)
        terms = tuple((check_int("coefficient", c), check_axes(s, n)) for c, s in pairs)
        lr_bound = check_real("lr_bound", lr_bound, 0.0)
        qm_value = check_real("qm_value", qm_value, 0.0)
        self._set(n, terms, lr_bound, qm_value)


class SymmetryClass(Record):
    """All terms sharing one Y count: per-term coefficient and how many.  The
    Y count is read as an int >= 0, the coefficient as an int and the
    multiplicity as an int >= 1; anything else raises ``ValueError``."""

    __slots__ = ("y_count", "coefficient", "multiplicity")

    def __init__(self, y_count: int, coefficient: int, multiplicity: int) -> None:
        y_count = check_int("y_count", y_count, 0)
        coefficient = check_int("coefficient", coefficient)
        multiplicity = check_int("multiplicity", multiplicity, 1)
        self._set(y_count, coefficient, multiplicity)


def ghz_coherence(terms: tuple[Term, ...]) -> complex:
    """M[0,N], N = 2**n - 1: the entry coupling |0...0> to |1...1>.  As
    <0|X|1> = 1 and <0|Y|1> = -i, it is the sum of coefficient * (-i)**Y.
    On the GHZ state (|0...0> + e^{i phase}|1...1>)/sqrt(2) an X/Y polynomial
    reads Re(e^{i phase} M[0,N]): at most |M[0,N]|, at phase -arg M[0,N].  The
    polynomials built here have no other non-zero entry but M[N,0], so |M[0,N]|
    is also their largest eigenvalue, the quantum value.  The float sum is
    exact, as the coefficients are small ints.
    """
    return sum(float(c) * (1, -1j, -1, 1j)[s.count("Y") % 4] for c, s in terms)


def optimal_ghz_phase(p: MerminPolynomial) -> float:
    """The GHZ phase at which p reaches its quantum value, -arg M[0,N], as
    k * pi / 4 with k in (-4, 4] (so pi, not -pi).  Raises ValueError if the
    phase is no multiple of pi/4."""
    z = ghz_coherence(p.terms)
    angle = -math.atan2(z.imag, z.real)
    k = round(angle * 4 / math.pi)
    if abs(angle - k * math.pi / 4) > CHECK_TOL:
        raise ValueError(f"optimal GHZ phase {angle} is not a multiple of pi/4")
    return (4 if k == -4 else k) * math.pi / 4


def _from_axes(n: int, by_axes: dict[str, int]) -> MerminPolynomial:
    """The polynomial of the non-zero terms, ordered by Y count then axes,
    with its closed-form LR bound and QM value |M[0,N]|."""
    terms = tuple((c, s) for s, c in sorted(by_axes.items(), key=lambda it: (it[0].count("Y"), it[0])) if c)
    return MerminPolynomial(n, terms, lr_bound_formula(n), abs(ghz_coherence(terms)))


def mermin_direct(n: int) -> MerminPolynomial:
    """Mermin's operator: every string with an odd number of Y factors, with
    coefficient (-1)**((Y-1)/2).  2**(n-1) terms; QM value |M[0,N]| = 2**(n-1)."""
    if not 3 <= n <= MAX_QUBITS:
        raise ValueError(f"need 3 <= n <= {MAX_QUBITS}, got {n}")
    by_axes: dict[str, int] = {}
    for y in range(1, n + 1, 2):
        coeff = (-1) ** ((y - 1) // 2)
        for pos in combinations(range(n), y):
            axes = "".join("Y" if q in pos else "X" for q in range(n))
            by_axes[axes] = coeff
    return _from_axes(n, by_axes)


def alsina_recursive(n: int) -> MerminPolynomial:
    """Build the polynomial by the two-setting recursion
    M_n = (1/2)[M_{n-1}(x_n + y_n) + M*_{n-1}(x_n - y_n)],  M_1 = x_1,
    where M* swaps X and Y everywhere.

    The raw recursion normalizes the LHV bound to 1; the result is rescaled by
    2**floor(n/2) so the bound matches lr_bound_formula(n).  Here no step
    halves, so coefficients stay ints, and one exact division by
    2**(n-1-floor(n/2)) at the end makes that rescale.  This reproduces
    the customary presentations: identical to mermin_direct at n=3, per-class
    coefficients (-1,+1,+1,-1,-1) at n=4, and (-1,+1,-1) on Y=(0,2,4) at n=5
    (the conventional halving of the raw 5-qubit output is absorbed here).
    Quantum value |M[0,N]| (ghz_coherence): 2**(n-1), times sqrt(2) at even n.
    """
    if not 3 <= n <= MAX_QUBITS:
        raise ValueError(f"need 3 <= n <= {MAX_QUBITS}, got {n}")
    terms: dict[str, int] = {"X": 1}
    for _ in range(n - 1):
        swapped = {"".join("Y" if a == "X" else "X" for a in ax): c for ax, c in terms.items()}
        grown: dict[str, int] = defaultdict(int)
        for ax, c in terms.items():
            grown[ax + "X"] += c
            grown[ax + "Y"] += c
        for ax, c in swapped.items():
            grown[ax + "X"] += c
            grown[ax + "Y"] -= c
        terms = {ax: c for ax, c in grown.items() if c != 0}
    scale = 2 ** (n - 1 - n // 2)
    return _from_axes(n, {ax: c // scale for ax, c in terms.items()})


def primed(p: MerminPolynomial) -> MerminPolynomial:
    """Negate every coefficient.  Both bounds are symmetric, so they carry over."""
    terms = tuple((-c, s) for c, s in p.terms)
    return MerminPolynomial(p.n, terms, p.lr_bound, p.qm_value)


def collapse(p: MerminPolynomial) -> list[SymmetryClass]:
    """Group terms by Y count.  On any permutation-symmetric state all terms
    of a class share one expectation, so coefficient * multiplicity * one
    representative reproduces the class's full contribution.

    Raises ValueError if a class mixes different coefficients.
    """
    groups: dict[int, list[int]] = defaultdict(list)
    for coeff, s in p.terms:
        groups[s.count("Y")].append(coeff)
    classes = []
    for y in sorted(groups):
        coeffs = set(groups[y])
        if len(coeffs) != 1:
            raise ValueError(f"mixed coefficients {sorted(coeffs)} within Y={y} class")
        classes.append(SymmetryClass(y, coeffs.pop(), len(groups[y])))
    return classes


def eigencheck(p: MerminPolynomial, state: np.ndarray) -> float:
    """Eigenvalue of p on an eigenstate, given as its amplitudes; a state of
    another qubit count raises ``ValueError``.

    Applies the polynomial term by term and verifies ||p|s> - lam|s>|| stays
    below CHECK_TOL, where lam = <s|p|s>.  Raises EigencheckError with
    the residual norm otherwise.
    """
    amp = check_state(state, p.n)
    acc = sum((coeff * apply_pauli(amp, s) for coeff, s in p.terms), np.zeros_like(amp))
    lam = float(np.real(np.vdot(amp, acc)))
    residual = float(np.linalg.norm(acc - lam * amp))
    if residual > CHECK_TOL:
        raise EigencheckError(residual)
    return lam
