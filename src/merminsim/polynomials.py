"""Mermin-type polynomials: direct odd-Y expansion, two-setting recursion,
primed variants, and collapse into qubit-exchange symmetry classes.

Coefficients stay exact rationals (fractions.Fraction) through construction;
floats appear only when a polynomial is evaluated against a state.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np

from .lhv import lr_bound_formula
from .pauli import PauliString, apply_pauli
from .statevector import MAX_QUBITS, Record, Statevector

# Absolute tolerance of every exact recheck: eigenvalue residuals, and stored
# LR bounds and QM values against their recomputation.
CHECK_TOL = 1e-10

Term = tuple[Fraction, PauliString]


class EigencheckError(ValueError):
    """Raised when a state fails to be an eigenvector of a polynomial."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"state is not an eigenvector: residual norm {residual:.3e}")


class MerminPolynomial(Record):
    """Real-linear combination of X/Y Pauli strings with its two bounds.

    ``lr_bound`` is the maximum over local-realistic models and ``qm_value``
    the quantum maximum, both in the same normalization as ``terms``.
    """

    __slots__ = ("n", "terms", "lr_bound", "qm_value")

    def __init__(self, n: int, terms: tuple[Term, ...], lr_bound: float, qm_value: float) -> None:
        for coeff, s in terms:
            if not isinstance(coeff, Fraction):
                raise ValueError(f"coefficients must be Fraction, got {type(coeff)}")
            if s.n != n:
                raise ValueError(f"term {s} has {s.n} qubits, polynomial has {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "lr_bound", lr_bound)
        object.__setattr__(self, "qm_value", qm_value)
        object.__setattr__(self, "_values", (n, terms, lr_bound, qm_value))


class SymmetryClass(Record):
    """All terms sharing one Y count: per-term coefficient and how many."""

    __slots__ = ("y_count", "coefficient", "multiplicity")

    def __init__(self, y_count: int, coefficient: Fraction, multiplicity: int) -> None:
        object.__setattr__(self, "y_count", y_count)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "_values", (y_count, coefficient, multiplicity))


def _canonical_terms(by_axes: dict[tuple[str, ...], Fraction]) -> tuple[Term, ...]:
    items = [(axes, c) for axes, c in by_axes.items() if c != 0]
    items.sort(key=lambda it: (it[0].count("Y"), it[0]))
    return tuple((c, PauliString(axes)) for axes, c in items)


def mermin_direct(n: int) -> MerminPolynomial:
    """Mermin's operator: every string with an odd number of Y factors,
    with coefficient (-1)**((Y-1)/2).  2**(n-1) terms; quantum maximum 2**(n-1).
    """
    if not 3 <= n <= MAX_QUBITS:
        raise ValueError(f"need 3 <= n <= {MAX_QUBITS}, got {n}")
    by_axes: dict[tuple[str, ...], Fraction] = {}
    for y in range(1, n + 1, 2):
        coeff = Fraction((-1) ** ((y - 1) // 2))
        for pos in combinations(range(n), y):
            axes = tuple("Y" if q in pos else "X" for q in range(n))
            by_axes[axes] = coeff
    return MerminPolynomial(n, _canonical_terms(by_axes), lr_bound_formula(n), float(2 ** (n - 1)))


def alsina_recursive(n: int) -> MerminPolynomial:
    """Build the polynomial by the two-setting recursion
    M_n = (1/2)[M_{n-1}(x_n + y_n) + M*_{n-1}(x_n - y_n)],  M_1 = x_1,
    where M* swaps X and Y everywhere.

    The raw recursion normalizes the LHV bound to 1; the result is rescaled by
    2**floor(n/2) so the bound matches lr_bound_formula(n).  This reproduces
    the customary presentations: identical to mermin_direct at n=3, per-class
    coefficients (-1,+1,+1,-1,-1) at n=4, and (-1,+1,-1) on Y=(0,2,4) at n=5
    (the conventional halving of the raw 5-qubit output is absorbed here).
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"need 1 <= n <= {MAX_QUBITS}, got {n}")
    terms: dict[tuple[str, ...], Fraction] = {("X",): Fraction(1)}
    for _ in range(n - 1):
        swapped = {tuple("Y" if a == "X" else "X" for a in ax): c for ax, c in terms.items()}
        grown: dict[tuple[str, ...], Fraction] = defaultdict(Fraction)
        for ax, c in terms.items():
            grown[ax + ("X",)] += c / 2
            grown[ax + ("Y",)] += c / 2
        for ax, c in swapped.items():
            grown[ax + ("X",)] += c / 2
            grown[ax + ("Y",)] -= c / 2
        terms = {ax: c for ax, c in grown.items() if c != 0}
    scale = Fraction(2 ** (n // 2))
    by_axes = {ax: c * scale for ax, c in terms.items()}
    if n % 2 == 0:
        qm = float(2 ** (n - 1)) * math.sqrt(2.0)
    else:
        qm = float(2 ** (n - 1))
    lr = 1.0 if n == 1 else lr_bound_formula(n)
    return MerminPolynomial(n, _canonical_terms(by_axes), lr, qm)


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
    groups: dict[int, list[Fraction]] = defaultdict(list)
    for coeff, s in p.terms:
        groups[s.y_count].append(coeff)
    classes = []
    for y in sorted(groups):
        coeffs = set(groups[y])
        if len(coeffs) != 1:
            raise ValueError(f"mixed coefficients {sorted(coeffs)} within Y={y} class")
        classes.append(SymmetryClass(y, coeffs.pop(), len(groups[y])))
    return classes


def eigencheck(p: MerminPolynomial, state: Statevector) -> float:
    """Eigenvalue of p on an eigenstate.

    Applies the polynomial term by term and verifies ||p|s> - lam|s>|| stays
    below CHECK_TOL, where lam = <s|p|s>.  Raises EigencheckError with
    the residual norm otherwise.
    """
    if state.n != p.n:
        raise ValueError(f"state has {state.n} qubits but polynomial has {p.n}")
    acc = np.zeros(state.dim, dtype=np.complex128)
    for coeff, s in p.terms:
        acc += float(coeff) * apply_pauli(state, s).amplitudes
    lam = float(np.real(np.vdot(state.amplitudes, acc)))
    residual = float(np.linalg.norm(acc - lam * state.amplitudes))
    if residual > CHECK_TOL:
        raise EigencheckError(residual)
    return lam
