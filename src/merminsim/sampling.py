"""Shot counting, parity expectation estimates, and error propagation.

The per-outcome uncertainty is the plug-in binomial width
``dp = sqrt(p_hat (1 - p_hat) / N)``; a parity expectation inherits
``sqrt(sum dp^2)`` over outcomes, and a polynomial built from shared class
estimates inherits ``sqrt(sum (c_k * m_k)^2 d_k^2)`` because every one of the
``m_k`` permutation copies reuses the same measured number.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .pauli import mask_parity
from .statevector import MAX_QUBITS

# (-1)**popcount(i) for every outcome index i of up to MAX_QUBITS bits.
_PARITY_SIGNS = (1 - 2 * mask_parity(np.arange(1 << MAX_QUBITS), (1 << MAX_QUBITS) - 1)).tolist()


@dataclass(frozen=True)
class Estimate:
    """A measured value with its one-sigma uncertainty."""

    value: float
    error: float

    def __post_init__(self) -> None:
        if self.error < 0:
            raise ValueError(f"error must be >= 0, got {self.error}")


def check_int(name: str, value: object, minimum: int | None = None) -> int:
    """``value`` as a plain int; bools and floats (even integral ones) are
    rejected, numpy integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(name: str, value: object, minimum: float, maximum: float = math.inf) -> float:
    """``value`` as a plain float in [minimum, maximum]; bools, strings, nan and inf are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if not minimum <= value <= maximum:
        raise ValueError(f"{name} must lie in [{minimum}, {maximum}], got {value}")
    return float(value)


@dataclass(frozen=True)
class ShotCounts:
    """Outcome histogram of one measured circuit: ``vector[i]`` shots gave
    outcome ``i``, read MSB-first (qubit 0 is the leftmost bit)."""

    n: int
    vector: tuple[int, ...]

    def __post_init__(self) -> None:
        # n <= MAX_QUBITS also keeps every outcome inside _PARITY_SIGNS.
        if not 0 <= self.n <= MAX_QUBITS or len(self.vector) != 1 << self.n:
            raise ValueError(f"need 2**n counts, n <= {MAX_QUBITS}; got n={self.n}, {len(self.vector)}")
        if min(self.vector) < 0:
            raise ValueError("negative count")

    @property
    def total(self) -> int:
        return sum(self.vector)


def checked_weights(probs: np.ndarray) -> np.ndarray:
    """The multinomial weights of an outcome distribution, as a new read-only
    array: ``probs`` must be finite, of power-of-two length, nowhere below
    -1e-12 and sum to 1 within 1e-9; rounding negatives are clipped to 0 and
    the vector is divided by its sum."""
    probs = np.asarray(probs, dtype=float)
    # Before any arithmetic: nan passes both comparisons below, and inf - inf warns.
    if not np.isfinite(probs).all():
        raise ValueError("non-finite probability")
    if np.any(probs < -1e-12):
        raise ValueError("negative probability")
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    n = int(round(math.log2(probs.size)))
    if 1 << n != probs.size:
        raise ValueError(f"probability vector length {probs.size} is not a power of two")
    weights = np.clip(probs, 0.0, None) / total
    weights.setflags(write=False)
    return weights


def draw_shots(weights: np.ndarray, shots: int, seed: int) -> ShotCounts:
    """One multinomial histogram of ``shots`` draws from ``checked_weights``
    output; identical seeds give identical counts."""
    if shots < 1:
        raise ValueError(f"need at least one shot, got {shots}")
    vec = np.random.default_rng(seed).multinomial(shots, weights)
    return ShotCounts(weights.size.bit_length() - 1, tuple(vec.tolist()))


def sample_shots(probs: np.ndarray, shots: int, seed: int) -> ShotCounts:
    """Draw a multinomial outcome histogram from a checked outcome distribution;
    identical seeds give identical counts."""
    return draw_shots(checked_weights(probs), shots, seed)


def expectation_from_counts(counts: ShotCounts) -> Estimate:
    """Parity estimator sum_o p_hat(o) * (-1)**ones(o) with plug-in binomial error."""
    total = counts.total
    value = 0.0
    var = 0.0
    for c, sign in zip(counts.vector, _PARITY_SIGNS):
        if c:
            p_hat = c / total
            value += sign * p_hat
            var += p_hat * (1.0 - p_hat) / total
    return Estimate(value, math.sqrt(var))


def polynomial_estimate_expanded(
    parts: Sequence[tuple[Fraction | float, Estimate]],
) -> Estimate:
    """Combine independent measurements, each with its weight (a term's coefficient,
    or a class's coefficient * multiplicity): errors add in quadrature."""
    value = 0.0
    var = 0.0
    for coeff, est in parts:
        c = float(coeff)
        value += c * est.value
        var += c * c * est.error * est.error
    return Estimate(value, math.sqrt(var))


def exchange_spread(estimates: Sequence[Estimate]) -> float:
    """Sample standard deviation (n-1 divisor) of the estimate values."""
    if len(estimates) < 2:
        raise ValueError("need at least two estimates")
    return float(np.std([e.value for e in estimates], ddof=1))


def round_error(error: float) -> float:
    """Round an uncertainty to its first significant decimal digit (ties up):
    0.0221 -> 0.02, 0.0076 -> 0.008, 0.098 -> 0.1."""
    if error < 0:
        raise ValueError(f"error must be >= 0, got {error}")
    if error == 0.0:
        return 0.0
    exponent = math.floor(math.log10(error))
    leading = math.floor(error / (10.0**exponent) + 0.5)
    if leading >= 10:
        leading = 1
        exponent += 1
    return leading * (10.0**exponent)


def derive_seed(base_seed: int, *parts: object) -> int:
    """Stable per-task sub-seed: hash the base seed with context labels.

    Independent of PYTHONHASHSEED and platform so reports reproduce exactly.
    """
    payload = "\x1f".join([str(int(base_seed)), *[str(p) for p in parts]]).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") >> 1
