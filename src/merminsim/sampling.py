"""Shot counting, parity expectation estimates, and error propagation.

The per-outcome uncertainty is the plug-in binomial width
``dp = sqrt(p_hat (1 - p_hat) / N)``; a parity expectation inherits
``sqrt(sum dp^2)`` over outcomes, and a polynomial built from shared class
estimates inherits ``sqrt(sum (c_k * m_k)^2 d_k^2)`` because every one of the
``m_k`` permutation copies reuses the same measured number.

A run's histograms are one ``(circuits, 2**n)`` count matrix, drawn by
``draw_counts`` and estimated row by row in one pass by ``parity_estimates``.
"""

from __future__ import annotations

import hashlib
import math
import sys
import threading
from typing import Any, Iterable, Sequence

import numpy as np

from .pauli import PARITY_SIGNS
from .statevector import check_int, check_real


def check_shots(shots: object) -> int:
    """A shot count numpy's multinomial takes, an integer in [1, 2**63 - 1],
    as a plain int.  The legacy ``RandomState.multinomial`` that draws the
    counts reads it as a C ``long``, which is 64-bit on Linux and macOS but
    32-bit on Windows, so there a count above 2**31 - 1 fails inside
    numpy."""
    shots = check_int("shots", shots, 1)
    if shots > 2**63 - 1:
        raise ValueError(f"shots must be <= 2**63 - 1, got {shots}")
    return shots


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


# The start of the bytes a row's generator state is hashed from.  Every
# ``derive_seeds`` input starts with a decimal digit or "-", never with this.
_STATE_DOMAIN = b"merminsim pcg64\x1f"


# This thread's ``(PCG64, RandomState)`` pair, as ``_draw.pair``.  Every row sets
# the bit generator's whole state before it draws, so the pair carries nothing
# from one row to the next and one pair serves every call on its thread.
_draw = threading.local()


def generator_state(seed: int) -> dict:
    """The numpy ``PCG64`` state a row drawn with ``seed`` starts from.

    ``d = sha256(b"merminsim pcg64\\x1f" + str(seed).encode())``; the 128-bit
    state is ``d[:16]`` and the increment ``d[16:]`` with its low bit set,
    both read little endian, and no uint32 is buffered.  ``seed`` is any
    integer >= 0; a negative one raises ``ValueError``."""
    seed = check_int("seed", seed, 0)
    d = hashlib.sha256(_STATE_DOMAIN + str(seed).encode()).digest()
    state = {"state": int.from_bytes(d[:16], "little"), "inc": int.from_bytes(d[16:], "little") | 1}
    return {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}


def draw_counts(draws: Iterable[tuple[np.ndarray, int]], shots: int) -> np.ndarray:
    """The int64 count matrix of ``(weights, seed)`` draws: row k is one
    multinomial histogram of ``shots`` draws from ``checked_weights`` output,
    drawn by this thread's numpy ``RandomState``, whose ``PCG64`` is set to
    ``generator_state(seed)`` first, so a row depends only on its weights
    and seed, and identical seeds give identical rows.  ``RandomState``'s
    distributions are numpy's frozen legacy stream (NEP 19), so a numpy
    release should not move the rows.  ``shots`` must pass ``check_shots``.

    Each thread builds its generator on its first draw, so a process that
    draws nothing never imports ``numpy.random``, and no call builds one
    after that."""
    shots = check_shots(shots)
    try:
        bit_generator, generator = _draw.pair
    except AttributeError:
        bit_generator = np.random.PCG64(np.random.SeedSequence(0))
        generator = np.random.RandomState(bit_generator)
        _draw.pair = bit_generator, generator
    rows = []
    for weights, seed in draws:
        bit_generator.state = generator_state(seed)
        rows.append(generator.multinomial(shots, weights))
    return np.array(rows, dtype=np.int64)


def parity_estimates(counts: np.ndarray, shots: int) -> tuple[list[float], list[float]]:
    """The parity estimate sum_o p_hat(o) * (-1)**ones(o) of each row of a
    ``(rows, 2**n)`` count matrix whose rows each total ``shots`` (1 to
    2**63 - 1), with its plug-in binomial error: the values and the errors,
    as float lists.

    Bit for bit the loop ``value += sign * p_hat; var += p_hat * (1 - p_hat)
    / shots`` over a row's outcomes in index order, with ``p_hat`` Python's
    correctly rounded ``count / shots``.  Like CPython's int division, that
    quotient is a float division up to 2**53 shots (every count is then
    exactly a float) and an exact integer division past that.
    ``np.add.accumulate`` adds in the loop's order, where ``sum`` and
    ``ndarray.sum`` would not; it runs in place on the two term arrays, and
    ``math.sqrt`` rounds correctly, as ``np.sqrt`` does.  A zero bin, which
    the loop skips, adds +-0.0 here, which changes no partial sum: the first
    is bin 0's term, >= +0.0, so none is -0.0."""
    if shots <= 2**53:
        p_hat = counts / float(shots)
    else:
        p_hat = np.array([[c / shots for c in row] for row in counts.tolist()])
    spread = 1.0 - p_hat
    spread *= p_hat
    spread /= float(shots)
    p_hat *= PARITY_SIGNS[: p_hat.shape[1]]
    np.add.accumulate(p_hat, axis=1, out=p_hat)
    np.add.accumulate(spread, axis=1, out=spread)
    return p_hat[:, -1].tolist(), [math.sqrt(v) for v in spread[:, -1].tolist()]


def polynomial_estimate_expanded(parts: Iterable[tuple[float, Any]]) -> tuple[float, float]:
    """Combine independent measurements, each with its weight (a term's coefficient,
    or a class's coefficient * multiplicity), into ``(value, error)``: errors
    add in quadrature.  A measurement is anything with a ``value`` and an
    ``error``, such as a report's terms."""
    value = 0.0
    var = 0.0
    for coeff, est in parts:
        c = float(coeff)
        value += c * est.value
        var += c * c * est.error * est.error
    return value, math.sqrt(var)


def exchange_spread(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 divisor) of the values."""
    if len(values) < 2:
        raise ValueError("need at least two values")
    return float(np.std(values, ddof=1))


# 10.0**k for 0 <= k <= 22, each exact as a float (5**22 < 2**53).  One IEEE
# multiply or divide of exact operands is correctly rounded, so leading times
# or over one of these is the float nearest the decimal, what float() of its
# text returns.
_EXACT_POWERS_OF_TEN = tuple(float(10**k) for k in range(23))


def round_error(error: float) -> float:
    """Round an uncertainty to its first significant decimal digit (ties up):
    0.0221 -> 0.02, 0.0076 -> 0.008, 0.098 -> 0.1.  The result is the float
    nearest that one-digit decimal, so its repr has one significant digit
    (0.3, never 0.30000000000000004).  A negative, non-finite or subnormal
    error, or one that rounds to inf, raises ``ValueError``."""
    error = check_real("error", error, 0.0)
    if error == 0.0:
        return 0.0
    if error < sys.float_info.min:
        raise ValueError(f"error must not be subnormal, got {error!r}")
    exponent = math.floor(math.log10(error))
    leading = math.floor(error / (10.0**exponent) + 0.5)
    if leading >= 10:
        leading = 1
        exponent += 1
    if abs(exponent) < len(_EXACT_POWERS_OF_TEN):
        scale = _EXACT_POWERS_OF_TEN[abs(exponent)]
        rounded = leading * scale if exponent >= 0 else leading / scale
    else:
        rounded = float(f"{leading}e{exponent}")
    if rounded == math.inf:
        raise ValueError(f"error {error!r} rounds to inf")
    return rounded


def seed_label(*parts: object) -> bytes:
    """The context labels of a derived seed, encoded once for
    ``derive_seeds``: each part as ``"\x1f" + str(part)``, in UTF-8."""
    return "".join("\x1f" + str(p) for p in parts).encode()


def derive_seeds(base_seed: int, labels: Iterable[bytes]) -> list[int]:
    """One sub-seed per ``seed_label`` label: the first 8 bytes (little
    endian, shifted right by one) of sha256 over ``str(base_seed)`` and the
    label.  The base seed, any integer (``check_int``), is hashed once for
    all labels."""
    base = hashlib.sha256(str(check_int("seed", base_seed)).encode())
    seeds = []
    for label in labels:
        h = base.copy()
        h.update(label)
        seeds.append(int.from_bytes(h.digest()[:8], "little") >> 1)
    return seeds
