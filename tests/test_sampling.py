"""Shot sampling, count statistics, and the error-propagation chain."""

from __future__ import annotations

import hashlib
import math
import sys
import threading
import warnings
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from conftest import string_keyed_expectation
from merminsim import (
    TermEstimate,
    collapse,
    exchange_spread,
    mermin_direct,
    polynomial_estimate_expanded,
    round_error,
)
from merminsim.sampling import (
    checked_weights,
    derive_seeds,
    draw_counts,
    generator_state,
    parity_estimates,
    seed_label,
)


class _Measured(NamedTuple):
    """A measurement as ``polynomial_estimate_expanded`` reads one."""

    value: float
    error: float


def _draw(probs, shots, seed) -> np.ndarray:
    """One measured circuit: the one row ``draw_counts`` draws from the
    checked distribution."""
    return draw_counts([(checked_weights(probs), seed)], shots)[0]


def _estimate(counts) -> tuple[float, float]:
    """``parity_estimates`` of a one-row count matrix."""
    counts = np.array([counts], dtype=np.int64)
    values, errors = parity_estimates(counts, int(counts.sum()))
    return values[0], errors[0]


def test_point_mass_sampling():
    probs = np.zeros(8)
    probs[0] = 1.0
    counts = _draw(probs, 100, seed=0)
    assert counts.tolist() == [100, 0, 0, 0, 0, 0, 0, 0]
    assert counts.dtype == np.int64


def test_sampling_is_deterministic_per_seed():
    probs = np.full(4, 0.25)
    a = _draw(probs, 4096, seed=9)
    b = _draw(probs, 4096, seed=9)
    c = _draw(probs, 4096, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_binomial_concentration():
    # Fair coin at N = 16384: both counts within 5*sqrt(N/4) = 320 of N/2.
    counts = _draw(np.array([0.5, 0.5]), 16384, seed=123)
    for c in counts:
        assert abs(c - 8192) <= 320


def test_draw_counts_rejects_bad_distributions():
    with pytest.raises(ValueError):
        _draw(np.array([0.5, 0.6]), 16, seed=0)
    with pytest.raises(ValueError):
        _draw(np.array([1.5, -0.5]), 16, seed=0)
    with pytest.raises(ValueError):
        _draw(np.full(4, 0.25), 0, seed=0)


@pytest.mark.parametrize("shots", [1.5, True, 2**63, 0, "16"], ids=["float", "bool", "2**63", "zero", "str"])
def test_sample_shots_rejects_a_shot_count_outside_int64(shots):
    # 1.5 and True used to draw one shot, and 2**63 escaped as numpy's OverflowError.
    with pytest.raises(ValueError, match="shots"):
        _draw(np.full(4, 0.25), shots, seed=0)


def test_draw_counts_takes_numpy_integer_shots_up_to_int64():
    assert _draw(np.full(4, 0.25), np.int64(16), seed=0).sum() == 16
    assert _draw(np.array([1.0, 0.0]), 2**63 - 1, seed=0).tolist() == [2**63 - 1, 0]


@pytest.mark.parametrize(
    "probs",
    [[math.nan] * 8, [math.inf, -math.inf] + [0.0] * 6, [math.inf] + [0.0] * 7],
    ids=["nan", "inf-minus-inf", "inf"],
)
def test_sample_shots_rejects_non_finite_probabilities(probs):
    # nan passes both the sign and the sum check (every comparison with nan is
    # false); the check must come first, before inf - inf can warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            _draw(np.array(probs), 16, seed=0)


def test_checked_weights_are_a_read_only_copy_and_draw_like_their_distribution():
    # Checked weights draw the rows their distribution draws, and a row of a
    # batch is the row drawn alone.
    probs = np.array([0.5, -1e-13, 0.25, 0.25 + 1e-13])
    weights = checked_weights(probs)
    assert weights is not probs and probs.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 1.0
    assert weights[1] == 0.0 and np.array_equal(weights, np.clip(probs, 0.0, None) / probs.sum())
    for seed in (0, 1, 2**62):
        assert np.array_equal(draw_counts([(weights, seed)], 4096)[0], _draw(probs, 4096, seed))
    with pytest.raises(ValueError, match="shots must be >= 1"):
        draw_counts([(weights, 0)], 0)
    rows = draw_counts([(weights, 0), (weights, 1), (weights, 0)], 4096)
    assert rows.dtype == np.int64 and rows.shape == (3, 4)
    assert np.array_equal(rows[1], _draw(probs, 4096, 1))
    assert np.array_equal(rows[0], rows[2])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_expectation_matches_string_keyed_oracle_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(40):
        vector = rng.integers(0, 50, size=2**n)
        vector[rng.random(2**n) < 0.4] = 0  # zero bins, as sparse histograms have
        vector[rng.integers(2**n)] += 1
        assert _estimate(vector) == string_keyed_expectation(vector)


@pytest.mark.parametrize("shots", [1, 16384, 2**53, 2**53 + 1, 2**63 - 1], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batch_estimates_match_the_oracle_bit_for_bit(n, shots):
    # All rows of a count matrix in one pass.  Past 2**53 a count is no
    # longer exactly a float, so numpy's int64 quotient (both operands
    # rounded first) can differ from Python's count / shots.
    rng = np.random.default_rng(200 + n)
    rows = []
    for _ in range(60):
        weights = rng.dirichlet(np.ones(2**n))
        weights[rng.random(2**n) < 0.3] = 0.0  # zero bins
        weights[rng.integers(2**n)] += 0.5
        rows.append(rng.multinomial(shots, weights / weights.sum()))
    counts = np.array(rows, dtype=np.int64)
    assert (counts.sum(axis=1) == shots).all()
    values, errors = parity_estimates(counts, shots)
    for row, value, error in zip(rows, values, errors):
        assert (value, error) == string_keyed_expectation(row)


def test_expectation_from_balanced_ghz_counts():
    # Half the shots on 000 (parity +1), half on 111 (parity -1).
    value, error = _estimate([8192, 0, 0, 0, 0, 0, 0, 8192])
    assert value == 0.0
    per_outcome = math.sqrt(0.25 / 16384)
    assert per_outcome == 0.00390625
    np.testing.assert_allclose(error, math.sqrt(2) * per_outcome, atol=1e-15)


def test_expectation_from_point_mass_counts():
    assert _estimate([16384, 0, 0, 0]) == (1.0, 0.0)


def test_expectation_always_within_physical_range():
    rng = np.random.default_rng(600)
    for _ in range(50):
        probs = rng.dirichlet(np.ones(8))
        value, error = _estimate(_draw(probs, 512, seed=int(rng.integers(1 << 30))))
        assert -1.0 <= value <= 1.0
        assert error >= 0.0


def test_estimate_rejects_negative_error():
    # A report's terms are its estimates, and each refuses a negative error.
    with pytest.raises(ValueError, match="term error must lie in"):
        TermEstimate(1, "XXY", Fraction(1), 3, 0.5, -0.1, 0)


def test_term_estimate_rejects_a_negative_seed():
    # generator_state refuses a negative seed, so no draw could have used one.
    with pytest.raises(ValueError, match="term seed must be >= 0"):
        TermEstimate(1, "XXY", Fraction(1), 3, 0.5, 0.1, -1)


def _class_estimate(poly, estimates: dict[int, _Measured]) -> tuple[float, float]:
    """One estimate per symmetry class (keyed by its Y count), each weighted
    by coefficient * multiplicity, as a class-mode run combines them."""
    return polynomial_estimate_expanded(
        [(float(cl.coefficient) * cl.multiplicity, estimates[cl.y_count]) for cl in collapse(poly)]
    )


def test_three_qubit_polynomial_estimate_published_row():
    # Published three-qubit row: 3*(0.847) - (-0.799) = 3.34 with the
    # +-0.007 per-term column giving sqrt(10)*0.007 ~ 0.022, displayed 0.02.
    value, error = _class_estimate(mermin_direct(3), {1: _Measured(0.847, 0.007), 3: _Measured(-0.799, 0.007)})
    np.testing.assert_allclose(value, 3.340, atol=1e-12)
    np.testing.assert_allclose(error, 0.007 * math.sqrt(10), atol=1e-15)
    assert round_error(error) == pytest.approx(0.02, abs=1e-15)


def test_five_qubit_polynomial_estimate_published_row():
    # Published five-qubit row: 5*(0.711) + 10*(0.622) + 0.554 = 10.329.
    # The displayed +-0.08 stems from the unrounded per-term errors
    # (~0.00756); feeding back the rounded 0.008 display value gives 0.090.
    value, error = _class_estimate(
        mermin_direct(5),
        {1: _Measured(0.711, 0.008), 3: _Measured(-0.622, 0.008), 5: _Measured(0.554, 0.008)},
    )
    assert round(value, 2) == 10.33
    np.testing.assert_allclose(error, 0.008 * math.sqrt(126), atol=1e-15)
    # Per-term error for a uniform 16-outcome parity measurement at N=16384:
    true_per_term = math.sqrt(16 * (1 / 16) * (1 - 1 / 16) / 16384)
    assert round_error(true_per_term) == pytest.approx(0.008, abs=1e-15)
    assert round_error(true_per_term * math.sqrt(126)) == pytest.approx(0.08, abs=1e-15)


def test_polynomial_estimate_identity_on_single_class():
    cl = collapse(mermin_direct(3))[1]  # the Y=3 class, coefficient -1, multiplicity 1
    value, error = polynomial_estimate_expanded([(float(cl.coefficient) * cl.multiplicity, _Measured(0.7, 0.01))])
    np.testing.assert_allclose(value, -0.7, atol=1e-15)
    np.testing.assert_allclose(error, 0.01, atol=1e-15)


def test_expanded_estimate_uses_independent_errors():
    # Independent per-term measurements add in quadrature term by term:
    # four terms with unit coefficients give error 2*delta, while the
    # collapsed shortcut with multiplicity 4 gives 4*delta.
    parts = [(1.0, _Measured(0.9, 0.01)) for _ in range(4)]
    value, error = polynomial_estimate_expanded(parts)
    np.testing.assert_allclose(value, 3.6, atol=1e-12)
    np.testing.assert_allclose(error, 0.02, atol=1e-15)


def test_exchange_spread_published_rows():
    vigo = exchange_spread([0.826, 0.801, 0.812])
    essex = exchange_spread([0.690, 0.606, 0.618])
    # The Essex row reproduces the published 0.045 at display precision;
    # the Vigo row lands within one display unit of the published 0.012.
    assert round(essex, 3) == 0.045
    assert abs(vigo - 0.012) <= 0.001
    assert exchange_spread([0.5] * 3) == 0.0
    with pytest.raises(ValueError):
        exchange_spread([0.5])


@pytest.mark.parametrize(
    "raw,rounded",
    [
        (0.0221, 0.02),
        (0.0611, 0.06),
        (0.0413, 0.04),
        (0.0849, 0.08),
        (0.00731, 0.007),
        (0.00756, 0.008),
        (0.098, 0.1),
        (0.25, 0.3),
        (0.0, 0.0),
    ],
)
def test_round_error_first_significant_digit(raw, rounded):
    assert round_error(raw) == pytest.approx(rounded, abs=1e-15)


@pytest.mark.parametrize("exponent", range(-307, 308))
def test_round_error_writes_one_significant_digit(exponent):
    # leading * 10.0**exponent rounded twice: round_error(0.3) was 0.30000000000000004,
    # and 10.0**exponent is itself inexact from |exponent| = 23 on.
    for leading in range(1, 10):
        want = float(f"{leading}e{exponent}")
        for raw in (want, want * 1.04, want * 0.96):
            got = round_error(raw)
            assert got == want
            assert len(Decimal(repr(got)).normalize().as_tuple().digits) == 1, repr(got)


def test_round_error_rejects_negative():
    with pytest.raises(ValueError):
        round_error(-0.01)
    # Refused by the input check, not by a failed integer conversion inside.
    for bad in (math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="finite"):
            round_error(bad)
    # Subnormals overflowed or divided by zero inside; 1.7e308 rounds to 2e308.
    for bad in (3e-310, 5e-324, 1e-308):
        with pytest.raises(ValueError, match="subnormal"):
            round_error(bad)
    with pytest.raises(ValueError, match="inf"):
        round_error(1.7e308)


def _derive_seed(base, *parts) -> int:
    return derive_seeds(base, [seed_label(*parts)])[0]


def test_derive_seed_is_stable_and_context_sensitive():
    a = _derive_seed(7, "mermin", 3, "class", 1)
    assert a == _derive_seed(7, "mermin", 3, "class", 1)
    assert a != _derive_seed(7, "mermin", 3, "class", 3)
    assert a != _derive_seed(8, "mermin", 3, "class", 1)
    assert 0 <= a < 2**63
    # One call hashes the base seed once and gives each label the seed it gets alone.
    parts = [("mermin", 3, "class", 1), ("al", 4, "term", "XXYY"), ("exchange", 5, "XXXXY"), ()]
    for base in (7, -3, np.int64(2**62)):
        want = [_derive_seed(base, *p) for p in parts]
        assert derive_seeds(base, [seed_label(*p) for p in parts]) == want
    assert _derive_seed(0, "exchange", 3, "XXY") == int.from_bytes(
        hashlib.sha256("0\x1fexchange\x1f3\x1fXXY".encode()).digest()[:8], "little"
    ) >> 1


@pytest.mark.parametrize("base", [1.7, 1.0, True, "1", None], ids=["float", "integral-float", "bool", "str", "none"])
def test_derive_seed_refuses_a_base_seed_that_is_not_an_integer(base):
    # 1.7 and True used to derive the seeds of base seed 1.
    with pytest.raises(ValueError, match="seed must be an integer"):
        _derive_seed(base, "a")
    with pytest.raises(ValueError, match="seed must be an integer"):
        derive_seeds(base, [seed_label("a")])


def test_generator_state_is_one_pinned_sha256_of_the_seed():
    # The seed derived from config seed 0 and the labels ("exchange", 3, "XXY").
    seed = _derive_seed(0, "exchange", 3, "XXY")
    state = generator_state(seed)
    assert state == {
        "bit_generator": "PCG64",
        "state": {
            "state": 104349953742941461817421140146721016858,
            "inc": 17678195868074050505938100783191303501,
        },
        "has_uint32": 0,
        "uinteger": 0,
    }
    digest = hashlib.sha256(b"merminsim pcg64\x1f" + str(seed).encode()).digest()
    assert state["state"]["state"] == int.from_bytes(digest[:16], "little")
    assert state["state"]["inc"] == int.from_bytes(digest[16:], "little") | 1
    assert generator_state(np.int64(seed)) == state
    assert generator_state(2**200)["state"] != generator_state(0)["state"]


def test_a_row_depends_only_on_its_weights_and_seed():
    # One generator serves every row of a call; nothing it buffers or caches
    # (a spare uint32, the binomial constants of the last row) may leak into
    # the next row.
    rng = np.random.default_rng(700)
    for n in (1, 3, 5):
        draws = []
        for seed in (11, 2**62 + n, 0):
            weights = rng.dirichlet(np.ones(2**n))
            weights[rng.random(2**n) < 0.3] = 0.0
            weights[rng.integers(2**n)] += 0.5
            draws.append((checked_weights(weights / weights.sum()), seed))
        for shots in (1, 25, 16384):
            together = draw_counts(draws, shots)
            assert np.array_equal(together, draw_counts(draws, shots))
            for k, (weights, seed) in enumerate(draws):
                alone = draw_counts([(weights, seed)], shots)[0]
                assert np.array_equal(together[k], alone)
                moved = draw_counts(draws[k + 1 :] + [(weights, seed)] + draws[:k], shots)
                assert np.array_equal(moved[len(draws) - 1 - k], alone)


def test_a_negative_seed_is_refused():
    weights = checked_weights(np.full(4, 0.25))
    for draw in (
        lambda: draw_counts([(weights, 0), (weights, -1)], 16),
        lambda: draw_counts([(weights, -1)], 16),
        lambda: _draw(np.full(4, 0.25), 16, seed=-(2**63)),
        lambda: generator_state(-1),
    ):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            draw()


def _recipe_row(weights: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The README's recipe for a row, on a fresh PCG64."""
    digest = hashlib.sha256(b"merminsim pcg64\x1f" + str(seed).encode()).digest()
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(digest[:16], "little"), "inc": int.from_bytes(digest[16:], "little") | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.RandomState(bit_generator).multinomial(shots, weights)


def test_a_row_drawn_after_an_unrelated_call_is_the_recipes_row():
    # draw_counts reuses its thread's generator across calls; what an earlier
    # call drew (other weights, shots and seed) must not reach a later row.
    rng = np.random.default_rng(701)
    weights = [checked_weights(rng.dirichlet(np.ones(2**n))) for n in (1, 3, 5)]
    for k, w in enumerate(weights):
        for shots in (1, 25, 16384):
            draw_counts([(weights[k - 1], 2**62 + k), (weights[k - 1], 3)], 999 + shots)
            seed = 17 * k + shots
            assert np.array_equal(draw_counts([(w, seed)], shots)[0], _recipe_row(w, shots, seed))


def test_threads_draw_what_the_same_draws_give_serially():
    # Each thread has its own generator, so interleaved draws on four threads
    # give the matrices the same draws give one after another.
    rng = np.random.default_rng(702)
    jobs = [
        [(checked_weights(rng.dirichlet(np.ones(2**n))), int(s)) for s in rng.integers(0, 2**62, 6)]
        for n in (2, 3, 4, 5)
    ]
    serial = [draw_counts(job, 4096) for job in jobs]
    results: list[list[np.ndarray]] = [[] for _ in jobs]
    start = threading.Barrier(len(jobs))

    def work(k: int) -> None:
        start.wait(timeout=30)
        for _ in range(50):
            results[k].append(draw_counts(jobs[k], 4096))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(serial, results):
        assert len(got) == 50
        assert all(np.array_equal(matrix, want) for matrix in got)
