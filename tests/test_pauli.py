"""Pauli string application and exact expectation values."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import dense_pauli_matrix, random_state, random_symmetric_state
from merminsim import PauliString, apply_pauli, exact_expectation, ghz_state
from merminsim.pauli import PARITY_SIGNS
from merminsim.statevector import MAX_QUBITS, Statevector


def test_from_str_parses_axes():
    p = PauliString.from_str("YXX")
    assert p.axes == ("Y", "X", "X")
    assert p.n == 3
    assert p.y_count == 1
    assert str(p) == "YXX"


def test_from_str_rejects_other_letters():
    with pytest.raises(ValueError):
        PauliString.from_str("XZY")
    with pytest.raises(ValueError):
        PauliString.from_str("")


def test_y_mask_matches_bit_convention():
    # Qubit 0 is the most significant bit, so a Y on qubit 0 of three
    # qubits sets bit 4.
    assert PauliString.from_str("YXX").y_mask == 4
    assert PauliString.from_str("XXY").y_mask == 1
    assert PauliString.from_str("YYY").y_mask == 7


def test_parity_signs_are_minus_one_to_the_popcount():
    assert PARITY_SIGNS.shape == (256,) == (1 << MAX_QUBITS,)
    assert PARITY_SIGNS.dtype == np.float64 and not PARITY_SIGNS.flags.writeable
    for i in range(256):
        assert PARITY_SIGNS[i] == (-1) ** bin(i).count("1"), i


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_pauli_matches_dense_oracle(n):
    rng = np.random.default_rng(300 + n)
    for axes in itertools.product("XY", repeat=n):
        p = PauliString(axes)
        dense = dense_pauli_matrix("".join(axes))
        amp = random_state(n, rng)
        fast = apply_pauli(Statevector(n, amp.copy()), p).amplitudes
        np.testing.assert_allclose(fast, dense @ amp, atol=1e-12)


def test_apply_pauli_is_involutive():
    rng = np.random.default_rng(310)
    for n in (2, 3, 5):
        for _ in range(20):
            axes = tuple(rng.choice(["X", "Y"], size=n))
            p = PauliString(axes)
            amp = random_state(n, rng)
            twice = apply_pauli(apply_pauli(Statevector(n, amp.copy()), p), p)
            np.testing.assert_allclose(twice.amplitudes, amp, atol=1e-12)


def test_expectation_is_real_on_random_states():
    # Hermiticity: <s|P|s> has no imaginary part; exact_expectation
    # returns the real part, so check the raw inner product directly.
    rng = np.random.default_rng(320)
    cases = 0
    for n in (2, 3, 4, 5):
        for _ in range(30):
            axes = tuple(rng.choice(["X", "Y"], size=n))
            state = Statevector(n, random_state(n, rng))
            applied = apply_pauli(state, PauliString(axes))
            raw = np.vdot(state.amplitudes, applied.amplitudes)
            assert abs(raw.imag) < 1e-12
            cases += 1
    assert cases >= 100


def test_expectation_invariant_on_symmetric_states():
    # On a permutation-symmetric state every reordering of the same
    # multiset of axes gives the same expectation value.
    rng = np.random.default_rng(330)
    for n in (3, 4):
        state = Statevector(n, random_symmetric_state(n, rng))
        for y in range(n + 1):
            base = "X" * (n - y) + "Y" * y
            values = {
                round(exact_expectation(state, PauliString(perm)), 12)
                for perm in set(itertools.permutations(base))
            }
            assert len(values) == 1


@pytest.mark.parametrize(
    "phase", [0.0, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2, 3 * np.pi / 4, np.pi]
)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ghz_expectation_closed_form(n, phase):
    # <GHZ(phase)| P |GHZ(phase)> = cos(phase - Y*pi/2) for any string of
    # sigma_x / sigma_y factors with Y of them equal to sigma_y.
    state = ghz_state(n, phase)
    rng = np.random.default_rng(n * 17 + 1)
    strings = [
        "X" * n,
        "Y" * n,
        "X" * (n - 1) + "Y",
        "Y" + "X" * (n - 1),
    ]
    strings += ["".join(rng.choice(["X", "Y"], size=n)) for _ in range(6)]
    for axes in strings:
        p = PauliString.from_str(axes)
        expected = np.cos(phase - p.y_count * np.pi / 2)
        np.testing.assert_allclose(exact_expectation(state, p), expected, atol=1e-10)


def test_ghz_closed_form_matches_dense_oracle():
    rng = np.random.default_rng(340)
    for n in (3, 4):
        phase = float(rng.uniform(-np.pi, np.pi))
        state = ghz_state(n, phase)
        for axes in itertools.product("XY", repeat=n):
            dense = dense_pauli_matrix("".join(axes))
            expected = np.vdot(state.amplitudes, dense @ state.amplitudes).real
            got = exact_expectation(state, PauliString(axes))
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_apply_pauli_dimension_mismatch():
    state = ghz_state(3, 0.0)
    with pytest.raises(ValueError):
        apply_pauli(state, PauliString.from_str("XX"))
