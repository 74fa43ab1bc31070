"""Pauli string application and exact expectation values."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import dense_pauli_matrix, random_state, random_symmetric_state
from merminsim import apply_pauli, eigencheck, exact_expectation, ghz_state, mermin_direct
from merminsim.pauli import PARITY_SIGNS, check_axes
from merminsim.statevector import MAX_QUBITS


def test_check_axes_returns_valid_axes():
    for axes in ("X", "YXX", "XY" * (MAX_QUBITS // 2)):
        assert check_axes(axes) is axes
    assert check_axes("XXY", 3) == "XXY"


@pytest.mark.parametrize(
    "axes",
    ["", "XZ", "xy", "XY" * 4 + "X", ("X", "Y"), None],
    ids=["empty", "Z", "lowercase", "nine", "tuple", "None"],
)
def test_check_axes_refuses_invalid_axes(axes):
    with pytest.raises(ValueError):
        check_axes(axes)


def test_check_axes_refuses_another_factor_count():
    with pytest.raises(ValueError):
        check_axes("XXY", 4)


def test_y_mask_matches_bit_convention():
    # Qubit 0 is the most significant bit, so a Y on qubit 0 of three qubits
    # signs by bit 4 (y_mask 4) the basis index each amplitude lands on.
    for axes, y_mask in (("YXX", 4), ("XXY", 1), ("YYY", 7)):
        for j in range(8):
            expected = np.zeros(8, dtype=complex)
            expected[j ^ 7] = (-1j) ** axes.count("Y") * (-1) ** bin((j ^ 7) & y_mask).count("1")
            np.testing.assert_allclose(apply_pauli(np.eye(8)[j], axes), expected, atol=1e-15)


def test_parity_signs_are_minus_one_to_the_popcount():
    assert PARITY_SIGNS.shape == (256,) == (1 << MAX_QUBITS,)
    assert PARITY_SIGNS.dtype == np.float64 and not PARITY_SIGNS.flags.writeable
    for i in range(256):
        assert PARITY_SIGNS[i] == (-1) ** bin(i).count("1"), i


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_pauli_matches_dense_oracle(n):
    rng = np.random.default_rng(300 + n)
    for axes in map("".join, itertools.product("XY", repeat=n)):
        amp = random_state(n, rng)
        fast = apply_pauli(amp.copy(), axes)
        np.testing.assert_allclose(fast, dense_pauli_matrix(axes) @ amp, atol=1e-12)


def test_apply_pauli_is_involutive():
    rng = np.random.default_rng(310)
    for n in (2, 3, 5):
        for _ in range(20):
            axes = "".join(rng.choice(["X", "Y"], size=n))
            amp = random_state(n, rng)
            twice = apply_pauli(apply_pauli(amp.copy(), axes), axes)
            np.testing.assert_allclose(twice, amp, atol=1e-12)


def test_expectation_is_real_on_random_states():
    # Hermiticity: <s|P|s> has no imaginary part; exact_expectation
    # returns the real part, so check the raw inner product directly.
    rng = np.random.default_rng(320)
    cases = 0
    for n in (2, 3, 4, 5):
        for _ in range(30):
            axes = "".join(rng.choice(["X", "Y"], size=n))
            state = random_state(n, rng)
            raw = np.vdot(state, apply_pauli(state, axes))
            assert abs(raw.imag) < 1e-12
            cases += 1
    assert cases >= 100


def test_expectation_invariant_on_symmetric_states():
    # On a permutation-symmetric state every reordering of the same
    # multiset of axes gives the same expectation value.
    rng = np.random.default_rng(330)
    for n in (3, 4):
        state = random_symmetric_state(n, rng)
        for y in range(n + 1):
            base = "X" * (n - y) + "Y" * y
            values = {
                round(exact_expectation(state, "".join(perm)), 12)
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
        expected = np.cos(phase - axes.count("Y") * np.pi / 2)
        np.testing.assert_allclose(exact_expectation(state, axes), expected, atol=1e-10)


def test_ghz_closed_form_matches_dense_oracle():
    rng = np.random.default_rng(340)
    for n in (3, 4):
        phase = float(rng.uniform(-np.pi, np.pi))
        state = ghz_state(n, phase)
        for axes in map("".join, itertools.product("XY", repeat=n)):
            expected = np.vdot(state, dense_pauli_matrix(axes) @ state).real
            got = exact_expectation(state, axes)
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_apply_pauli_dimension_mismatch():
    state = ghz_state(3, 0.0)
    with pytest.raises(ValueError):
        apply_pauli(state, "XX")


@pytest.mark.parametrize(
    "state",
    [np.zeros(4), np.zeros(9), np.zeros(16), np.zeros((8, 1)), np.zeros((2, 2, 2)), 1.0],
    ids=["2q", "9", "4q", "column", "cube", "scalar"],
)
def test_state_functions_refuse_an_array_of_the_wrong_shape(state):
    # A state of three qubits is 8 amplitudes, nothing else.
    with pytest.raises(ValueError):
        apply_pauli(state, "XXY")
    with pytest.raises(ValueError):
        exact_expectation(state, "XXY")
    with pytest.raises(ValueError):
        eigencheck(mermin_direct(3), state)
