"""Mermin polynomial construction, collapse, and eigenvalue checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import dense_pauli_matrix, random_symmetric_state, rational_alsina_terms
from merminsim import (
    EigencheckError,
    ExperimentConfig,
    ExperimentReport,
    MerminPolynomial,
    SymmetryClass,
    alsina_recursive,
    collapse,
    eigencheck,
    exact_expectation,
    ghz_state,
    init_zero,
    lr_bound_bruteforce,
    mermin_direct,
    primed,
    run_experiment,
)
from merminsim.polynomials import CHECK_TOL, ghz_coherence, optimal_ghz_phase
from merminsim.statevector import MAX_QUBITS

SQRT2 = float(np.sqrt(2.0))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_direct_construction_term_count_and_signs(n):
    poly = mermin_direct(n)
    assert len(poly.terms) == 2 ** (n - 1)
    for coeff, axes in poly.terms:
        assert axes.count("Y") % 2 == 1
        assert coeff == (-1) ** ((axes.count("Y") - 1) // 2)
    # Every odd-Y string appears exactly once.
    assert len({axes for _, axes in poly.terms}) == len(poly.terms)


def test_recursive_equals_direct_for_three_qubits():
    assert alsina_recursive(3).terms == mermin_direct(3).terms
    assert alsina_recursive(3).lr_bound == mermin_direct(3).lr_bound
    assert alsina_recursive(3).qm_value == mermin_direct(3).qm_value


def test_collapse_three_qubit_classes():
    classes = collapse(mermin_direct(3))
    assert classes == [
        SymmetryClass(1, 1, 3),
        SymmetryClass(3, -1, 1),
    ]


def test_collapse_four_qubit_recursive_classes():
    classes = collapse(alsina_recursive(4))
    assert classes == [
        SymmetryClass(0, -1, 1),
        SymmetryClass(1, 1, 4),
        SymmetryClass(2, 1, 6),
        SymmetryClass(3, -1, 4),
        SymmetryClass(4, -1, 1),
    ]
    # 16 terms total, one per axis string.
    assert len(alsina_recursive(4).terms) == 16


def test_collapse_five_qubit_classes():
    assert collapse(mermin_direct(5)) == [
        SymmetryClass(1, 1, 5),
        SymmetryClass(3, -1, 10),
        SymmetryClass(5, 1, 1),
    ]
    assert collapse(alsina_recursive(5)) == [
        SymmetryClass(0, -1, 1),
        SymmetryClass(2, 1, 10),
        SymmetryClass(4, -1, 5),
    ]


def test_primed_negates_coefficients_only():
    poly = alsina_recursive(4)
    flipped = primed(poly)
    assert flipped.lr_bound == poly.lr_bound
    assert flipped.qm_value == poly.qm_value
    for (c0, p0), (c1, p1) in zip(poly.terms, flipped.terms):
        assert p0 == p1
        assert c1 == -c0
    assert primed(flipped).terms == poly.terms


@pytest.mark.parametrize(
    "poly,phase,expected",
    [
        (mermin_direct(3), np.pi / 2, 4.0),
        (mermin_direct(4), np.pi / 2, 8.0),
        (alsina_recursive(4), 3 * np.pi / 4, 8 * SQRT2),
        (primed(alsina_recursive(4)), -np.pi / 4, 8 * SQRT2),
        (mermin_direct(5), np.pi / 2, 16.0),
        (alsina_recursive(5), np.pi, 16.0),
        (primed(alsina_recursive(5)), 0.0, 16.0),
    ],
    ids=["m3", "m4", "a4", "a4-primed", "m5", "a5", "a5-primed"],
)
def test_eigencheck_on_matching_ghz_state(poly, phase, expected):
    value = eigencheck(poly, ghz_state(poly.n, phase))
    np.testing.assert_allclose(value, expected, atol=1e-9)
    np.testing.assert_allclose(value, poly.qm_value, atol=1e-9)


def test_eigencheck_rejects_non_eigenstates():
    poly = mermin_direct(3)
    with pytest.raises(EigencheckError):
        eigencheck(poly, init_zero(3))
    with pytest.raises(EigencheckError) as info:
        eigencheck(poly, ghz_state(3, 0.0))
    assert info.value.residual > 1e-9


def test_collapse_rejects_mixed_coefficients_in_a_class():
    terms = (
        (1, "XXY"),
        (-1, "XYX"),
    )
    poly = MerminPolynomial(3, terms, lr_bound=2.0, qm_value=4.0)
    with pytest.raises(ValueError):
        collapse(poly)


def test_collapsed_and_expanded_sums_agree_on_symmetric_states():
    # The collapse shortcut is exact on permutation-symmetric states:
    # coefficient * multiplicity * <representative> summed over classes
    # equals the full term-by-term sum.
    rng = np.random.default_rng(400)
    polys = [mermin_direct(3), alsina_recursive(4), primed(alsina_recursive(5))]
    checked = 0
    for poly in polys:
        n = poly.n
        for _ in range(34):
            state = random_symmetric_state(n, rng)
            full = sum(
                float(c) * exact_expectation(state, p) for c, p in poly.terms
            )
            shortcut = sum(
                float(cls.coefficient)
                * cls.multiplicity
                * exact_expectation(
                    state, "X" * (n - cls.y_count) + "Y" * cls.y_count
                )
                for cls in collapse(poly)
            )
            np.testing.assert_allclose(shortcut, full, atol=1e-10)
            checked += 1
    assert checked >= 100


def test_polynomial_stores_each_term_as_a_tuple_pair():
    # A term given as a list pair used to be kept as a list: the copy was
    # unequal to its source and could not be hashed.
    p = mermin_direct(3)
    copy = MerminPolynomial(p.n, [list(t) for t in p.terms], p.lr_bound, p.qm_value)
    assert all(type(t) is tuple for t in copy.terms)
    assert copy == p and hash(copy) == hash(p)


@pytest.mark.parametrize(
    "second",
    ["XYZ", ("X", "X", "Y"), None, "xxy", "XY", "XXYX"],
    ids=["str", "tuple", "none", "lowercase", "short", "long"],
)
def test_polynomial_refuses_a_term_without_a_pauli_string(second):
    # A term pairs its coefficient with the str of its n axes, which
    # check_axes checks.
    with pytest.raises(ValueError, match="axes"):
        MerminPolynomial(3, [(1, second)], lr_bound=2.0, qm_value=1.0)


@pytest.mark.parametrize("terms", [None, 5, [None], [(1,)], [(1, "XXY", 1)]], ids=str)
def test_polynomial_refuses_terms_that_are_no_pairs(terms):
    with pytest.raises(ValueError):
        MerminPolynomial(3, terms, lr_bound=2.0, qm_value=4.0)


def test_polynomial_reads_int_bounds_and_numpy_n_as_plain_numbers():
    # An int |M[0,N]| kept as an int would write 4 where the reports write 4.0.
    # The refused n and bounds are cases of test_term_and_class_fields_are_checked.
    p = mermin_direct(3)
    q = MerminPolynomial(np.int64(3), p.terms, 2, 4)
    assert q == p and repr(q) == repr(p)
    assert (type(q.n), type(q.lr_bound), type(q.qm_value)) == (int, float, float)


def test_polynomial_serialization_round_trip():
    # Polynomials are stored only inside a report, so the round trip goes
    # through the report writer and reader; the reader takes the report
    # only if its stored polynomial is the one the report re-renders.
    cases = (
        (mermin_direct(3), 3, "mermin"),
        (alsina_recursive(4), 4, "al-mod"),
        (primed(alsina_recursive(5)), 5, "al"),
    )
    for poly, qubits, setup in cases:
        payload = run_experiment(ExperimentConfig(qubits=qubits, setup=setup)).to_dict()
        stored = payload["polynomial"]
        again = MerminPolynomial(
            stored["n"],
            tuple((t["coefficient"][0], t["axes"]) for t in stored["terms"]),
            stored["lr_bound"],
            stored["qm_value"],
        )
        assert again == poly
        # The schema-v1 [numerator, denominator] pair of an int coefficient.
        assert all(t["coefficient"][1] == 1 for t in stored["terms"])
        ExperimentReport.from_dict(payload)
        stored["terms"][0]["coefficient"][0] *= -1
        with pytest.raises(ValueError, match="field 'polynomial' is not what the report re-renders"):
            ExperimentReport.from_dict(payload)


def test_ghz_coherence_gives_every_builders_phase_and_bounds():
    # For every builder at n = 3..8: the GHZ state at the derived phase is an
    # eigenvector with the derived QM value as eigenvalue; that value is the
    # largest eigenvalue, as the dense operator has no non-zero entry but
    # M[0,N] and M[N,0]; it follows the parity rule, 2**(n-1), times sqrt(2)
    # for the even-n recursion; the closed-form LR bound is brute force's;
    # every coefficient is an int +-1; and the int recursion is the rational
    # one that halves at every step.
    builders = {
        "direct": mermin_direct,
        "recursive": alsina_recursive,
        "primed": lambda n: primed(alsina_recursive(n)),
    }
    for n in range(3, MAX_QUBITS + 1):
        for name, build in builders.items():
            poly = build(n)
            phase = optimal_ghz_phase(poly)
            assert abs(eigencheck(poly, ghz_state(n, phase)) - poly.qm_value) <= CHECK_TOL, (name, n)
            rule = float(2 ** (n - 1)) * (SQRT2 if name != "direct" and n % 2 == 0 else 1.0)
            assert poly.qm_value == rule, (name, n)
            dense = sum(float(c) * dense_pauli_matrix(s) for c, s in poly.terms)
            assert np.flatnonzero(dense).tolist() == [(1 << n) - 1, ((1 << n) - 1) << n], (name, n)
            assert dense[0, -1] == ghz_coherence(poly.terms), (name, n)
            assert abs(np.linalg.eigvalsh(dense)[-1] - poly.qm_value) <= CHECK_TOL, (name, n)
            assert lr_bound_bruteforce(poly) == poly.lr_bound, (name, n)
            assert all(type(c) is int and c in (-1, 1) for c, _ in poly.terms), (name, n)
        assert {s: c for c, s in alsina_recursive(n).terms} == rational_alsina_terms(n), n


@pytest.mark.parametrize("n", [1, 2])
def test_builders_reject_fewer_than_three_qubits(n):
    for build in (mermin_direct, alsina_recursive):
        with pytest.raises(ValueError, match="need 3 <= n"):
            build(n)


def test_optimal_ghz_phase_rejects_a_phase_off_the_pi_over_4_grid():
    # M[0,N] = 1 - 2i has an argument that is no multiple of pi/4.
    terms = ((1, "XXX"), (2, "XXY"))
    with pytest.raises(ValueError, match="not a multiple of pi/4"):
        optimal_ghz_phase(MerminPolynomial(3, terms, lr_bound=3.0, qm_value=math.sqrt(5.0)))
