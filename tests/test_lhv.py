"""Brute-force local-realism and hybrid-model bounds against the closed-form
values and the genuine n-party claims they derive."""

from __future__ import annotations

import pytest

from merminsim import (
    all_setup_configs,
    alsina_recursive,
    lr_bound_bruteforce,
    lr_bound_formula,
    mermin_direct,
    primed,
    setup_config,
)
from merminsim.harness import _checked_setup


@pytest.mark.parametrize("n,expected", [(2, 2.0), (3, 2.0), (4, 4.0), (5, 4.0), (6, 8.0), (7, 8.0)])
def test_formula_values(n, expected):
    assert lr_bound_formula(n) == expected


def test_formula_rejects_single_qubit():
    with pytest.raises(ValueError):
        lr_bound_formula(1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_bruteforce_matches_formula_exactly(n):
    # Exhaustive search over deterministic local strategies; the optimum
    # must be the closed-form bound with no floating slack.
    assert lr_bound_bruteforce(mermin_direct(n)) == lr_bound_formula(n)


@pytest.mark.parametrize(
    "poly,expected",
    [
        (mermin_direct(3), 2.0),
        (alsina_recursive(4), 4.0),
        (primed(alsina_recursive(4)), 4.0),
        (mermin_direct(5), 4.0),
        (alsina_recursive(5), 4.0),
        (primed(alsina_recursive(5)), 4.0),
    ],
    ids=["m3", "a4", "a4-primed", "m5", "a5", "a5-primed"],
)
def test_bruteforce_known_bounds(poly, expected):
    assert lr_bound_bruteforce(poly) == expected


def test_negation_symmetry():
    # Flipping every sigma_y outcome maps the assignment set onto itself,
    # so the primed polynomial has the same optimum.
    for poly in (mermin_direct(3), alsina_recursive(4), mermin_direct(5)):
        assert lr_bound_bruteforce(primed(poly)) == lr_bound_bruteforce(poly)


def test_stored_bounds_match_bruteforce_for_all_setups():
    for config in all_setup_configs():
        assert lr_bound_bruteforce(config.polynomial) == config.lr_bound


def test_quantum_to_classical_gap_is_at_least_two():
    for config in all_setup_configs():
        assert config.qm_value / config.lr_bound >= 2.0 - 1e-12


# Bounds over hybrid models whose groups hold at most k = 1 .. n - 1 qubits.
HYBRID_BOUNDS = {
    3: [2.0, 4.0],
    4: [4.0, 8.0, 8.0],
    5: [4.0, 8.0, 16.0, 16.0],
}


@pytest.mark.parametrize("config", all_setup_configs(), ids=lambda sc: f"{sc.n}q-{sc.setup.value}")
def test_hybrid_bounds_for_every_k(config):
    n, p = config.n, config.polynomial
    assert [lr_bound_bruteforce(p, k) for k in range(1, n)] == HYBRID_BOUNDS[n]
    # One group of every qubit reaches the sum of the coefficients' magnitudes.
    assert lr_bound_bruteforce(p, n) == sum(abs(c) for c, _ in p.terms)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("build", [alsina_recursive, lambda n: primed(alsina_recursive(n))], ids=["a", "a-primed"])
def test_recursive_builders_match_formula_exactly(build, n):
    # With test_bruteforce_matches_formula_exactly (mermin_direct), every
    # builder's k = 1 bound is the closed form at n = 3..8.
    assert lr_bound_bruteforce(build(n), 1) == lr_bound_formula(n)


def test_genuine_claim_cells_are_derived():
    # A cell claims genuine n-party nonlocality iff its k = n - 1 bound lies
    # below the QM value: 4q al and al-mod only, at 8, between their LR bound
    # and QM value.  The markdown prints the bound, so it is a plain float.
    claims = {}
    for sc in all_setup_configs():
        bound = _checked_setup(sc.n, sc.setup).genuine_bound
        if bound is not None:
            assert type(bound) is float and sc.lr_bound < bound < sc.qm_value
            claims[(sc.n, sc.setup.value)] = bound
    assert claims == {(4, "al"): 8.0, (4, "al-mod"): 8.0}


@pytest.mark.parametrize("k", [0, -1, 4, 1.0, 2.5, "2", True, None])
def test_group_size_outside_one_to_n_is_refused(k):
    with pytest.raises(ValueError):
        lr_bound_bruteforce(mermin_direct(3), k)


def _estimator_lhv_max(n: int, setup: str, expanded: bool) -> float:
    """The LHV maximum of what a run estimates: its plan's terms, each
    weighted by coefficient * multiplicity, as one polynomial."""
    sc = setup_config(n, setup)
    stated = _checked_setup(n, sc.setup).modes[expanded].stated
    terms = tuple((c * m, s) for _, s, c, m in stated)
    return lr_bound_bruteforce(sc.polynomial._replace(terms=terms))


@pytest.mark.parametrize(
    "n,setup,lr,class_max",
    [
        (3, "mermin", 2.0, 4.0),
        (3, "al", 2.0, 4.0),
        (3, "al-mod", 2.0, 4.0),
        (4, "mermin", 4.0, 8.0),
        (4, "al", 4.0, 16.0),
        (4, "al-mod", 4.0, 16.0),
        (5, "mermin", 4.0, 16.0),
        (5, "al", 4.0, 16.0),
        (5, "al-mod", 4.0, 16.0),
    ],
)
def test_class_mode_estimator_exceeds_the_lr_bound_under_local_realism(n, setup, lr, class_max):
    # A class-mode run measures one member per class and scales it by the
    # class size, which equals the polynomial only if every member shares one
    # expectation (exchange symmetry).  A local hidden-variable model need
    # not, so the class-mode estimator reaches past the LR bound (at 4q al,
    # past the four-party bound too); the expanded estimator is the
    # polynomial, a Bell test whose LHV maximum is the LR bound.
    assert setup_config(n, setup).lr_bound == lr
    assert _estimator_lhv_max(n, setup, expanded=False) == class_max
    assert _estimator_lhv_max(n, setup, expanded=True) == lr
