"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` for the verdict lines, which
bypass output capture so they always appear in the log.  Every check carries
its tolerance inline; the suite is self-contained and uses no network or
device access.
"""

from __future__ import annotations

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from merminsim import (
    ExperimentConfig,
    NoiseModel,
    all_setup_configs,
    alsina_recursive,
    collapse,
    eigencheck,
    exact_expectation,
    exchange_spread,
    ghz_circuit,
    ghz_state,
    lr_bound_bruteforce,
    lr_bound_formula,
    measurement_transform,
    mermin_direct,
    polynomial_estimate_expanded,
    primed,
    probabilities,
    render_report,
    round_error,
    run,
    run_exchange_test,
    run_experiment,
)
from merminsim.harness import _checked_setup, _plan_weights
from merminsim.sampling import checked_weights, draw_counts, parity_estimates

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def verdict(capsys):
    """One always-visible pass/fail line per criterion."""

    def emit(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\nacceptance {num}/9 {'PASS' if ok else 'FAIL'}: {detail}")

    return emit


def test_criterion_1_exact_quantum_values(verdict):
    # Eigencheck and direct expectation agree with the closed-form maxima
    # (4, 8*sqrt(2), 8, 16) on every setup, tolerance 1e-9, under a second.
    t0 = time.perf_counter()
    problems = []
    for config in all_setup_configs():
        state = ghz_state(config.n, config.ghz_phase)
        lam = eigencheck(config.polynomial, state)
        direct = sum(float(c) * exact_expectation(state, p) for c, p in config.polynomial.terms)
        expected = {3: 4.0, 4: 8 * SQRT2 if config.setup.value != "mermin" else 8.0, 5: 16.0}[
            config.n
        ]
        for got, label in ((lam, "eigencheck"), (direct, "direct")):
            if abs(got - expected) > 1e-9:
                problems.append(f"{config.n}q/{config.setup.value} {label}: {got!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"too slow: {elapsed:.2f} s")
    verdict(1, not problems, problems or f"nine setups at the quantum maxima, {elapsed:.3f} s")
    assert not problems


def test_criterion_2_lr_bounds(verdict):
    t0 = time.perf_counter()
    problems = []
    cases = [
        (mermin_direct(3), 2.0),
        (mermin_direct(4), 4.0),
        (alsina_recursive(4), 4.0),
        (primed(alsina_recursive(4)), 4.0),
        (mermin_direct(5), 4.0),
        (alsina_recursive(5), 4.0),
        (primed(alsina_recursive(5)), 4.0),
    ]
    for poly, expected in cases:
        got = lr_bound_bruteforce(poly)
        if got != expected:
            problems.append(f"{poly.n}q bound {got} != {expected}")
    for n in range(3, 8):
        if lr_bound_bruteforce(mermin_direct(n)) != lr_bound_formula(n):
            problems.append(f"n={n} brute force disagrees with formula")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"too slow: {elapsed:.2f} s")
    verdict(2, not problems, problems or f"exhaustive LHV search matches 2^(n//2), {elapsed:.3f} s")
    assert not problems


def test_criterion_3_eigenvalue_theorem(verdict):
    # M_n applied to GHZ(pi/2) returns 2^(n-1) times the state; eigencheck
    # itself enforces the vector residual <= 1e-9 and returns the eigenvalue.
    problems = []
    for n in (3, 4, 5):
        lam = eigencheck(mermin_direct(n), ghz_state(n, math.pi / 2))
        if abs(lam - 2 ** (n - 1)) > 1e-9:
            problems.append(f"n={n}: eigenvalue {lam!r}")
    verdict(3, not problems, problems or "GHZ eigenvalue 2^(n-1), residual <= 1e-9, n = 3, 4, 5")
    assert not problems


def test_criterion_4_shot_pipeline_fidelity(verdict):
    t0 = time.perf_counter()
    within = 0
    total = 0
    problems = []
    for seed, config in itertools.product(range(50), all_setup_configs()):
        report = run_experiment(ExperimentConfig(qubits=config.n, setup=config.setup, seed=seed))
        total += 1
        if abs(report.value - config.qm_value) <= 5 * report.error + 1e-12:
            within += 1
        if report.verdict != "VIOLATES_LR":
            problems.append(f"seed {seed} {config.n}q/{config.setup.value}: {report.verdict}")
    elapsed = time.perf_counter() - t0
    need = math.ceil(0.99 * total)
    if within < need:
        problems.append(f"only {within}/{total} runs within 5 standard errors")
    if elapsed >= 30.0:
        problems.append(f"too slow: {elapsed:.1f} s")
    verdict(
        4,
        not problems,
        problems or f"{within}/{total} noiseless runs within 5 SE, all violating, {elapsed:.1f} s",
    )
    assert not problems


def test_criterion_5_error_propagation(verdict):
    problems = []
    # (a) Per-term 0.007 propagates to sqrt(10)*0.007 ~ 0.0221 for the
    # three-qubit polynomial and displays as 0.02.
    published = {1: SimpleNamespace(value=0.847, error=0.007), 3: SimpleNamespace(value=-0.799, error=0.007)}
    _, error = polynomial_estimate_expanded(
        [(float(cl.coefficient) * cl.multiplicity, published[cl.y_count]) for cl in collapse(mermin_direct(3))]
    )
    if abs(error - 0.007 * math.sqrt(10)) > 1e-15:
        problems.append(f"propagated error {error!r}")
    if abs(round_error(error) - 0.02) > 1e-15:
        problems.append(f"rounded display {round_error(error)!r} != 0.02")
    # (b) The plug-in error tracks the real scatter within a factor of two.
    # Use a term whose expectation is not +-1 (XXXX on GHZ(4, -pi/4),
    # value sqrt(2)/2) so the outcome parity actually fluctuates.
    circuit = ghz_circuit(4, -math.pi / 4).then(measurement_transform("XXXX"))
    weights = checked_weights(probabilities(run(circuit)))
    values, errors = parity_estimates(draw_counts([(weights, s) for s in range(100)], 16384), 16384)
    empirical = float(np.std(values, ddof=1))
    reported = float(np.mean(errors))
    ratio = reported / empirical
    if not 0.5 <= ratio <= 2.0:
        problems.append(f"reported/empirical error ratio {ratio:.3f} outside [0.5, 2]")
    verdict(
        5,
        not problems,
        problems
        or f"delta<M_3> = 0.0221 -> 0.02; error ratio over 100 reseeds {ratio:.2f}",
    )
    assert not problems


def test_criterion_6_exchange_invariance(verdict):
    problems = []
    # (a) Exact expectations of the three single-Y permutations coincide.
    state = ghz_state(3, math.pi / 2)
    values = [
        exact_expectation(state, axes) for axes in ("XXY", "XYX", "YXX")
    ]
    for a, b in itertools.combinations(values, 2):
        if abs(a - b) > 1e-12:
            problems.append(f"exact permutation values differ: {values}")
            break
    # (b) Sampled spread stays at or below the per-term error scale over 50
    # seeds (one-sided: these terms have |<P>| = 1, so noiseless sampling
    # reproduces them exactly and the spread is identically zero).
    worst = 0.0
    for seed in range(50):
        single_y = [t for t in run_exchange_test(seed=seed).terms if t.y_count == 1]
        spread = exchange_spread([t.value for t in single_y])
        scale = float(np.mean([t.error for t in single_y]))
        worst = max(worst, spread / scale)
        if spread > 3.0 * scale:
            problems.append(f"seed {seed}: spread {spread} vs error scale {scale}")
    verdict(
        6,
        not problems,
        problems or f"permutations agree to 1e-12; spread/error <= {worst:.2f} over 50 seeds",
    )
    assert not problems


def test_criterion_7_noise_regime(verdict):
    # Symmetric depolarizing plus readout noise, swept over three strengths:
    # some setting lands the 50-seed mean of <M_3> inside the published
    # hardware range [2.5, 3.4], and stronger noise strictly degrades the
    # mean at five standard errors.
    problems = []
    levels = (0.01, 0.02, 0.03)
    means = []
    sems = []
    for p in levels:
        noise = NoiseModel(p1=p, p2=p, readout_flip=p)
        values = [
            run_experiment(
                ExperimentConfig(qubits=3, setup="mermin", seed=seed, noise=noise)
            ).value
            for seed in range(50)
        ]
        means.append(float(np.mean(values)))
        sems.append(float(np.std(values, ddof=1) / math.sqrt(len(values))))
    in_band = [2.5 <= m <= 3.4 for m in means]
    if not any(in_band):
        problems.append(f"no sweep point lands in [2.5, 3.4]: {means}")
    for i in range(len(levels) - 1):
        margin = 5 * math.hypot(sems[i], sems[i + 1])
        if not means[i] - means[i + 1] > margin:
            problems.append(f"mean at p={levels[i]} not above p={levels[i + 1]} by 5 sigma")
    detail = ", ".join(f"p={p}: {m:.3f}" for p, m in zip(levels, means))
    verdict(7, not problems, problems or f"{detail}; degradation monotone at 5 sigma")
    assert not problems


def test_criterion_8_genuine_fourparty_flag(verdict):
    problems = []
    clean = run_experiment(ExperimentConfig(qubits=4, setup="al", seed=0))
    if not (clean.value > 8.0 and clean.genuine_fourparty is True):
        problems.append(f"zero noise: value {clean.value:.3f}, flag {clean.genuine_fourparty}")
    noise = NoiseModel(p1=0.02, p2=0.02, readout_flip=0.02)
    values = []
    for seed in range(10):
        report = run_experiment(ExperimentConfig(qubits=4, setup="al", seed=seed, noise=noise))
        values.append(report.value)
        if report.genuine_fourparty is not False:
            problems.append(f"seed {seed}: flag still {report.genuine_fourparty}")
        if report.verdict != "VIOLATES_LR":
            problems.append(f"seed {seed}: verdict {report.verdict}")
    mean = float(np.mean(values))
    if not 4.0 < mean < 8.0:
        problems.append(f"noisy mean {mean:.3f} outside (4, 8)")
    # Exact value 8.081 at p = 0.0125: a value above 8 by less than 3 sigma certifies nothing.
    near_noise = NoiseModel(p1=0.0125, p2=0.0125, readout_flip=0.0125)
    near = run_experiment(ExperimentConfig(qubits=4, setup="al", seed=0, noise=near_noise))
    if not 8.0 < near.value <= 8.0 + 3.0 * near.error:
        problems.append(f"p=0.0125: value {near.value:.3f} +/- {near.error:.3f} not in (8, 8 + 3 sigma]")
    elif near.genuine_fourparty is not False:
        problems.append(f"p=0.0125: value {near.value:.3f} within 3 sigma of 8, flag {near.genuine_fourparty}")
    verdict(
        8,
        not problems,
        problems
        or f"clean {clean.value:.3f} flagged; at p=0.02 mean {mean:.3f} clears flag, still violates; "
        f"{near.value:.3f} +/- {near.error:.3f} at p=0.0125 is within 3 sigma of 8, not flagged",
    )
    assert not problems


def test_criterion_9_deterministic_reports(verdict):
    problems = []
    configs = [
        ExperimentConfig(qubits=5, setup="al", seed=123),
        ExperimentConfig(qubits=3, setup="mermin", seed=7, noise=NoiseModel(0.01, 0.01, 0.01)),
    ]
    for cfg in configs:
        renders = [render_report(run_experiment(cfg), "json") for _ in range(2)]
        _checked_setup.cache_clear()
        _plan_weights.cache_clear()
        renders.append(render_report(run_experiment(cfg), "json"))
        if len(set(renders)) != 1:
            problems.append(f"{cfg.qubits}q/{cfg.setup.value}: reports differ across runs/memo")
    verdict(
        9,
        not problems,
        problems or "byte-identical JSON across repeat runs on a warm memo and a cold one",
    )
    assert not problems
