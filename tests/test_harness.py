"""End-to-end experiment runs, report schema, rendering, and determinism."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from merminsim import (
    ExperimentConfig,
    ExperimentReport,
    NoiseModel,
    Setup,
    all_setup_configs,
    render_exchange_report,
    render_report,
    run_exchange_test,
    run_experiment,
    verify_invariants,
)


@pytest.mark.parametrize("config", all_setup_configs(), ids=lambda c: f"{c.n}q-{c.setup.value}")
def test_noiseless_run_reproduces_quantum_value(config):
    report = run_experiment(ExperimentConfig(qubits=config.n, setup=config.setup, seed=1))
    assert report.lr_bound == config.lr_bound
    np.testing.assert_allclose(report.qm_value, config.qm_value, atol=1e-9)
    assert abs(report.value - report.qm_value) <= 5 * report.error + 1e-12
    assert report.verdict == "VIOLATES_LR"
    assert report.error > 0.0


def test_report_value_is_weighted_term_sum():
    report = run_experiment(ExperimentConfig(qubits=4, setup="al", seed=3))
    recombined = sum(float(t.coefficient) * t.multiplicity * t.value for t in report.terms)
    np.testing.assert_allclose(report.value, recombined, atol=1e-12)


def test_genuine_fourparty_flag_scope():
    # The hybrid-model threshold only applies to the two four-qubit
    # recursion setups; everything else reports no flag at all.
    assert run_experiment(ExperimentConfig(qubits=3, setup="mermin")).genuine_fourparty is None
    assert run_experiment(ExperimentConfig(qubits=4, setup="mermin")).genuine_fourparty is None
    assert run_experiment(ExperimentConfig(qubits=5, setup="al")).genuine_fourparty is None
    report = run_experiment(ExperimentConfig(qubits=4, setup="al"))
    assert report.genuine_fourparty is True


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(qubits=6, setup="mermin")
    with pytest.raises(ValueError):
        ExperimentConfig(qubits=3, setup="mermin", shots=0)
    with pytest.raises(ValueError):
        ExperimentConfig(qubits=3, setup="mermin", violation_sigmas=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(qubits=3, setup="nope")


@pytest.mark.parametrize("sigmas", [float("nan"), float("inf")])
def test_config_rejects_non_finite_violation_sigmas(sigmas):
    # nan fails every comparison, so a sign check alone would let it through.
    with pytest.raises(ValueError, match="violation_sigmas"):
        ExperimentConfig(qubits=3, setup="mermin", violation_sigmas=sigmas)


@pytest.mark.parametrize("shots", [True, 2.5, 16384.0, "16384"])
def test_config_rejects_non_integral_or_bool_shots(shots):
    with pytest.raises(ValueError, match="shots"):
        ExperimentConfig(qubits=3, setup="mermin", shots=shots)
    with pytest.raises(ValueError, match="shots"):
        run_exchange_test(shots=shots)
    cfg = ExperimentConfig(qubits=3, setup="mermin", shots=np.int64(2048))
    assert type(cfg.shots) is int


@pytest.mark.parametrize("workers", [0, -1])
def test_run_experiment_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers"):
        run_experiment(ExperimentConfig(qubits=3, setup="mermin"), workers=workers)


def test_json_render_rejects_non_finite_numbers():
    report = run_experiment(ExperimentConfig(qubits=3, setup="mermin"))
    with pytest.raises(ValueError):
        render_report(dataclasses.replace(report, value=float("nan")), "json")


def test_config_round_trip_and_string_setup_coercion():
    cfg = ExperimentConfig(qubits=4, setup="al-mod", shots=2048, seed=5, noise=NoiseModel(0.01))
    assert cfg.setup is Setup.AL_MODIFIED
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_report_dict_and_json_round_trip():
    report = run_experiment(ExperimentConfig(qubits=4, setup="al", seed=11))
    again = ExperimentReport.from_dict(report.to_dict())
    assert again == report
    via_json = ExperimentReport.from_dict(json.loads(render_report(report, "json")))
    assert via_json == report


def test_report_rejects_unknown_schema_version():
    report = run_experiment(ExperimentConfig(qubits=3, setup="mermin"))
    payload = report.to_dict()
    payload["schema_version"] = 99
    with pytest.raises(ValueError):
        ExperimentReport.from_dict(payload)


def test_json_report_is_byte_identical_across_runs_and_workers():
    cfg = ExperimentConfig(qubits=5, setup="al", seed=42)
    first = render_report(run_experiment(cfg), "json")
    second = render_report(run_experiment(cfg), "json")
    parallel = render_report(run_experiment(cfg, workers=4), "json")
    assert first == second
    assert first == parallel


def test_seed_changes_sampled_estimates():
    noisy = NoiseModel(p1=0.01, p2=0.01)
    a = run_experiment(ExperimentConfig(qubits=3, setup="mermin", seed=1, noise=noisy))
    b = run_experiment(ExperimentConfig(qubits=3, setup="mermin", seed=2, noise=noisy))
    assert a.value != b.value
    # Per-class circuits get distinct derived seeds inside one run.
    assert len({t.seed for t in a.terms}) == len(a.terms)


def test_expanded_run_measures_every_permutation():
    cfg = ExperimentConfig(qubits=3, setup="mermin", seed=7, expand_permutations=True)
    report = run_experiment(cfg)
    assert len(report.terms) == 4  # 2**(n-1) individual strings
    assert {t.axes for t in report.terms} == {"XXY", "XYX", "YXX", "YYY"}
    assert abs(report.value - report.qm_value) <= 5 * report.error + 1e-12


def test_csv_report_layout():
    report = run_experiment(ExperimentConfig(qubits=3, setup="mermin", seed=2))
    lines = render_report(report, "csv").strip().split("\n")
    assert lines[0] == "row,y_count,axes,coefficient,multiplicity,value,error,error_rounded"
    assert len(lines) == 1 + len(report.terms) + 1
    assert lines[1].startswith("term,1,XXY,1,3,")
    assert lines[-1].startswith("result,")


def test_md_report_includes_published_rows():
    report = run_experiment(ExperimentConfig(qubits=3, setup="mermin", seed=2))
    text = render_report(report, "md")
    assert "| simulated |" in text
    assert "| Vigo (published) |" in text
    assert "VIOLATES_LR" in text
    # Expanded runs have per-permutation columns the published table
    # does not share, so no published rows are attached.
    expanded = run_experiment(
        ExperimentConfig(qubits=3, setup="mermin", seed=2, expand_permutations=True)
    )
    assert "(published)" not in render_report(expanded, "md")


def test_render_rejects_unknown_format():
    report = run_experiment(ExperimentConfig(qubits=3, setup="mermin"))
    with pytest.raises(ValueError):
        render_report(report, "yaml")


def test_exchange_test_noiseless_terms_are_exact():
    report = run_exchange_test(seed=3)
    assert [t.axes for t in report.terms] == ["XXY", "XYX", "YXX"]
    for t in report.terms:
        assert t.value == 1.0
    assert report.spread == 0.0
    assert report.published_reference is not None
    assert "Essex" in report.published_reference["rows"]


def test_exchange_test_other_sizes():
    report = run_exchange_test(seed=3, qubits=4)
    assert [t.axes for t in report.terms] == ["XXXY", "XXYX", "XYXX", "YXXX"]
    assert report.published_reference is None
    with pytest.raises(ValueError):
        run_exchange_test(qubits=6)


def test_exchange_render_formats():
    report = run_exchange_test(seed=3)
    as_json = render_exchange_report(report, "json")
    assert json.loads(as_json)["spread"] == 0.0
    as_csv = render_exchange_report(report, "csv")
    assert as_csv.splitlines()[0] == "row,axes,value,error,error_rounded"
    as_md = render_exchange_report(report, "md")
    assert "| Vigo (published) |" in as_md
    assert render_exchange_report(report, "json") == as_json  # deterministic


def test_verify_invariants_all_pass():
    rows = verify_invariants()
    assert len(rows) >= 27  # three checks per setup at minimum
    for name, ok, detail in rows:
        assert ok, f"{name}: {detail}"
