"""Tests of the benchmark's own helpers.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import dmref  # noqa: E402
import merminsim  # noqa: E402
import merminsim.cli  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import Op  # noqa: E402


# --- tail percentile rule -------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    value, pct = stats.tail(values)
    assert value == 90
    assert sum(v > value for v in values) == 10
    assert pct == 90.0


def test_tail_with_the_fewest_samples_allowed():
    value, pct = stats.tail([float(v) for v in range(1, 12)])
    assert value == 1.0
    assert pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_tail_stops_at_the_cap_on_large_samples():
    values = [float(v) for v in range(1, 5001)]
    value, pct = stats.tail(values)
    assert value == 4950.0  # p99: 50 samples beyond, not 10
    assert pct == 99.0
    assert stats.tail(values[:1000]) == (990.0, 99.0)  # where the two rules meet


def test_end_to_end_metrics_of_a_pass():
    e2e = stats.end_to_end([0.001] * 20 + [0.004] * 10 + [0.010] * 10)
    assert e2e["runs_per_s"] == pytest.approx(40 / 0.16)
    assert e2e["latency_p50_ms"] == pytest.approx(2.5)  # between the 20th and 21st sample
    assert e2e["latency_tail_ms"] == pytest.approx(4.0)
    assert e2e["tail_percentile"] == 75.0


def test_rescale_divides_by_the_median_bare_start():
    starts = [2 * stats.REF_START_S, 2 * stats.REF_START_S, 10 * stats.REF_START_S]
    assert stats.rescale([0.2, 0.4], starts) == pytest.approx([0.1, 0.2])


# --- self time with nested spans -----------------------------------------

def test_self_times_subtract_direct_children_only():
    spans = [
        (0, None, "harness", "run_experiment", 0.0, 10.0),
        (1, 0, "circuits", "run", 1.0, 4.0),
        (2, 1, "statevector", "apply_gate_inplace", 2.0, 3.0),
        (3, 0, "sampling", "sample_shots", 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def _fake_package(monkeypatch) -> types.SimpleNamespace:
    """fakepkg.lhv.lr_bound_formula, imported by fakepkg.circuits, which calls
    it from setup_config; every other wrapped name is absent."""
    pkg = types.ModuleType("fakepkg")
    lhv = types.ModuleType("fakepkg.lhv")
    circuits = types.ModuleType("fakepkg.circuits")
    exec("def lr_bound_formula(n):\n    return float(2 ** (n // 2))", lhv.__dict__)
    circuits.lr_bound_formula = lhv.lr_bound_formula
    exec("def setup_config(n):\n    return lr_bound_formula(n) + lr_bound_formula(n)", circuits.__dict__)
    for name, module in (("fakepkg", pkg), ("fakepkg.lhv", lhv), ("fakepkg.circuits", circuits)):
        monkeypatch.setitem(sys.modules, name, module)
    return types.SimpleNamespace(lhv=lhv, circuits=circuits)


def test_install_rebinds_across_modules_and_reports_missing_names(monkeypatch):
    fake = _fake_package(monkeypatch)
    tracer = tracing.Tracer()
    missing = tracing.install(tracer, package="fakepkg")
    assert "circuits.setup_config" not in missing and "lhv.lr_bound_formula" not in missing
    assert "harness.run_experiment" in missing
    assert len(missing) == len(tracing.WRAPPED) - 2

    assert fake.circuits.setup_config(4) == 8.0
    spans = tracer.spans
    assert [(s[2], s[3]) for s in spans] == [
        ("lhv", "lr_bound_formula"), ("lhv", "lr_bound_formula"), ("circuits", "setup_config")]
    root = spans[-1][0]
    assert spans[0][1] == root and spans[1][1] == root and spans[2][1] is None

    tracer.fold()
    wall = spans[-1][5] - spans[-1][4]
    metrics = tracing.layer_metrics(tracer.totals(), wall)
    assert metrics["circuits.setup_config.calls"] == 1
    assert metrics["lhv.calls"] == 2
    assert sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(wall)
    shares = sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS) + metrics["other.share"]
    assert shares == pytest.approx(1.0)


def test_inactive_tracer_records_nothing(monkeypatch):
    fake = _fake_package(monkeypatch)
    tracer = tracing.Tracer()
    tracing.install(tracer, package="fakepkg")
    tracer.active = False
    fake.circuits.setup_config(3)
    assert tracer.spans == []


def test_merge_totals_sums_processes():
    part = {"self_s": [["cli", "main", 0.5]], "calls": [["cli", "main", 1]],
            "counts": {"sampling.shots": 10}, "bruteforced": 1}
    merged = tracing.merge_totals([part, part])
    assert merged == {"self_s": [["cli", "main", 1.0]], "calls": [["cli", "main", 2]],
                      "counts": {"sampling.shots": 20}, "bruteforced": 2}


# --- dense noisy reference ------------------------------------------------

@pytest.mark.parametrize("p, want", [(0.01, 3.2701), (0.02, 2.6653), (0.03, 2.1655)])
def test_dense_reference_three_qubit_sweep(p, want):
    for expanded in (False, True):
        assert dmref.exact_value(3, "mermin", expanded, p) == pytest.approx(want, abs=5e-5)


def test_dense_reference_is_the_quantum_maximum_without_noise():
    for n in workloads.QUBITS:
        for setup in workloads.SETUPS:
            for expanded in (False, True):
                assert dmref.exact_value(n, setup, expanded, 0.0) == pytest.approx(
                    workloads.qm_value(n, setup), abs=1e-9)


def test_reference_catalog_matches_the_package():
    for n in workloads.QUBITS:
        for setup in workloads.SETUPS:
            sc = merminsim.setup_config(n, setup)
            assert dmref.polynomial(n, setup) == {str(s): c for c, s in sc.polynomial.terms}
            assert sc.ghz_phase == workloads.GHZ_PHASE[(n, setup)]
            assert sc.lr_bound == workloads.LR_BOUND[n]


# --- output checks reject corrupted reports -------------------------------

def _report(op: Op) -> str:
    return workloads.run_in_library(merminsim, op)


def _json(d: dict) -> str:
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


CLEAN_3Q = Op("run", 3, "mermin", False, 0.0, 11, "json")
CLEAN_4Q_AL = Op("run", 4, "al", False, 0.0, 12, "json")


def _check(op: Op, text: str, exact: float | None = None) -> None:
    if exact is None:
        exact = workloads.qm_value(op.qubits, op.setup)
    checks.check_output(op, text, exact, merminsim)


def test_genuine_reports_pass_in_every_format():
    for fmt in workloads.FORMATS:
        for op in (CLEAN_3Q, CLEAN_4Q_AL):
            op = Op("run", op.qubits, op.setup, True, 0.0, op.seed, fmt)
            _check(op, _report(op))


def test_noisy_report_passes_against_the_dense_reference_only():
    op = Op("run", 3, "mermin", False, 0.02, 5, "json")
    text = _report(op)
    _check(op, text, dmref.exact_value(3, "mermin", False, 0.02))
    with pytest.raises(CheckError, match="sigma"):
        _check(op, text)  # the clean maximum is far from the noisy mean


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_json_rejects_bare_non_finite_numbers(literal):
    text = _report(CLEAN_3Q)
    d = json.loads(text)
    corrupted = _json(d).replace(json.dumps(d["result"]["error"]), literal, 1)
    assert literal in corrupted
    with pytest.raises(CheckError, match="strict JSON"):
        _check(CLEAN_3Q, corrupted)


def test_json_rejects_bytes_that_do_not_re_render():
    text = _report(CLEAN_3Q)
    with pytest.raises(CheckError, match="re-renders"):
        _check(CLEAN_3Q, json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n")
    d = json.loads(text)
    d["result"]["error_rounded"] = 0.5  # derived on render, so it must agree with error
    with pytest.raises(CheckError, match="re-renders"):
        _check(CLEAN_3Q, _json(d))


def test_json_rejects_a_wrong_verdict():
    d = json.loads(_report(CLEAN_3Q))
    d["verdict"] = checks.VERDICT_CONSISTENT
    with pytest.raises(CheckError, match="verdict"):
        _check(CLEAN_3Q, _json(d))


def test_json_rejects_a_wrong_fourparty_flag():
    d = json.loads(_report(CLEAN_4Q_AL))
    assert d["genuine_fourparty"] is True
    d["genuine_fourparty"] = False
    with pytest.raises(CheckError, match="four-party"):
        _check(CLEAN_4Q_AL, _json(d))


def test_json_rejects_a_value_far_from_exact():
    d = json.loads(_report(CLEAN_3Q))
    d["result"]["value"] -= 10 * d["result"]["error"]
    with pytest.raises(CheckError, match="sigma"):
        _check(CLEAN_3Q, _json(d))


def test_json_rejects_a_wrong_bound_or_config():
    d = json.loads(_report(CLEAN_3Q))
    d["lr_bound"] = 4.0
    with pytest.raises(CheckError, match="lr_bound"):
        _check(CLEAN_3Q, _json(d))
    d = json.loads(_report(CLEAN_3Q))
    d["config"]["seed"] += 1
    with pytest.raises(CheckError, match="echo"):
        _check(CLEAN_3Q, _json(d))


def test_csv_rejects_non_finite_and_far_values():
    op = Op("run", 3, "mermin", False, 0.0, 11, "csv")
    text = _report(op)
    fields = text.splitlines()[-1].split(",")
    for bad, match in (("nan", "finite"), (repr(float(fields[5]) - 1.0), "sigma")):
        corrupted = text.replace(",".join(fields), ",".join(fields[:5] + [bad] + fields[6:]))
        with pytest.raises(CheckError, match=match):
            _check(op, corrupted)


def test_markdown_rejects_wrong_verdict_flag_and_value():
    op = Op("run", 4, "al", False, 0.0, 12, "md")
    text = _report(op)
    cases = [
        (text.replace("**VIOLATES_LR**", "**CONSISTENT_WITH_LR**"), "verdict"),
        (text.replace("value exceeds", "value does not exceed"), "four-party"),
    ]
    simulated = next(line for line in text.splitlines() if line.startswith("| simulated |"))
    value = simulated.split("|")[-2].split()[0]
    cases.append((text.replace(f" {value} +/- ", " 9.000 +/- "), "sigma"))
    for corrupted, match in cases:
        assert corrupted != text
        with pytest.raises(CheckError, match=match):
            _check(op, corrupted)


def test_cli_outputs_and_their_corruptions():
    exchange = Op("exchange-test", 3, seed=4)
    text = workloads.run_in_cli(merminsim, exchange)
    _check(exchange, text)
    d = json.loads(text)
    d["spread"] += 0.1
    with pytest.raises(CheckError, match="spread"):
        _check(exchange, _json(d))

    bounds = Op("bounds", 4, "al")
    text = workloads.run_in_cli(merminsim, bounds)
    _check(bounds, text)
    with pytest.raises(CheckError, match="lr bounds"):
        _check(bounds, text.replace("lr_bound (brute force): 4.0", "lr_bound (brute force): 2.0"))

    verify = Op("verify")
    text = workloads.run_in_cli(merminsim, verify)
    _check(verify, text)
    with pytest.raises(CheckError, match="failed"):
        _check(verify, text.replace("PASS  ", "FAIL  ", 1))


# --- workloads ------------------------------------------------------------

def _mix(ops):
    return sorted((op.kind, op.qubits, op.setup, op.expanded, op.p, op.fmt) for op in ops)


@pytest.mark.parametrize("workload, size", [("clean_catalog", 54), ("noisy_sweep", 54), ("cli_runs", 9)])
def test_rounds_are_seeded_and_fixed_in_mix(workload, size):
    a, b, c = (workloads.rounds(workload, s) for s in (1, 1, 2))
    first_a, first_b, first_c = next(a), next(b), next(c)
    assert first_a == first_b and first_a != first_c
    assert len(first_a) == size
    assert _mix(first_a) == _mix(first_c)
    if workload != "cli_runs":
        assert _mix(first_a) == _mix(next(a))
    assert workloads.repro_op(first_a) in first_a


def test_cli_rounds_cover_the_catalog_with_the_same_mix_for_every_seed():
    a, b = workloads.rounds("cli_runs", 1), workloads.rounds("cli_runs", 2)
    nine_a = [next(a) for _ in range(9)]
    nine_b = [next(b) for _ in range(9)]
    assert [_mix(r) for r in nine_a] == [_mix(r) for r in nine_b]
    runs = [op for r in nine_a[:3] for op in r if op.kind == "run"]
    assert {(op.qubits, op.setup, op.expanded) for op in runs} == {
        (n, s, e) for n in workloads.QUBITS for s in workloads.SETUPS for e in (False, True)}
    assert {(op.qubits, op.setup) for r in nine_a for op in r if op.kind == "bounds"} == {
        (n, s) for n in workloads.QUBITS for s in workloads.SETUPS}
    for r in nine_a:
        fmts = [op.fmt for op in r if op.kind == "run"]
        assert all(fmts.count(f) == 2 for f in workloads.FORMATS)
