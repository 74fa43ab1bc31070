"""End-to-end experiment runs, report schema, rendering, and determinism."""

from __future__ import annotations

import json
from typing import Callable

import numpy as np
import pytest

from merminsim import (
    ExperimentConfig,
    ExperimentReport,
    NoiseModel,
    Setup,
    all_setup_configs,
    exchange_spread,
    render_exchange_report,
    render_report,
    run_exchange_test,
    run_experiment,
    setup_config,
    verify_invariants,
)
from merminsim.harness import RENDER_FORMATS, _checked_setup, _plan_weights, recheck_bounds


@pytest.mark.parametrize("config", all_setup_configs(), ids=lambda c: f"{c.n}q-{c.setup.value}")
def test_noiseless_run_reproduces_quantum_value(config):
    report = run_experiment(ExperimentConfig(qubits=config.n, setup=config.setup, seed=1))
    stored = report.to_dict()
    assert stored["lr_bound"] == config.lr_bound and stored["qm_value"] == config.qm_value
    assert abs(report.value - config.qm_value) <= 5 * report.error + 1e-12
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


@pytest.mark.parametrize("sigmas", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "1e400"])
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


def test_shots_fit_numpys_int64():
    # numpy's multinomial takes an int64 count; 2**63 used to escape as OverflowError.
    assert ExperimentConfig(qubits=3, setup="mermin", shots=2**63 - 1).shots == 2**63 - 1
    assert run_exchange_test(shots=2**63 - 1).config.shots == 2**63 - 1
    with pytest.raises(ValueError, match="shots"):
        ExperimentConfig(qubits=3, setup="mermin", shots=2**63)
    with pytest.raises(ValueError, match="shots"):
        run_exchange_test(shots=2**63)


@pytest.mark.parametrize("seed", [1.7, 1.0, True, "1"])
def test_config_rejects_non_integral_or_bool_seed(seed):
    # A float seed would be reported as given but sampled as its floor.
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(qubits=3, setup="mermin", seed=seed)
    with pytest.raises(ValueError, match="seed"):
        run_exchange_test(seed=seed)


@pytest.mark.parametrize("qubits", [3.0, True, "3"])
def test_config_rejects_non_integral_or_bool_qubits(qubits):
    with pytest.raises(ValueError, match="qubits"):
        ExperimentConfig(qubits=qubits, setup="mermin")
    with pytest.raises(ValueError, match="qubits"):
        run_exchange_test(qubits=qubits)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("expand_permutations", "no"),
        ("expand_permutations", 1),
        ("expand_permutations", float("nan")),
        ("violation_sigmas", True),
        ("violation_sigmas", "3"),
        ("violation_sigmas", float("nan")),
    ],
    ids=["flag-str", "flag-int", "flag-nan", "sigmas-bool", "sigmas-str", "sigmas-nan"],
)
def test_config_rejects_mistyped_flag_and_sigmas(field, bad):
    # "no" used to run the expanded measurement and True was reported as true.
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(qubits=3, setup="mermin", **{field: bad})
    payload = run_experiment(ExperimentConfig(qubits=3, setup="mermin")).to_dict()
    payload["config"][field] = bad
    with pytest.raises(ValueError, match=field):
        ExperimentReport.from_dict(payload)
    assert type(ExperimentConfig(qubits=3, setup="mermin", violation_sigmas=3).violation_sigmas) is float


class _SetupId(str):
    pass


@pytest.mark.parametrize("setup", ["al", Setup.AL, _SetupId("al")], ids=["id", "member", "str-subclass"])
def test_config_reads_a_setup_id_or_member(setup):
    assert ExperimentConfig(qubits=4, setup=setup).setup is Setup.AL


@pytest.mark.parametrize("bad", ["AL", "", ["al"], None, 3], ids=["upper", "empty", "list", "none", "int"])
def test_config_refuses_a_setup_with_the_error_setup_raises(bad):
    # A plain str id is looked up in a dict of members; a miss, like anything
    # else, goes through Setup() and keeps its error.
    with pytest.raises(Exception) as want:
        Setup(bad)
    with pytest.raises(type(want.value)) as got:
        ExperimentConfig(qubits=3, setup=bad)
    assert str(got.value) == str(want.value)


def test_config_accepts_negative_and_numpy_integer_seeds():
    cfg = ExperimentConfig(qubits=np.int64(3), setup="mermin", seed=np.int64(-5))
    assert type(cfg.qubits) is int and type(cfg.seed) is int
    assert run_experiment(cfg).to_dict()["config"]["seed"] == -5
    assert run_exchange_test(seed=np.int32(-5)).config.seed == -5


def test_report_from_dict_rejects_fractional_seed():
    payload = run_experiment(ExperimentConfig(qubits=3, setup="mermin")).to_dict()
    payload["config"]["seed"] = 2.5
    with pytest.raises(ValueError, match="seed"):
        ExperimentReport.from_dict(payload)


@pytest.mark.parametrize(
    "path",
    [
        ("config",),
        ("config", "seed"),
        ("config", "noise", "p2"),
        ("terms", 0, "seed"),
        ("result", "error"),
        ("polynomial", "lr_bound"),
        ("polynomial", "terms", 1, "axes"),
        ("verdict",),
    ],
    ids=lambda path: "-".join(map(str, path)),
)
def test_report_from_dict_names_a_missing_field(path):
    # A trimmed stored report used to fail with KeyError.
    payload = run_experiment(ExperimentConfig(qubits=3, setup="mermin")).to_dict()
    section = payload
    for key in path[:-1]:
        section = section[key]
    del section[path[-1]]
    # The stored polynomial is not read, only compared in the re-render.
    match = f"lacks field '{path[-1]}'"
    if path[0] == "polynomial":
        match = "field 'polynomial' is not what the report re-renders"
    with pytest.raises(ValueError, match=match):
        ExperimentReport.from_dict(payload)


def test_json_render_rejects_non_finite_numbers():
    report = run_experiment(ExperimentConfig(qubits=3, setup="mermin"))
    with pytest.raises(ValueError):
        render_report(report._replace(value=float("nan")), "json")


def test_config_round_trip_and_string_setup_coercion():
    cfg = ExperimentConfig(qubits=4, setup="al-mod", shots=2048, seed=5, noise=NoiseModel(0.01))
    assert cfg.setup is Setup.AL_MODIFIED
    payload = run_experiment(cfg).to_dict()
    assert payload["config"]["setup"] == "al-mod"
    assert ExperimentReport.from_dict(payload).config == cfg


def test_report_dict_and_json_round_trip():
    # Every catalog polynomial, in both modes, clean and noisy, passes
    # through the one writer and the one reader.
    for config in all_setup_configs():
        for noise in (NoiseModel(), NoiseModel(0.02, 0.02, 0.02)):
            for expanded in (False, True):
                cfg = ExperimentConfig(
                    qubits=config.n, setup=config.setup, seed=11, noise=noise, expand_permutations=expanded
                )
                report = run_experiment(cfg)
                again = ExperimentReport.from_dict(report.to_dict())
                assert again == report
                assert all(type(t.coefficient) is int for t in again.terms)
                via_json = ExperimentReport.from_dict(json.loads(render_report(report, "json")))
                assert via_json == report


def _parent(payload: dict, path: tuple) -> dict:
    for key in path[:-1]:
        payload = payload[key]
    return payload


def _change(path: tuple, change: Callable[[object], object]) -> Callable[[dict], dict]:
    def edit(payload: dict) -> dict:
        section = _parent(payload, path)
        section[path[-1]] = change(section[path[-1]])
        return payload

    return edit


def _set(path: tuple, value: object) -> Callable[[dict], dict]:
    """Set ``path`` to ``value``; a missing last key is added."""

    def edit(payload: dict) -> dict:
        _parent(payload, path)[path[-1]] = value
        return payload

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda payload: list(payload),
        lambda payload: None,
        _set(("result",), 5),
        _set(("terms",), 7),
        _set(("terms",), "XXY"),
        _set(("terms", 0), 3),
        _set(("config",), "x"),
        _set(("polynomial",), []),
        _set(("terms", 0, "coefficient"), [1]),
        _set(("terms", 0, "coefficient"), [1, 0]),
        _set(("terms", 0, "coefficient"), [1.5, 2]),
        _set(("terms", 0, "coefficient"), "12"),
        _set(("polynomial", "terms", 0, "coefficient"), [1]),
        _set(("polynomial", "terms", 0, "coefficient"), [1, 2, 3]),
        _set(("polynomial", "terms", 0, "axes"), 5),
        _set(("polynomial", "terms"), None),
        _set(("config", "noise", "p1"), 10**400),
        _set(("result", "error"), "x"),
        _set(("result", "value"), float("nan")),
        _set(("terms", 0, "value"), None),
        _set(("terms", 0, "error"), True),
        _set(("terms", 0, "y_count"), "abc"),
        _set(("terms", 0, "multiplicity"), 3.0),
        _set(("terms", 0, "seed"), False),
        _set(("terms", 0, "axes"), 5),
        _set(("terms", 0, "coefficient"), [True, 1]),
        _set(("ghz_phase",), "pi/2"),
        _set(("lr_bound",), [2.0]),
        _set(("qm_value",), float("inf")),
        _set(("polynomial", "n"), 3.0),
        _set(("polynomial", "qm_value"), None),
        _set(("verdict",), "MAYBE"),
        _set(("genuine_fourparty",), "yes"),
        _set(("genuine_fourparty",), 0),
        _set(("published_reference",), None),
        _set(("terms", 0, "y_count"), 7),
        _set(("terms", 0, "axes"), "ZZQ"),
        _change(("terms",), lambda terms: terms[:-1]),
        _set(("terms", 0, "coefficient"), [2, 2]),
        _set(("published_reference",), {}),
        _set(("lr_bound",), 2),
        _set(("published_reference", "rows", "Vigo", "result"), 3),
        _set(("published_reference", "rows", "Vigo", "result"), True),
        _change(("ghz_phase",), lambda phase: phase + 0.1),
        _set(("terms", 0, "error_rounded"), 5),
        _set(("result", "error_rounded"), "x"),
        _set(("extra",), 1),
        _set(("config", "extra"), 1),
        _set(("config", "noise", "extra"), 1),
        _set(("terms", 0, "extra"), 1),
        _set(("terms", 0, "error"), -0.1),
        _set(("result", "value"), 4),
        _set(("terms", 0, "seed"), -5),
    ],
    ids=[
        "payload-list", "payload-none", "result-int", "terms-int", "terms-str", "term-int", "config-str",
        "polynomial-list", "coefficient-short", "coefficient-zero-denominator", "coefficient-float",
        "coefficient-str", "polynomial-coefficient-short", "polynomial-coefficient-long",
        "polynomial-axes-int", "polynomial-terms-none", "noise-overflow",
        "result-error-str", "result-value-nan", "term-value-null", "term-error-bool", "term-y-count-str",
        "term-multiplicity-float", "term-seed-bool", "term-axes-int", "coefficient-bool", "ghz-phase-str",
        "lr-bound-list", "qm-value-inf", "polynomial-n-float", "polynomial-qm-value-null", "verdict-unknown",
        "flag-str", "flag-int", "reference-null", "term-y-count-7", "term-axes-unknown", "term-dropped",
        "coefficient-unreduced", "reference-empty", "lr-bound-int", "reference-result-int",
        "reference-result-bool", "ghz-phase-shifted", "term-error-rounded-int", "result-error-rounded-str",
        "extra-key", "config-extra-key", "noise-extra-key", "term-extra-key", "term-error-negative",
        "result-value-int", "term-seed-negative",
    ],
)
def test_report_from_dict_raises_value_error_for_any_wrong_shape(edit):
    # These used to escape as AttributeError, TypeError, IndexError,
    # ZeroDivisionError or OverflowError, or to load and then fail (or pass
    # silently) when rendered.  A payload that does not render back to
    # itself is refused too: a per-cell field that is not the catalog's, a
    # term that is not the run's plan, a wrong error_rounded, an extra key.
    payload = edit(run_experiment(ExperimentConfig(qubits=3, setup="mermin")).to_dict())
    with pytest.raises(ValueError):
        ExperimentReport.from_dict(payload)


@pytest.mark.parametrize(
    "edit, match",
    [
        (_set(("published_reference",), {}), "field 'published_reference' is not what the report re-renders"),
        (_set(("lr_bound",), 2), "field 'lr_bound' is not what the report re-renders"),
        (_set(("terms", 0, "y_count"), 7), "field 'terms' is not what the report re-renders"),
        (_set(("result", "error_rounded"), 5), "field 'result' is not what the report re-renders"),
        (_set(("extra",), None), "field 'extra' is not what the report re-renders"),
        (_change(("terms",), lambda terms: terms[:-1]), "field 'terms' lists 1 terms; the run measures 2"),
        (_change(("terms",), lambda terms: terms + terms[:1]), "field 'terms' lists 3 terms; the run measures 2"),
    ],
    ids=[
        "reference-empty", "lr-bound-int", "term-y-count-7", "result-error-rounded", "extra-key-null",
        "term-dropped", "term-extra",
    ],
)
def test_report_from_dict_says_what_differs(edit, match):
    payload = edit(run_experiment(ExperimentConfig(qubits=3, setup="mermin")).to_dict())
    with pytest.raises(ValueError, match=match):
        ExperimentReport.from_dict(payload)


@pytest.mark.parametrize("path", [("config", "seed"), ("terms", 0, "seed")], ids=["config", "term"])
def test_seeds_load_as_stored(path):
    # Seeds are not checked against the plan: a report whose seed was edited
    # loads and renders its own bytes, and it is the caller who compares the
    # stored config with the request.
    payload = _change(path, lambda seed: seed + 1)(
        run_experiment(ExperimentConfig(qubits=3, setup="mermin")).to_dict()
    )
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert render_report(ExperimentReport.from_dict(json.loads(text)), "json") == text


def test_int_values_are_refused_on_reload():
    # A value is read as a float, which renders 4.0, so a stored int 4 (which
    # the writer never produces) does not render back and is refused.
    for path in (("result", "value"), ("terms", 0, "value")):
        payload = _set(path, 4)(run_experiment(ExperimentConfig(qubits=3, setup="mermin")).to_dict())
        with pytest.raises(ValueError, match=f"field '{path[0]}' is not what the report re-renders"):
            ExperimentReport.from_dict(payload)


def _leaf_paths(node: object, path: tuple = ()) -> list[tuple]:
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _leaf_paths(v, path + (k,))]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _leaf_paths(v, path + (i,))]
    return [path]


def test_every_leaf_set_to_a_string_is_refused():
    cfg = ExperimentConfig(
        qubits=4, setup="al", seed=5, noise=NoiseModel(0.01, 0.02, 0.03), expand_permutations=True
    )
    payload = run_experiment(cfg).to_dict()
    paths = _leaf_paths(payload)
    assert len(paths) > 100
    for path in paths:
        edited = _set(path, "x")(json.loads(json.dumps(payload)))
        with pytest.raises(ValueError):
            ExperimentReport.from_dict(edited)


def test_report_rejects_unknown_schema_version():
    report = run_experiment(ExperimentConfig(qubits=3, setup="mermin"))
    payload = report.to_dict()
    # A stored "1" is not the version 1; the refusal tells the two apart.
    for version, shown in ((99, "99"), ("1", "'1'")):
        payload["schema_version"] = version
        with pytest.raises(ValueError, match=f"^unsupported schema_version {shown}$"):
            ExperimentReport.from_dict(payload)


def test_json_report_is_byte_identical_across_repeat_and_cold_runs():
    # Repeat runs on a warm memo and a run on a cold one render the same bytes.
    cfg = ExperimentConfig(qubits=5, setup="al", seed=42)
    first = render_report(run_experiment(cfg), "json")
    second = render_report(run_experiment(cfg), "json")
    _checked_setup.cache_clear()
    _plan_weights.cache_clear()
    cold = render_report(run_experiment(cfg), "json")
    assert first == second
    assert first == cold


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
    assert abs(report.value - 4.0) <= 5 * report.error + 1e-12  # the 3-qubit QM value


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
    stored = json.loads(render_exchange_report(report, "json"))
    assert [t["axes"] for t in stored["terms"]] == ["XXY", "XYX", "YXX"]
    for t in stored["terms"]:
        assert t["value"] == 1.0
    assert stored["spread"] == 0.0
    assert "| Essex (published) |" in render_exchange_report(report, "md")


def test_exchange_test_other_sizes():
    report = run_exchange_test(seed=3, qubits=4)
    stored = json.loads(render_exchange_report(report, "json"))
    assert [t["axes"] for t in stored["terms"]] == ["XXXY", "XXYX", "XYXX", "YXXX"]
    assert stored["published_reference"] is None
    assert "(published)" not in render_exchange_report(report, "md")
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


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(0.02, 0.02, 0.02)], ids=["clean", "p0.02"])
@pytest.mark.parametrize("qubits", [3, 4, 5])
def test_exchange_test_is_the_single_y_view_of_the_expanded_mermin_run(qubits, noise):
    cfg = ExperimentConfig(qubits, "mermin", shots=4096, seed=11, noise=noise, expand_permutations=True)
    expanded = run_experiment(cfg)
    report = run_exchange_test(shots=4096, seed=11, noise=noise, qubits=qubits)
    assert report == expanded
    single_y = [t for t in expanded.to_dict()["terms"] if t["y_count"] == 1]
    assert len(single_y) == qubits
    stored = json.loads(render_exchange_report(report, "json"))
    assert stored["terms"] == single_y
    assert stored["spread"] == exchange_spread([t.value for t in expanded.terms if t.y_count == 1])
    assert (stored["qubits"], stored["shots"], stored["seed"]) == (qubits, 4096, 11)


@pytest.mark.parametrize(
    "cfg",
    [ExperimentConfig(3, "mermin"), ExperimentConfig(3, "al", expand_permutations=True)],
    ids=["class-mode-mermin", "expanded-al"],
)
def test_exchange_render_refuses_a_run_that_is_not_an_expanded_mermin_run(cfg):
    report = run_experiment(cfg)
    for fmt in RENDER_FORMATS:
        with pytest.raises(ValueError, match="expanded mermin run"):
            render_exchange_report(report, fmt)


def test_verify_invariants_all_pass():
    checks = (
        "LR bound matches brute force",
        "GHZ eigenvalue matches QM value",
        "class expectations match cos(phase - Y*pi/2) and circuit parity",
    )
    rows = verify_invariants()
    assert [name for name, _, _ in rows] == [
        f"{sc.n}q/{sc.setup.value} {check}" for sc in all_setup_configs() for check in checks
    ]
    assert len(rows) == 27
    for name, ok, detail in rows:
        assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("field", ["lr_bound", "qm_value"])
def test_recheck_bounds_refuses_a_stored_bound_off_by_5e_10(field):
    # The exact rechecks share one tolerance, 1e-10; the brute-force bound is
    # exact and the eigenvalue residual ~1e-15, so 5e-10 is a real error.
    sc = setup_config(4, Setup.AL)
    poly = sc.polynomial._replace(**{field: getattr(sc.polynomial, field) + 5e-10})
    rows = recheck_bounds(sc._replace(polynomial=poly))[0]
    assert [ok for _, ok, _ in rows] == [field != "lr_bound", field != "qm_value"]
