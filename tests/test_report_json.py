"""The JSON writer against an independent oracle.

``oracle`` is the stored layout spelled out as a plain dict, the way the
reports were once written, with the per-cell fields taken straight from the
catalog and the published tables; ``json.dumps`` of it is the reference text.
The writer must give exactly those bytes for every catalog cell and for
hand-built reports with unusual leaves.  A report whose terms are not its
run's plan, that holds a non-finite number, or whose verdict or four-party
flag its run cannot state, cannot be built, so no format writes one.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from merminsim import (
    ExperimentConfig,
    ExperimentReport,
    NoiseModel,
    Setup,
    exchange_spread,
    render_exchange_report,
    render_report,
    run_exchange_test,
    run_experiment,
    setup_config,
)
from merminsim import harness, reference
from merminsim.sampling import round_error

SEEDS = (0, 7, 12345)
NOISES = (NoiseModel(), NoiseModel(0.02, 0.02, 0.02))


def _noise(noise: NoiseModel) -> dict:
    return {"p1": noise.p1, "p2": noise.p2, "readout_flip": noise.readout_flip}


def _term(t) -> dict:
    return {
        "y_count": t.y_count,
        "axes": t.axes,
        "coefficient": [t.coefficient.numerator, t.coefficient.denominator],
        "multiplicity": t.multiplicity,
        "value": t.value,
        "error": t.error,
        "error_rounded": round_error(t.error),
        "seed": t.seed,
    }


def exchange_oracle(report: ExperimentReport) -> dict:
    """The exchange layout of an expanded mermin run: its single-Y terms."""
    cfg = report.config
    terms = [t for t in report.terms if t.y_count == 1]
    return {
        "schema_version": 1,
        "qubits": cfg.qubits,
        "shots": cfg.shots,
        "seed": cfg.seed,
        "noise": _noise(cfg.noise),
        "terms": [_term(t) for t in terms],
        "spread": exchange_spread([t.value for t in terms]),
        "published_reference": reference.exchange_results() if cfg.qubits == 3 else None,
    }


def oracle(report: ExperimentReport) -> dict:
    cfg = report.config
    sc = setup_config(cfg.qubits, cfg.setup)
    poly = sc.polynomial
    return {
        "schema_version": 1,
        "config": {
            "qubits": cfg.qubits,
            "setup": cfg.setup.value,
            "shots": cfg.shots,
            "seed": cfg.seed,
            "noise": _noise(cfg.noise),
            "expand_permutations": cfg.expand_permutations,
            "violation_sigmas": cfg.violation_sigmas,
        },
        "ghz_phase": sc.ghz_phase,
        "polynomial": {
            "n": poly.n,
            "terms": [{"axes": s, "coefficient": [c.numerator, c.denominator]} for c, s in poly.terms],
            "lr_bound": poly.lr_bound,
            "qm_value": poly.qm_value,
        },
        "terms": [_term(t) for t in report.terms],
        "result": {"value": report.value, "error": report.error, "error_rounded": round_error(report.error)},
        "lr_bound": sc.lr_bound,
        "qm_value": sc.qm_value,
        "verdict": report.verdict,
        "genuine_fourparty": report.genuine_fourparty,
        "published_reference": reference.device_results(cfg.qubits, cfg.setup.value),
    }


def expected(report: ExperimentReport, layout=oracle) -> str:
    return json.dumps(layout(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _report(qubits: int = 3, setup: str = "mermin", **kwargs) -> ExperimentReport:
    return run_experiment(ExperimentConfig(qubits=qubits, setup=setup, **kwargs))


@pytest.mark.parametrize("expand", [False, True], ids=["class", "expanded"])
@pytest.mark.parametrize("setup", list(Setup), ids=lambda s: s.value)
@pytest.mark.parametrize("qubits", [3, 4, 5])
def test_experiment_json_matches_the_oracle(qubits, setup, expand):
    for noise in NOISES:
        for seed in SEEDS:
            report = _report(qubits, setup, seed=seed, noise=noise, expand_permutations=expand)
            text = render_report(report, "json")
            assert text == expected(report)
            assert report.to_dict() == json.loads(text)


@pytest.mark.parametrize("qubits", [3, 4, 5])
def test_exchange_json_matches_the_oracle(qubits):
    for noise in NOISES:
        for seed in SEEDS:
            report = run_exchange_test(seed=seed, noise=noise, qubits=qubits)
            text = render_exchange_report(report, "json")
            assert text == expected(report, exchange_oracle)


def _with_distinct_terms(report: ExperimentReport) -> ExperimentReport:
    """The report with each term's axes replaced by an equal but distinct
    object.  Its coefficients stay the same objects: each is an int +-1, and
    CPython keeps one object per small int."""
    terms = tuple(t._replace(axes="".join(list(t.axes))) for t in report.terms)
    return report._replace(terms=terms)


# A render reads every frame from the plan, so an equal copy of a report (with
# equal but distinct term objects, unpickled or reloaded) writes its bytes.
@pytest.mark.parametrize("noise", NOISES, ids=["clean", "p0.02"])
@pytest.mark.parametrize("expand", [False, True], ids=["class", "expanded"])
@pytest.mark.parametrize("setup", list(Setup), ids=lambda s: s.value)
@pytest.mark.parametrize("qubits", [3, 4, 5])
def test_plan_frames_render_what_the_frame_builders_render(qubits, setup, expand, noise):
    report = _report(qubits, setup, seed=5, noise=noise, expand_permutations=expand)
    loaded = ExperimentReport.from_dict(report.to_dict())
    for copy in (_with_distinct_terms(report), pickle.loads(pickle.dumps(report)), loaded):
        assert copy == report
        for fmt in harness.RENDER_FORMATS:
            assert render_report(copy, fmt) == render_report(report, fmt)


@pytest.mark.parametrize("qubits", [3, 4, 5])
def test_exchange_plan_frames_render_what_the_frame_builders_render(qubits):
    for noise in NOISES:
        report = run_exchange_test(seed=5, noise=noise, qubits=qubits)
        for copy in (_with_distinct_terms(report), pickle.loads(pickle.dumps(report))):
            assert copy == report
            for fmt in harness.RENDER_FORMATS:
                assert render_exchange_report(copy, fmt) == render_exchange_report(report, fmt)


def _replace_term(terms, i: int, **changes) -> tuple:
    """``terms`` with term ``i`` changed."""
    return terms[:i] + (terms[i]._replace(**changes),) + terms[i + 1 :]


@pytest.mark.parametrize(
    "edit",
    [
        lambda terms: (),
        lambda terms: terms[:-1],
        lambda terms: terms + terms[:1],
        lambda terms: terms[::-1],
        lambda terms: _replace_term(terms, 0, axes=terms[0].axes[::-1]),
        lambda terms: _replace_term(terms, 0, coefficient=2),
    ],
    ids=["empty", "too-short", "too-long", "reversed", "axes-changed", "coefficient-changed"],
)
def test_terms_that_are_not_the_runs_plan_are_refused(edit):
    report = _report()
    assert report.terms[0].axes != report.terms[0].axes[::-1]
    with pytest.raises(ValueError, match="terms"):
        report._replace(terms=edit(report.terms))


def test_hand_built_leaves_render_as_json_dumps_writes_them():
    report = _report()
    terms = _replace_term(report.terms, 0, value=1)
    edited = report._replace(value=4, error=np.float64(0.5), terms=terms)
    assert render_report(edited, "json") == expected(edited)


@pytest.mark.parametrize(
    "qubits, setup, field, bad",
    [
        (3, "mermin", "verdict", "maybe"),
        (3, "mermin", "verdict", {"b": [1, 2.5], "a": None}),
        (3, "mermin", "verdict", None),
        (3, "mermin", "genuine_fourparty", (True, "x")),
        (3, "mermin", "genuine_fourparty", False),
        (4, "mermin", "genuine_fourparty", True),
        (4, "al", "genuine_fourparty", (True, "x")),
        (4, "al", "genuine_fourparty", None),
        (4, "al-mod", "genuine_fourparty", 1),
        (4, "al-mod", "genuine_fourparty", np.True_),
    ],
    ids=[
        "verdict-str", "verdict-dict", "verdict-none", "flag-tuple-3q", "flag-bool-3q", "flag-bool-4q-mermin",
        "flag-tuple-4q-al", "flag-none-4q-al", "flag-int-4q-al-mod", "flag-numpy-bool-4q-al-mod",
    ],
)
def test_a_report_refuses_a_verdict_or_flag_it_cannot_state(qubits, setup, field, bad):
    # Each of these used to build and render (verdict **maybe** in markdown),
    # and its JSON was then refused on reload: the one writer wrote what the
    # one reader refuses.
    report = _report(qubits, setup)
    with pytest.raises(ValueError, match=field):
        report._replace(**{field: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_term_value_raises_value_error(bad):
    # An expanded mermin run, which both renderers show; its first single-Y
    # term is one the exchange view shows too.
    report = run_exchange_test()
    i = [t.y_count for t in report.terms].index(1)
    edits = {
        "term value": lambda: report._replace(terms=_replace_term(report.terms, i, value=bad)),
        "term error": lambda: report._replace(terms=_replace_term(report.terms, i, error=bad)),
        "result value": lambda: report._replace(value=bad),
        "result error": lambda: report._replace(error=bad),
    }
    for name, edit in edits.items():
        for render in (render_report, render_exchange_report):
            for fmt in harness.RENDER_FORMATS:
                with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
                    render(edit(), fmt)


def test_numpy_float32_term_value_is_read_as_a_float():
    report = _report()
    edited = report._replace(terms=_replace_term(report.terms, 0, value=np.float32(0.5)))
    assert type(edited.terms[0].value) is float and edited.terms[0].value == 0.5
    assert render_report(edited, "json") == expected(edited)


@pytest.mark.parametrize(
    "qubits, setup, expand", [(3, "mermin", True), (4, "al", False)], ids=["3q-mermin-expanded", "4q-al-class"]
)
def test_numpy_scalars_are_stored_and_written_as_python_numbers(qubits, setup, expand):
    # The writers put the repr of each checked number straight into the text.
    # Under numpy >= 2 a numpy scalar's repr reads np.float64(0.5), so every
    # constructor must read numpy numbers as plain ints and floats.
    report = _report(qubits, setup, seed=7, noise=NoiseModel(0.01, 0.02, 0.03), expand_permutations=expand)
    cfg, i64, f64 = report.config, np.int64, np.float64
    config = ExperimentConfig(
        i64(cfg.qubits), cfg.setup.value, i64(cfg.shots), i64(cfg.seed),
        NoiseModel(*(f64(p) for p in cfg.noise._values)), cfg.expand_permutations, f64(cfg.violation_sigmas),
    )
    terms = tuple(
        type(t)(i64(t.y_count), t.axes, t.coefficient, i64(t.multiplicity), f64(t.value), f64(t.error), i64(t.seed))
        for t in report.terms
    )
    built = ExperimentReport(config, terms, f64(report.value), f64(report.error), report.verdict, report.genuine_fourparty)
    assert built == report

    def types(r: ExperimentReport) -> list[type]:
        records = (r, r.config, r.config.noise, *r.terms)
        return [type(v) for record in records for v in record._values]

    # np.float64 subclasses float, so compare exact types with the run's own.
    assert types(built) == types(report) and {int, float} <= set(types(report))
    for fmt in harness.RENDER_FORMATS:
        assert render_report(built, fmt) == render_report(report, fmt)
        if expand:
            assert render_exchange_report(built, fmt) == render_exchange_report(report, fmt)


def test_warm_catalog_render_calls_json_dumps_zero_times(monkeypatch):
    reports = [
        _report(n, setup, seed=3, noise=NoiseModel(0.02, 0.02, 0.02), expand_permutations=expand)
        for n in (3, 4, 5)
        for setup in ("mermin", "al", "al-mod")
        for expand in (False, True)
    ]
    exchanges = [run_exchange_test(seed=3, qubits=n) for n in (3, 4, 5)]
    texts = [render_report(r, "json") for r in reports] + [render_exchange_report(r, "json") for r in exchanges]
    calls = []
    real = json.dumps

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    again = [render_report(r, "json") for r in reports] + [render_exchange_report(r, "json") for r in exchanges]
    assert again == texts
    assert calls == []
    # A rebuilt catalog entry dumps its per-cell text once, when the run builds it.
    harness._checked_setup.cache_clear()
    rebuilt = _report(5, "al", seed=3)
    first, second = render_report(rebuilt, "json"), render_report(rebuilt, "json")
    assert len(calls) == 1
    assert first == second == expected(rebuilt)
