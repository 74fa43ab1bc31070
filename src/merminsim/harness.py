"""Experiment harness: run a full Mermin violation test and render reports.

A run measures one circuit per symmetry class (or per expanded term), combines
the class estimates into the polynomial value with propagated errors, and
judges the result against the local-realistic bound.  A report holds what
its run measured; the per-cell fields it is stored and shown with (polynomial,
bounds, GHZ phase and the published device rows) come from the checked
catalog entry.  The exchange test is one such run, the expanded ``mermin``
run, shown through its single-Y terms.  This module alone writes and reads
the stored report format.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import reference
from .circuits import QUBIT_COUNTS, Setup, SetupConfig, all_setup_configs, ghz_circuit
from .circuits import measurement_transform, run, setup_config
from .lhv import lr_bound_bruteforce
from .noise import NoiseModel, outcome_probabilities
from .pauli import PARITY_SIGNS, exact_expectation
from .polynomials import CHECK_TOL, EigencheckError, collapse, eigencheck
from .sampling import (
    check_shots,
    checked_weights,
    derive_seeds,
    seed_label,
    draw_counts,
    exchange_spread,
    parity_estimates,
    polynomial_estimate_expanded,
    round_error,
)
from .statevector import Record, check_int, check_items, check_real, ghz_state, probabilities

SCHEMA_VERSION = 1
# Entries per memo below; all 18 cells at three noise levels need 54 plans.
_MEMO_SIZE = 1024

VERDICT_VIOLATES = "VIOLATES_LR"
VERDICT_CONSISTENT = "CONSISTENT_WITH_LR"

RENDER_FORMATS = ("json", "csv", "md")


class InvariantError(RuntimeError):
    """An internal consistency recheck failed while assembling a report."""


def _mapping(d: dict, key: str) -> dict:
    """The section ``d[key]`` of a stored report, which must be a mapping."""
    section = d[key]
    if not isinstance(section, dict):
        raise ValueError(f"stored report field {key!r} must be a mapping, got {section!r}")
    return section


# Each setup id's member: ExperimentConfig looks a plain str id up here and
# sends anything else through Setup(), whose errors it keeps.
_SETUP_BY_ID = {s.value: s for s in Setup}


class ExperimentConfig(Record):
    __slots__ = ("qubits", "setup", "shots", "seed", "noise", "expand_permutations", "violation_sigmas")

    def __init__(
        self,
        qubits: int,
        setup: Setup,
        shots: int = 16384,
        seed: int = 0,
        noise: NoiseModel = NoiseModel(),
        expand_permutations: bool = False,
        violation_sigmas: float = 3.0,
    ) -> None:
        member = _SETUP_BY_ID.get(setup) if type(setup) is str else None
        setup = member if member is not None else Setup(setup)
        qubits = check_int("qubits", qubits)
        if qubits not in QUBIT_COUNTS:
            raise ValueError(f"qubits must be one of {QUBIT_COUNTS}, got {qubits}")
        shots = check_shots(shots)
        seed = check_int("seed", seed)
        if not isinstance(noise, NoiseModel):
            raise ValueError(f"noise must be a NoiseModel, got {noise!r}")
        if not isinstance(expand_permutations, bool):
            raise ValueError(f"expand_permutations must be a bool, got {expand_permutations!r}")
        violation_sigmas = check_real("violation_sigmas", violation_sigmas, 0.0)
        self._set(qubits, setup, shots, seed, noise, expand_permutations, violation_sigmas)


class TermEstimate(Record):
    """One measured circuit: its class, coefficient, and estimate.  The Y
    count is read as an int >= 0, the coefficient as an int and the
    multiplicity as an int >= 1, the axes must be a str, the value and error
    are read as finite floats (the error >= 0) and the seed as an int >= 0,
    a seed a draw can use; anything else raises ``ValueError``."""

    __slots__ = ("y_count", "axes", "coefficient", "multiplicity", "value", "error", "seed")

    def __init__(
        self, y_count: int, axes: str, coefficient: int, multiplicity: int, value: float, error: float, seed: int
    ) -> None:
        y_count = check_int("term y_count", y_count, 0)
        if not isinstance(axes, str):
            raise ValueError(f"term axes must be a str, got {axes!r}")
        coefficient = check_int("term coefficient", coefficient)
        multiplicity = check_int("term multiplicity", multiplicity, 1)
        value = check_real("term value", value, -math.inf)
        error = check_real("term error", error, 0.0)
        seed = check_int("term seed", seed, 0)
        self._set(y_count, axes, coefficient, multiplicity, value, error, seed)


class ExperimentReport(Record):
    """What one run measured.  Its cell's polynomial, bounds, GHZ phase and
    published rows are the checked catalog entry's (``_checked_setup``).
    Its terms state its run's plan entries in order (axes, coefficient,
    multiplicity, Y count), so every writer reads their frames from the
    plan.  A report with no ``ExperimentConfig``, other terms, a non-finite
    value or error, a verdict other than ``VERDICT_VIOLATES`` or
    ``VERDICT_CONSISTENT``, or a ``genuine_fourparty`` that is not a bool on a
    run whose cell states the genuine n-party claim (``_Cell.genuine_bound``)
    and None on any other, is refused with ``ValueError`` when it is built."""

    __slots__ = ("config", "terms", "value", "error", "verdict", "genuine_fourparty")

    def __init__(
        self,
        config: ExperimentConfig,
        terms: tuple[TermEstimate, ...],
        value: float,
        error: float,
        verdict: str,
        genuine_fourparty: bool | None,
    ) -> None:
        if not isinstance(config, ExperimentConfig):
            raise ValueError(f"config must be an ExperimentConfig, got {config!r}")
        cell = _checked_setup(config.qubits, config.setup)
        stated = cell.modes[config.expand_permutations].stated
        terms = check_items("terms", terms)
        # A term of another type drops out here, so its terms state no plan.
        stating = [(t.y_count, t.axes, t.coefficient, t.multiplicity) for t in terms if type(t) is TermEstimate]
        if tuple(stating) != stated:
            raise ValueError(f"terms must be the TermEstimates of the run's {len(stated)} planned terms in order")
        value = check_real("result value", value, -math.inf)
        error = check_real("result error", error, 0.0)
        if verdict not in (VERDICT_VIOLATES, VERDICT_CONSISTENT):
            raise ValueError(f"verdict must be {VERDICT_VIOLATES!r} or {VERDICT_CONSISTENT!r}, got {verdict!r}")
        flag = genuine_fourparty
        if cell.genuine_bound is not None:
            if type(flag) is not bool:
                raise ValueError(f"genuine_fourparty must be a bool on a run with the n-party claim, got {flag!r}")
        elif flag is not None:
            raise ValueError(f"genuine_fourparty must be None on a run without the n-party claim, got {flag!r}")
        self._set(config, terms, value, error, verdict, genuine_fourparty)

    def to_dict(self) -> dict:
        """The stored report as data: the JSON text ``render_report`` writes,
        parsed; ``from_dict`` is its one reader."""
        return json.loads(_experiment_json(self))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        """Load a stored report: read each field into the report's types,
        recomputing nothing, and refuse it unless it renders back to the same
        JSON.  So every field the writer derives (per-cell fields, term plan,
        ``error_rounded``) must be the writer's, byte for byte; seeds,
        measurements and config inputs load as stored.  A wrong shape raises
        ``ValueError``."""
        try:
            if d.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(f"unsupported schema_version {d.get('schema_version')}")
            cfg, result = _mapping(d, "config"), _mapping(d, "result")
            noise = _mapping(cfg, "noise")
            config = ExperimentConfig(
                qubits=cfg["qubits"],
                setup=cfg["setup"],
                shots=cfg["shots"],
                seed=cfg["seed"],
                noise=NoiseModel(noise["p1"], noise["p2"], noise["readout_flip"]),
                expand_permutations=cfg["expand_permutations"],
                violation_sigmas=cfg["violation_sigmas"],
            )
            plan = _plan(config)
            stored = d["terms"]
            if len(stored) != len(plan):
                raise ValueError(
                    f"stored report field 'terms' lists {len(stored)} terms; the run measures {len(plan)}"
                )
            terms = tuple(
                TermEstimate(e.y_count, e.axes, e.coefficient, e.multiplicity, t["value"], t["error"], t["seed"])
                for e, t in zip(plan, stored)
            )
            report = cls(
                config=config,
                terms=terms,
                value=result["value"],
                error=result["error"],
                verdict=d["verdict"],
                genuine_fourparty=d["genuine_fourparty"],
            )
            again = report.to_dict()
            if _dumps(d) != _dumps(again):
                keys = sorted(d.keys() | again.keys())
                key = next(k for k in keys if k not in d or k not in again or _dumps(d[k]) != _dumps(again[k]))
                raise ValueError(f"stored report field {key!r} is not what the report re-renders")
            return report
        except KeyError as exc:  # from any nested section: config, terms, result
            raise ValueError(f"stored report lacks field {exc.args[0]!r}") from None
        except (TypeError, AttributeError, IndexError, ArithmeticError) as exc:
            raise ValueError(f"stored report has the wrong shape: {exc}") from None


@lru_cache(maxsize=_MEMO_SIZE)
def _plan_weights(
    n: int, phase: float, axes: tuple[str, ...], noise: NoiseModel
) -> tuple[np.ndarray, ...]:
    """The multinomial weights of every circuit of a run, in plan order:
    GHZ(n, phase) measured along each ``axes`` entry, its exact outcome
    distribution through ``checked_weights``.  So each is checked once, when
    its plan enters the memo, and a warm run looks them all up (and hashes
    its ``noise``) once and shares read-only arrays.  A plan with a
    distribution that fails its checks raises and is not memoised."""
    ghz = ghz_circuit(n, phase)
    return tuple(checked_weights(outcome_probabilities(ghz.then(measurement_transform(a)), noise)) for a in axes)


class _PlannedTerm(NamedTuple):
    """One circuit a run measures: what its report term states, the label
    its seed is derived with from the config seed (``seed_label``), its
    weight in the polynomial, coefficient * multiplicity (a class estimate
    serves all its copies), and the term's render frames (``_json_frame``,
    ``_csv_head``), which hold everything a rendered term states but its
    measurement and seed."""

    axes: str
    coefficient: int
    multiplicity: int
    y_count: int
    label: bytes
    weight: float
    json_frame: tuple[str, str, str, str, str]
    csv_head: str


def _planned(axes: str, coefficient: int, multiplicity: int, *label: object) -> _PlannedTerm:
    weight = float(coefficient) * multiplicity
    term = _PlannedTerm(axes, coefficient, multiplicity, axes.count("Y"), seed_label(*label), weight, None, "")
    return term._replace(json_frame=_json_frame(term), csv_head=_csv_head(term))


def recheck_bounds(sc: SetupConfig) -> tuple[list[tuple[str, bool, str]], float, float | None]:
    """Recompute the entry's LR bound by brute force and its QM value as the
    GHZ eigenvalue, and compare both with the stored ones.

    Returns the two (name, ok, detail) rows, the brute-force bound and the
    eigenvalue (None when the GHZ state is not an eigenvector).
    """
    label = f"{sc.n}q/{sc.setup.value}"
    brute = lr_bound_bruteforce(sc.polynomial)
    rows = [
        (
            f"{label} LR bound matches brute force",
            abs(brute - sc.lr_bound) <= CHECK_TOL,
            f"stored {sc.lr_bound}, brute {brute}",
        )
    ]
    try:
        lam = eigencheck(sc.polynomial, ghz_state(sc.n, sc.ghz_phase))
        ok = abs(lam - sc.qm_value) <= CHECK_TOL
        detail = f"eigenvalue {lam:.12f}, stored {sc.qm_value:.12f}"
    except EigencheckError as exc:
        lam, ok, detail = None, False, str(exc)
    rows.append((f"{label} GHZ eigenvalue matches QM value", ok, detail))
    return rows, brute, lam


class _Mode(NamedTuple):
    """One mode's term plan and what every run of it reads from the plan, in
    plan order: the seed labels, the measured axes (the ``_plan_weights``
    key), the polynomial weights, and what each report term states, as
    ``TermEstimate``'s first four fields (Y count, axes, coefficient,
    multiplicity)."""

    plan: tuple[_PlannedTerm, ...]
    labels: tuple[bytes, ...]
    axes: tuple[str, ...]
    weights: tuple[float, ...]
    stated: tuple[tuple[int, str, int, int], ...]


def _mode(plan: tuple[_PlannedTerm, ...]) -> _Mode:
    return _Mode(
        plan,
        tuple(p.label for p in plan),
        tuple(p.axes for p in plan),
        tuple(p.weight for p in plan),
        tuple((p.y_count, p.axes, p.coefficient, p.multiplicity) for p in plan),
    )


class _Cell(NamedTuple):
    """A checked catalog entry and what every report of its cell shares.
    ``modes`` is indexed by ``expand_permutations`` (one circuit per symmetry
    class, or every term)."""

    config: SetupConfig
    modes: tuple[_Mode, _Mode]
    # The stored text of a report's five per-cell fields (the lines between
    # ``genuine_fourparty`` and ``result``).
    text: str
    # The markdown table's published rows, whose columns are the class plan's:
    # a class-mode table shows them, an expanded one does not.
    md_published: tuple[str, ...]
    # The genuine n-party claim's threshold, the k = n - 1 hybrid bound; None if not below QM.
    genuine_bound: float | None


@lru_cache(maxsize=_MEMO_SIZE)
def _checked_setup(n: int, setup: Setup) -> _Cell:
    """The catalog entry of a cell with its term plans, render frames and
    genuine n-party bound.  Bounds are rechecked when the entry is built; a
    failed recheck raises and is not memoised."""
    sc = setup_config(n, setup)
    for name, ok, detail in recheck_bounds(sc)[0]:
        if not ok:
            raise InvariantError(f"{name}: FAIL ({detail})")
    poly, table = sc.polynomial, reference.device_results(sc.n, sc.setup.value)
    terms = [{"axes": s, "coefficient": [c, 1]} for c, s in poly.terms]
    cell = {
        "ghz_phase": sc.ghz_phase,
        "lr_bound": sc.lr_bound,
        "polynomial": {"n": poly.n, "terms": terms, "lr_bound": poly.lr_bound, "qm_value": poly.qm_value},
        "published_reference": table,
        "qm_value": sc.qm_value,
    }
    cell_label = (sc.setup.value, sc.n)
    by_class = tuple(
        _planned(
            "X" * (n - cl.y_count) + "Y" * cl.y_count,
            cl.coefficient,
            cl.multiplicity,
            *cell_label,
            "class",
            cl.y_count,
        )
        for cl in collapse(poly)
    )
    every_term = tuple(_planned(s, c, 1, *cell_label, "term", s) for c, s in poly.terms)
    genuine = lr_bound_bruteforce(poly, n - 1)
    return _Cell(
        sc,
        (_mode(by_class), _mode(every_term)),
        _dumps(cell)[2:-2],
        _md_published(table, lambda row: f"{row['result']:.2f} +/- {table['result_error']}"),
        genuine if genuine < sc.qm_value - CHECK_TOL else None,
    )


def _plan(cfg: ExperimentConfig) -> tuple[_PlannedTerm, ...]:
    """The term plan of a run: the circuits it measures, in order."""
    return _checked_setup(cfg.qubits, cfg.setup).modes[cfg.expand_permutations].plan


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute one full violation test.

    The checked catalog entry (with each mode's term plan, seed labels,
    axes, polynomial weights and stated terms) and each circuit's checked
    multinomial weights are memoised per process, so a later run of the
    cell only derives seeds, draws shots, estimates the count matrix and
    builds the report.
    Every circuit owns a seed derived from (config seed, setup, class), so
    the report is byte-identical for a cold or warm memo.
    """
    cell = _checked_setup(cfg.qubits, cfg.setup)
    sc = cell.config
    _, labels, axes, weights, stated = cell.modes[cfg.expand_permutations]
    # Each planned term's seed derives from the config seed and its label; its
    # shots are drawn from the memoised multinomial weights (the exact
    # distribution, checked once when it entered the memo), and the run's
    # count matrix is estimated in one pass.
    seeds = derive_seeds(cfg.seed, labels)
    probs = _plan_weights(cfg.qubits, sc.ghz_phase, axes, cfg.noise)
    values, errors = parity_estimates(draw_counts(zip(probs, seeds), cfg.shots), cfg.shots)
    terms = tuple(TermEstimate(*term, v, e, s) for term, v, e, s in zip(stated, values, errors, seeds))
    value, error = polynomial_estimate_expanded(zip(weights, terms))

    # Both claims hold only with violation_sigmas standard errors to spare.
    lower = value - cfg.violation_sigmas * error
    return ExperimentReport(
        config=cfg,
        terms=terms,
        value=value,
        error=error,
        verdict=VERDICT_VIOLATES if lower > sc.lr_bound else VERDICT_CONSISTENT,
        genuine_fourparty=None if cell.genuine_bound is None else bool(lower > cell.genuine_bound),
    )


def run_exchange_test(
    shots: int = 16384,
    seed: int = 0,
    noise: NoiseModel = NoiseModel(),
    qubits: int = 3,
) -> ExperimentReport:
    """The exchange test: the expanded ``mermin`` run, which measures every
    single-Y permutation (among all its terms) as its own circuit on
    GHZ(n, pi/2).  ``render_exchange_report`` shows those permutations.

    The standard test uses three qubits; larger n runs the same check on the
    n available permutations.
    """
    return run_experiment(ExperimentConfig(qubits, Setup.MERMIN, shots, seed, noise, expand_permutations=True))


def _exchange_view(
    report: ExperimentReport,
) -> tuple[tuple[_PlannedTerm, ...], tuple[TermEstimate, ...], float]:
    """The exchange test's view of an expanded ``mermin`` run: its single-Y
    plan entries and terms (Y rightmost first) and the terms'
    ``exchange_spread``."""
    cfg = report.config
    if cfg.setup is not Setup.MERMIN or not cfg.expand_permutations:
        mode = "expanded" if cfg.expand_permutations else "class-mode"
        raise ValueError(f"an exchange report shows an expanded mermin run, not a {mode} {cfg.setup.value} run")
    plan, terms = zip(*((p, t) for p, t in zip(_plan(cfg), report.terms) if p.y_count == 1))
    return plan, terms, exchange_spread([t.value for t in terms])


# The stored report is the JSON that json.dumps(..., indent=2, sort_keys=True,
# allow_nan=False) would write for it.  The writers below spell out the
# per-run fields as templates whose keys are already sorted.  A number that a
# record's constructor read as a plain int or finite float (``check_int``,
# ``check_real``, ``round_error``) is written as its ``repr``, which is what
# ``_json`` returns for it; every other per-run value goes through ``_json``.
# What a report shares with its cell is written once per cell, into the catalog
# entry: the per-cell text, each planned term's frames and the markdown table's
# published rows.  The published exchange table (three qubits only) is dumped
# once, below.


def _dumps(value: object) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _json(value: object, depth: int) -> str:
    """``value`` as it is written at nesting ``depth``: ints, finite floats,
    strings, bools and None (exact types) inline, the way json encodes them;
    anything else (containers, subclasses, nan, inf, other types) through
    ``_dumps``, which also raises its ValueError or TypeError."""
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return repr(value)
    elif kind is int:
        return repr(value)
    elif kind is str:
        return encode_basestring_ascii(value)
    elif value is None:
        return "null"
    elif kind is bool:
        return "true" if value else "false"
    return _dumps(value).replace("\n", "\n" + "  " * depth)


# A term's render frames hold what it states but its measurement and seed.
# Each builder below is the one template of its layout, and a catalog entry
# calls it once per planned term: a report's terms are its plan's
# (``ExperimentReport``), so every render reads the plan's frames.


def _json_frame(term: _PlannedTerm) -> tuple[str, str, str, str, str]:
    """A stored term's text around its ``error``, ``error_rounded``,
    ``seed`` and ``value``."""
    j = _json
    return (
        f"""    {{
      "axes": {j(term.axes, 3)},
      "coefficient": [
        {j(term.coefficient, 4)},
        1
      ],
      "error": """,
        """,
      "error_rounded": """,
        f""",
      "multiplicity": {j(term.multiplicity, 3)},
      "seed": """,
        """,
      "value": """,
        f""",
      "y_count": {j(term.y_count, 3)}
    }}""",
    )


def _csv_head(term: _PlannedTerm) -> str:
    """A CSV term row up to its value."""
    return f"term,{term.y_count},{term.axes},{term.coefficient},{term.multiplicity},"


def _md_head(terms: Sequence[_PlannedTerm], last: str) -> tuple[str, str]:
    """A markdown table's column header and separator: one column per term
    plus a ``last`` column."""
    return (
        "| source | " + " | ".join(f"<{t.axes}>" for t in terms) + f" | {last} |",
        "|" + "---|" * (len(terms) + 2),
    )


def _md_published(ref: dict | None, last: Callable[[dict], str]) -> tuple[str, ...]:
    """A markdown table's published rows: one per machine of ``ref``, whose
    last cell is ``last(row)``; none for no table."""
    if ref is None:
        return ()
    return tuple(
        f"| {machine} (published) | "
        + " | ".join(f"{v:.3f} +/- {ref['term_error']}" for v in row["terms"])
        + f" | {last(row)} |"
        for machine, row in ref["rows"].items()
    )


def _terms_json(terms: Sequence[TermEstimate], plan: Sequence[_PlannedTerm]) -> str:
    """The stored ``terms`` list, written into the frames of their ``plan``
    entries."""
    return "[\n" + ",\n".join(
        f"{a}{t.error!r}{b}{round_error(t.error)!r}{c}{t.seed!r}{d}{t.value!r}{e}"
        for t, (a, b, c, d, e) in zip(terms, (p.json_frame for p in plan))
    ) + "\n  ]"


def _experiment_json(report: ExperimentReport) -> str:
    """The stored experiment report: the one writer of its layout."""
    cfg, noise, j = report.config, report.config.noise, _json
    cell = _checked_setup(cfg.qubits, cfg.setup)
    return f"""{{
  "config": {{
    "expand_permutations": {j(cfg.expand_permutations, 2)},
    "noise": {{
      "p1": {noise.p1!r},
      "p2": {noise.p2!r},
      "readout_flip": {noise.readout_flip!r}
    }},
    "qubits": {cfg.qubits!r},
    "seed": {cfg.seed!r},
    "setup": {j(cfg.setup.value, 2)},
    "shots": {cfg.shots!r},
    "violation_sigmas": {cfg.violation_sigmas!r}
  }},
  "genuine_fourparty": {j(report.genuine_fourparty, 1)},
{cell.text},
  "result": {{
    "error": {report.error!r},
    "error_rounded": {round_error(report.error)!r},
    "value": {report.value!r}
  }},
  "schema_version": {j(SCHEMA_VERSION, 1)},
  "terms": {_terms_json(report.terms, cell.modes[cfg.expand_permutations].plan)},
  "verdict": {j(report.verdict, 1)}
}}
"""


def _exchange_table(qubits: int) -> dict | None:
    """The published exchange rows, which exist at three qubits only."""
    return reference.exchange_results() if qubits == 3 else None


_EXCHANGE_TABLE_TEXT = {n: _json(_exchange_table(n), 1) for n in QUBIT_COUNTS}


def _exchange_json(report: ExperimentReport) -> str:
    """The stored exchange report, from the same leaves and sections."""
    plan, terms, spread = _exchange_view(report)
    cfg, noise, j = report.config, report.config.noise, _json
    return f"""{{
  "noise": {{
    "p1": {noise.p1!r},
    "p2": {noise.p2!r},
    "readout_flip": {noise.readout_flip!r}
  }},
  "published_reference": {_EXCHANGE_TABLE_TEXT[cfg.qubits]},
  "qubits": {cfg.qubits!r},
  "schema_version": {j(SCHEMA_VERSION, 1)},
  "seed": {cfg.seed!r},
  "shots": {cfg.shots!r},
  "spread": {j(spread, 1)},
  "terms": {_terms_json(terms, plan)}
}}
"""


def _render(
    report: ExperimentReport,
    fmt: str,
    json_writer: Callable[[ExperimentReport], str],
    builders: dict[str, Callable[[ExperimentReport], list[str]]],
) -> str:
    """The one format dispatch: 'json' is the stored report (full precision,
    round-trips); 'csv' and 'md' join the lines of their builder."""
    if fmt == "json":
        return json_writer(report)
    if fmt not in builders:
        raise ValueError(f"unknown format {fmt!r}; choose one of {RENDER_FORMATS}")
    return "\n".join(builders[fmt](report)) + "\n"


def _fmt_pm(value: float, error: float) -> str:
    return f"{value:.3f} +/- {round_error(error)}"


def _md_params(cfg: ExperimentConfig) -> str:
    noise = cfg.noise
    return f"shots {cfg.shots}, seed {cfg.seed}, noise p1={noise.p1} p2={noise.p2} readout={noise.readout_flip}"


def _md_simulated(terms: Sequence[TermEstimate], last: str) -> str:
    """A markdown table's simulated row: each term's value and error, then ``last``."""
    return "| simulated | " + " | ".join(_fmt_pm(t.value, t.error) for t in terms) + f" | {last} |"


def _csv_lines(report: ExperimentReport) -> list[str]:
    lines = ["row,y_count,axes,coefficient,multiplicity,value,error,error_rounded"]
    for p, t in zip(_plan(report.config), report.terms):
        lines.append(f"{p.csv_head}{t.value!r},{t.error!r},{round_error(t.error)!r}")
    lines.append(
        f"result,,,,,{report.value!r},{report.error!r},{round_error(report.error)!r}"
    )
    return lines


def _md_lines(report: ExperimentReport) -> list[str]:
    cfg = report.config
    cell = _checked_setup(cfg.qubits, cfg.setup)
    expanded = cfg.expand_permutations
    out = [
        f"# Mermin test: {cfg.qubits} qubits, setup {cfg.setup.value}",
        "",
        _md_params(cfg) + f", expanded={expanded}",
        "",
        *_md_head(cell.modes[expanded].plan, "result"),
        _md_simulated(report.terms, _fmt_pm(report.value, report.error)),
        *(() if expanded else cell.md_published),
        "",
        f"LR bound {cell.config.lr_bound}, QM value {cell.config.qm_value:.6f}, "
        f"verdict **{report.verdict}** "
        f"(value - {cfg.violation_sigmas} * error vs LR bound)",
    ]
    if report.genuine_fourparty is not None:
        state = "exceeds" if report.genuine_fourparty else "does not exceed"
        out.append(
            f"genuine four-party nonlocality: value {state} {cell.genuine_bound}"
            f" by more than {cfg.violation_sigmas} sigma"
        )
    return out


def _exchange_csv_lines(report: ExperimentReport) -> list[str]:
    _, terms, spread = _exchange_view(report)
    lines = ["row,axes,value,error,error_rounded"]
    for t in terms:
        lines.append(f"term,{t.axes},{t.value!r},{t.error!r},{round_error(t.error)!r}")
    lines.append(f"spread,,{spread!r},,")
    return lines


def _exchange_md_lines(report: ExperimentReport) -> list[str]:
    plan, terms, spread = _exchange_view(report)
    cfg = report.config
    return [
        f"# Exchange test: {cfg.qubits} qubits",
        "",
        _md_params(cfg),
        "",
        *_md_head(plan, "spread"),
        _md_simulated(terms, f"{spread:.4f}"),
        *_md_published(_exchange_table(cfg.qubits), lambda row: f"{row['spread']:.3f}"),
    ]


def render_report(report: ExperimentReport, fmt: str = "json") -> str:
    """Render to 'json' (full precision, round-trips), 'csv', or 'md'."""
    return _render(report, fmt, _experiment_json, {"csv": _csv_lines, "md": _md_lines})


def render_exchange_report(report: ExperimentReport, fmt: str = "json") -> str:
    """Render the exchange view of an expanded ``mermin`` run (its single-Y
    terms and their spread) to 'json', 'csv', or 'md'; any other run raises
    ``ValueError``."""
    return _render(report, fmt, _exchange_json, {"csv": _exchange_csv_lines, "md": _exchange_md_lines})


def verify_invariants() -> list[tuple[str, bool, str]]:
    """Fast self-checks over all nine setups; returns (name, ok, detail) rows."""
    results: list[tuple[str, bool, str]] = []
    for sc in all_setup_configs():
        n = sc.n
        results += recheck_bounds(sc)[0]
        state = ghz_state(n, sc.ghz_phase)
        closed_ok = True
        worst = 0.0
        for cl in collapse(sc.polynomial):
            axes = "X" * (n - cl.y_count) + "Y" * cl.y_count
            got = exact_expectation(state, axes)
            want = math.cos(sc.ghz_phase - cl.y_count * math.pi / 2)
            worst = max(worst, abs(got - want))
            closed_ok &= abs(got - want) <= CHECK_TOL
            probs = probabilities(run(ghz_circuit(n, sc.ghz_phase).then(measurement_transform(axes))))
            parity = float(sum(p * s for p, s in zip(probs, PARITY_SIGNS)))
            worst = max(worst, abs(parity - got))
            closed_ok &= abs(parity - got) <= CHECK_TOL
        results.append(
            (
                f"{n}q/{sc.setup.value} class expectations match cos(phase - Y*pi/2) and circuit parity",
                closed_ok,
                f"worst deviation {worst:.2e}",
            )
        )
    return results
