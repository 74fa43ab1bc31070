"""Experiment harness: run a full Mermin violation test and render reports.

A run measures one circuit per symmetry class (or per expanded term), combines
the class estimates into the polynomial value with propagated errors, and
judges the result against the local-realistic bound.  Reports carry the
published device rows for the same combination so the tables can be compared
side by side.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import reference
from .circuits import Setup, SetupConfig, ghz_circuit, measurement_transform, run, setup_config
from .lhv import GENUINE_FOURPARTY_BOUND, lr_bound_bruteforce
from .noise import NoiseModel, outcome_probabilities
from .pauli import PauliString
from .polynomials import MerminPolynomial, SymmetryClass, collapse, eigencheck
from .sampling import (
    Estimate,
    derive_seed,
    exchange_spread,
    expectation_from_counts,
    polynomial_estimate,
    polynomial_estimate_expanded,
    round_error,
    sample_shots,
)
from .statevector import ghz_state, probabilities

SCHEMA_VERSION = 1
BOUND_RECHECK_TOL = 1e-9
# Entries per memo below; all 18 cells at three noise levels need 276 distributions.
_MEMO_SIZE = 1024

VERDICT_VIOLATES = "VIOLATES_LR"
VERDICT_CONSISTENT = "CONSISTENT_WITH_LR"

RENDER_FORMATS = ("json", "csv", "md")


class InvariantError(RuntimeError):
    """An internal consistency recheck failed while assembling a report."""


def _check_shots(shots: int) -> int:
    """A positive int; bools and floats (even integral ones) are rejected."""
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return int(shots)


@dataclass(frozen=True)
class ExperimentConfig:
    qubits: int
    setup: Setup
    shots: int = 16384
    seed: int = 0
    noise: NoiseModel = NoiseModel()
    expand_permutations: bool = False
    violation_sigmas: float = 3.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "setup", Setup(self.setup))
        if self.qubits not in (3, 4, 5):
            raise ValueError(f"qubits must be 3, 4 or 5, got {self.qubits}")
        object.__setattr__(self, "shots", _check_shots(self.shots))
        if not (math.isfinite(self.violation_sigmas) and self.violation_sigmas >= 0):
            raise ValueError(
                f"violation_sigmas must be finite and >= 0, got {self.violation_sigmas}"
            )

    def to_dict(self) -> dict:
        return {
            "qubits": self.qubits,
            "setup": self.setup.value,
            "shots": self.shots,
            "seed": self.seed,
            "noise": self.noise.to_dict(),
            "expand_permutations": self.expand_permutations,
            "violation_sigmas": self.violation_sigmas,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(
            qubits=d["qubits"],
            setup=Setup(d["setup"]),
            shots=d["shots"],
            seed=d["seed"],
            noise=NoiseModel.from_dict(d["noise"]),
            expand_permutations=d["expand_permutations"],
            violation_sigmas=d["violation_sigmas"],
        )


@dataclass(frozen=True)
class TermEstimate:
    """One measured circuit: its class, coefficient, and estimate."""

    y_count: int
    axes: str
    coefficient: Fraction
    multiplicity: int
    value: float
    error: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "y_count": self.y_count,
            "axes": self.axes,
            "coefficient": [self.coefficient.numerator, self.coefficient.denominator],
            "multiplicity": self.multiplicity,
            "value": self.value,
            "error": self.error,
            "error_rounded": round_error(self.error),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TermEstimate":
        return cls(
            y_count=d["y_count"],
            axes=d["axes"],
            coefficient=Fraction(d["coefficient"][0], d["coefficient"][1]),
            multiplicity=d["multiplicity"],
            value=d["value"],
            error=d["error"],
            seed=d["seed"],
        )


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    ghz_phase: float
    polynomial: MerminPolynomial
    terms: tuple[TermEstimate, ...]
    value: float
    error: float
    lr_bound: float
    qm_value: float
    verdict: str
    genuine_fourparty: bool | None
    published_reference: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "ghz_phase": self.ghz_phase,
            "polynomial": self.polynomial.to_dict(),
            "terms": [t.to_dict() for t in self.terms],
            "result": {
                "value": self.value,
                "error": self.error,
                "error_rounded": round_error(self.error),
            },
            "lr_bound": self.lr_bound,
            "qm_value": self.qm_value,
            "verdict": self.verdict,
            "genuine_fourparty": self.genuine_fourparty,
            "published_reference": self.published_reference,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {d.get('schema_version')}")
        return cls(
            config=ExperimentConfig.from_dict(d["config"]),
            ghz_phase=d["ghz_phase"],
            polynomial=MerminPolynomial.from_dict(d["polynomial"]),
            terms=tuple(TermEstimate.from_dict(t) for t in d["terms"]),
            value=d["result"]["value"],
            error=d["result"]["error"],
            lr_bound=d["lr_bound"],
            qm_value=d["qm_value"],
            verdict=d["verdict"],
            genuine_fourparty=d["genuine_fourparty"],
            published_reference=d["published_reference"],
        )


@dataclass(frozen=True)
class ExchangeReport:
    """Independently measured permutations of one symmetry class."""

    qubits: int
    shots: int
    seed: int
    noise: NoiseModel
    terms: tuple[TermEstimate, ...]
    spread: float
    published_reference: dict | None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "qubits": self.qubits,
            "shots": self.shots,
            "seed": self.seed,
            "noise": self.noise.to_dict(),
            "terms": [t.to_dict() for t in self.terms],
            "spread": self.spread,
            "published_reference": self.published_reference,
        }


@lru_cache(maxsize=_MEMO_SIZE)
def _exact_distribution(n: int, phase: float, axes: str, noise: NoiseModel) -> np.ndarray:
    """Read-only exact outcome distribution of GHZ(n, phase) measured along
    ``axes``; memoised, as it does not depend on the seed."""
    circuit = ghz_circuit(n, phase).then(measurement_transform(PauliString.from_str(axes)))
    probs = outcome_probabilities(circuit, noise)
    probs.setflags(write=False)  # one array is shared by every later run
    return probs


def _measure_axes(
    n: int,
    phase: float,
    axes: str,
    shots: int,
    seed: int,
    noise: NoiseModel,
) -> Estimate:
    """Estimate <axes> on GHZ(n, phase): ``shots`` drawn with ``seed`` from the
    memoised exact distribution, so only the first call per circuit evolves it."""
    probs = _exact_distribution(n, phase, axes, noise)
    return expectation_from_counts(sample_shots(probs, shots, seed))


def _recheck_bounds(cfg_n: int, phase: float, poly: MerminPolynomial) -> None:
    """Raise InvariantError unless ``poly``'s stored LR bound matches brute
    force and its QM value the GHZ(cfg_n, phase) eigenvalue.  Runs once per
    catalog entry per process, from ``_checked_setup``."""
    brute = lr_bound_bruteforce(poly)
    if abs(brute - poly.lr_bound) > BOUND_RECHECK_TOL:
        raise InvariantError(
            f"stored LR bound {poly.lr_bound} disagrees with brute force {brute}"
        )
    lam = eigencheck(poly, ghz_state(cfg_n, phase))
    if abs(lam - poly.qm_value) > BOUND_RECHECK_TOL:
        raise InvariantError(f"stored QM value {poly.qm_value} disagrees with eigenvalue {lam}")


@lru_cache(maxsize=_MEMO_SIZE)
def _checked_setup(n: int, setup: Setup) -> tuple[SetupConfig, tuple[SymmetryClass, ...]]:
    """The catalog entry and its symmetry classes, bounds rechecked when the
    entry is built; a failed recheck raises and is not memoised."""
    sc = setup_config(n, setup)
    _recheck_bounds(n, sc.ghz_phase, sc.polynomial)
    return sc, tuple(collapse(sc.polynomial))


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Execute one full violation test.

    The checked catalog entry and each circuit's exact distribution are
    memoised per process, so a later run of the cell only redraws shots.
    ``workers`` only parallelizes the per-class measurements; every circuit
    owns a seed derived from (config seed, setup, class), so the report is
    byte-identical for any worker count and for a cold or warm memo.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    sc, classes = _checked_setup(cfg.qubits, cfg.setup)

    if cfg.expand_permutations:
        jobs = [
            (s.y_count, str(s), coeff, 1, derive_seed(cfg.seed, cfg.setup.value, cfg.qubits, "term", str(s)))
            for coeff, s in sc.polynomial.terms
        ]
    else:
        jobs = [
            (
                cl.y_count,
                "X" * (cfg.qubits - cl.y_count) + "Y" * cl.y_count,
                cl.coefficient,
                cl.multiplicity,
                derive_seed(cfg.seed, cfg.setup.value, cfg.qubits, "class", cl.y_count),
            )
            for cl in classes
        ]

    def measure(job: tuple) -> Estimate:
        _, axes, _, _, seed = job
        return _measure_axes(cfg.qubits, sc.ghz_phase, axes, cfg.shots, seed, cfg.noise)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            estimates = list(pool.map(measure, jobs))
    else:
        estimates = [measure(j) for j in jobs]

    terms = tuple(
        TermEstimate(y, axes, coeff, mult, est.value, est.error, seed)
        for (y, axes, coeff, mult, seed), est in zip(jobs, estimates)
    )
    if cfg.expand_permutations:
        total = polynomial_estimate_expanded([(t.coefficient, e) for t, e in zip(terms, estimates)])
    else:
        total = polynomial_estimate(classes, {t.y_count: e for t, e in zip(terms, estimates)})

    violates = total.value - cfg.violation_sigmas * total.error > sc.lr_bound
    genuine: bool | None = None
    if cfg.qubits == 4 and cfg.setup in (Setup.AL, Setup.AL_MODIFIED):
        genuine = bool(total.value > GENUINE_FOURPARTY_BOUND)

    return ExperimentReport(
        config=cfg,
        ghz_phase=sc.ghz_phase,
        polynomial=sc.polynomial,
        terms=terms,
        value=total.value,
        error=total.error,
        lr_bound=sc.lr_bound,
        qm_value=sc.qm_value,
        verdict=VERDICT_VIOLATES if violates else VERDICT_CONSISTENT,
        genuine_fourparty=genuine,
        published_reference=reference.device_results(cfg.qubits, cfg.setup.value),
    )


def run_exchange_test(
    shots: int = 16384,
    seed: int = 0,
    noise: NoiseModel = NoiseModel(),
    qubits: int = 3,
) -> ExchangeReport:
    """Measure every single-Y permutation as its own circuit on GHZ(n, pi/2).

    The standard test uses three qubits; larger n runs the same check on the
    n available permutations.
    """
    if qubits not in (3, 4, 5):
        raise ValueError(f"qubits must be 3, 4 or 5, got {qubits}")
    shots = _check_shots(shots)
    phase = math.pi / 2
    axes_list = ["X" * k + "Y" + "X" * (qubits - 1 - k) for k in reversed(range(qubits))]
    terms = []
    estimates = []
    for axes in axes_list:
        term_seed = derive_seed(seed, "exchange", qubits, axes)
        est = _measure_axes(qubits, phase, axes, shots, term_seed, noise)
        estimates.append(est)
        terms.append(TermEstimate(1, axes, Fraction(1), 1, est.value, est.error, term_seed))
    return ExchangeReport(
        qubits=qubits,
        shots=shots,
        seed=seed,
        noise=noise,
        terms=tuple(terms),
        spread=exchange_spread(estimates),
        published_reference=reference.exchange_results() if qubits == 3 else None,
    )


def _render_json(d: dict) -> str:
    return json.dumps(d, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _render_csv(report: ExperimentReport) -> str:
    lines = ["row,y_count,axes,coefficient,multiplicity,value,error,error_rounded"]
    for t in report.terms:
        lines.append(
            f"term,{t.y_count},{t.axes},{t.coefficient},{t.multiplicity},"
            f"{t.value!r},{t.error!r},{round_error(t.error)!r}"
        )
    lines.append(
        f"result,,,,,{report.value!r},{report.error!r},{round_error(report.error)!r}"
    )
    return "\n".join(lines) + "\n"


def _fmt_pm(value: float, error: float) -> str:
    return f"{value:.3f} +/- {round_error(error)}"


def _render_md(report: ExperimentReport) -> str:
    cfg = report.config
    ref = report.published_reference
    header = [f"<{t.axes}>" for t in report.terms]
    out = [
        f"# Mermin test: {cfg.qubits} qubits, setup {cfg.setup.value}",
        "",
        f"shots {cfg.shots}, seed {cfg.seed}, noise p1={cfg.noise.p1} p2={cfg.noise.p2} "
        f"readout={cfg.noise.readout_flip}, expanded={cfg.expand_permutations}",
        "",
        "| source | " + " | ".join(header) + " | result |",
        "|" + "---|" * (len(header) + 2),
    ]
    sim_cells = [_fmt_pm(t.value, t.error) for t in report.terms]
    out.append(
        "| simulated | " + " | ".join(sim_cells) + f" | {_fmt_pm(report.value, report.error)} |"
    )
    if not cfg.expand_permutations and ref["columns"] == [t.axes for t in report.terms]:
        for machine, row in ref["rows"].items():
            cells = [f"{v:.3f} +/- {ref['term_error']}" for v in row["terms"]]
            out.append(
                f"| {machine} (published) | "
                + " | ".join(cells)
                + f" | {row['result']:.2f} +/- {ref['result_error']} |"
            )
    out += [
        "",
        f"LR bound {report.lr_bound}, QM value {report.qm_value:.6f}, "
        f"verdict **{report.verdict}** "
        f"(value - {cfg.violation_sigmas} * error vs LR bound)",
    ]
    if report.genuine_fourparty is not None:
        state = "exceeds" if report.genuine_fourparty else "does not exceed"
        out.append(
            f"genuine four-party nonlocality: value {state} {GENUINE_FOURPARTY_BOUND}"
        )
    return "\n".join(out) + "\n"


def render_report(report: ExperimentReport, fmt: str = "json") -> str:
    """Render to 'json' (full precision, round-trips), 'csv', or 'md'."""
    if fmt == "json":
        return _render_json(report.to_dict())
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "md":
        return _render_md(report)
    raise ValueError(f"unknown format {fmt!r}; choose one of {RENDER_FORMATS}")


def render_exchange_report(report: ExchangeReport, fmt: str = "json") -> str:
    if fmt == "json":
        return _render_json(report.to_dict())
    if fmt == "csv":
        lines = ["row,axes,value,error,error_rounded"]
        for t in report.terms:
            lines.append(f"term,{t.axes},{t.value!r},{t.error!r},{round_error(t.error)!r}")
        lines.append(f"spread,,{report.spread!r},,")
        return "\n".join(lines) + "\n"
    if fmt == "md":
        out = [
            f"# Exchange test: {report.qubits} qubits",
            "",
            f"shots {report.shots}, seed {report.seed}, noise p1={report.noise.p1} "
            f"p2={report.noise.p2} readout={report.noise.readout_flip}",
            "",
            "| source | " + " | ".join(f"<{t.axes}>" for t in report.terms) + " | spread |",
            "|" + "---|" * (len(report.terms) + 2),
            "| simulated | "
            + " | ".join(_fmt_pm(t.value, t.error) for t in report.terms)
            + f" | {report.spread:.4f} |",
        ]
        ref = report.published_reference
        if ref is not None:
            for machine, row in ref["rows"].items():
                cells = [f"{v:.3f} +/- {ref['term_error']}" for v in row["terms"]]
                out.append(
                    f"| {machine} (published) | "
                    + " | ".join(cells)
                    + f" | {row['spread']:.3f} |"
                )
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {fmt!r}; choose one of {RENDER_FORMATS}")


def verify_invariants() -> list[tuple[str, bool, str]]:
    """Fast self-checks over all nine setups; returns (name, ok, detail) rows."""
    from .pauli import exact_expectation  # local import keeps module load light

    results: list[tuple[str, bool, str]] = []
    for n in (3, 4, 5):
        for setup in Setup:
            sc = setup_config(n, setup)
            label = f"{n}q/{setup.value}"
            brute = lr_bound_bruteforce(sc.polynomial)
            results.append(
                (
                    f"{label} LR bound matches brute force",
                    abs(brute - sc.lr_bound) <= BOUND_RECHECK_TOL,
                    f"stored {sc.lr_bound}, brute {brute}",
                )
            )
            state = ghz_state(n, sc.ghz_phase)
            try:
                lam = eigencheck(sc.polynomial, state)
                ok = abs(lam - sc.qm_value) <= BOUND_RECHECK_TOL
                detail = f"eigenvalue {lam:.12f}, stored {sc.qm_value:.12f}"
            except Exception as exc:  # EigencheckError carries the residual
                ok, detail = False, str(exc)
            results.append((f"{label} GHZ eigenvalue matches QM value", ok, detail))
            closed_ok = True
            worst = 0.0
            for cl in collapse(sc.polynomial):
                axes = "X" * (n - cl.y_count) + "Y" * cl.y_count
                got = exact_expectation(state, PauliString.from_str(axes))
                want = math.cos(sc.ghz_phase - cl.y_count * math.pi / 2)
                worst = max(worst, abs(got - want))
                closed_ok &= abs(got - want) <= 1e-10
                circuit = ghz_circuit(n, sc.ghz_phase).then(
                    measurement_transform(PauliString.from_str(axes))
                )
                probs = probabilities(run(circuit))
                signs = [(-1.0) ** bin(i).count("1") for i in range(probs.size)]
                parity = float(sum(p * s for p, s in zip(probs, signs)))
                worst = max(worst, abs(parity - got))
                closed_ok &= abs(parity - got) <= 1e-10
            results.append(
                (
                    f"{label} class expectations match cos(phase - Y*pi/2) and circuit parity",
                    closed_ok,
                    f"worst deviation {worst:.2e}",
                )
            )
    return results
