"""Checks on every operation's output.  Each check raises ``CheckError``.

The expected values come from the benchmark's own catalog (``workloads``) and
density-matrix reference (``dmref``), never from the report under test.  The
package is passed in as ``pkg`` only to reload and re-render JSON reports.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from types import ModuleType

from workloads import (
    FOURPARTY_BOUND,
    LR_BOUND,
    Op,
    has_fourparty_flag,
    qm_value,
)

SIGMAS = 5.0
VERDICT_VIOLATES = "VIOLATES_LR"
VERDICT_CONSISTENT = "CONSISTENT_WITH_LR"
VERIFY_CHECKS = 27  # three invariant rows for each of the nine setups


class CheckError(Exception):
    """An operation's output failed a check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _reject_constant(name: str) -> float:
    raise CheckError(f"not strict JSON: bare {name}")


def strict_json(text: str) -> dict:
    """Parse ``text``, rejecting the NaN/Infinity literals Python accepts."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"not JSON: {exc}") from None


def _finite(x: object, what: str) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool), f"{what} is not a number: {x!r}")
    _require(math.isfinite(x), f"{what} is not finite: {x!r}")
    return float(x)


def expected_verdict(value: float, error: float, sigmas: float, lr_bound: float) -> str:
    return VERDICT_VIOLATES if value - sigmas * error > lr_bound else VERDICT_CONSISTENT


def _near(value: float, error: float, exact: float, what: str) -> None:
    _require(error > 0.0, f"{what}: error {error} is not positive")
    _require(
        abs(value - exact) <= SIGMAS * error,
        f"{what}: value {value} is {abs(value - exact) / error:.1f} sigma from exact {exact}",
    )


def check_run(text: str, op: Op, exact: float, pkg: ModuleType) -> None:
    """Output of one ``run`` in ``op.fmt``; ``exact`` is the expected mean."""
    {"json": _check_run_json, "csv": _check_run_csv, "md": _check_run_md}[op.fmt](text, op, exact, pkg)


def _check_run_json(text: str, op: Op, exact: float, pkg: ModuleType) -> None:
    d = strict_json(text)
    try:
        rerendered = pkg.render_report(pkg.ExperimentReport.from_dict(d), "json")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"report does not reload: {exc!r}") from None
    _require(rerendered == text, "reloaded report re-renders to different bytes")
    cfg = d["config"]
    _require(
        (cfg["qubits"], cfg["setup"], cfg["seed"], cfg["expand_permutations"])
        == (op.qubits, op.setup, op.seed, op.expanded)
        and cfg["noise"] == {"p1": op.p, "p2": op.p, "readout_flip": op.p},
        f"report config {cfg} does not echo the request",
    )
    value = _finite(d["result"]["value"], "value")
    error = _finite(d["result"]["error"], "error")
    sigmas = _finite(cfg["violation_sigmas"], "violation_sigmas")
    lr = _finite(d["lr_bound"], "lr_bound")
    _require(lr == LR_BOUND[op.qubits], f"lr_bound {lr}, expected {LR_BOUND[op.qubits]}")
    qm = _finite(d["qm_value"], "qm_value")
    _require(abs(qm - qm_value(op.qubits, op.setup)) <= 1e-9, f"qm_value {qm} is wrong")
    want = expected_verdict(value, error, sigmas, lr)
    _require(d["verdict"] == want, f"verdict {d['verdict']}, recomputed {want}")
    flag = value > FOURPARTY_BOUND if has_fourparty_flag(op.qubits, op.setup) else None
    _require(d["genuine_fourparty"] is flag, f"four-party flag {d['genuine_fourparty']}, recomputed {flag}")
    _near(value, error, exact, "json result")


def _check_run_csv(text: str, op: Op, exact: float, pkg: ModuleType) -> None:
    lines = text.splitlines()
    _require(lines[0] == "row,y_count,axes,coefficient,multiplicity,value,error,error_rounded",
             f"unexpected csv header {lines[0]!r}")
    results = [line.split(",") for line in lines[1:] if line.startswith("result,")]
    _require(len(results) == 1 and len(results[0]) == 8, "csv needs exactly one result row of 8 fields")
    try:
        value, error = float(results[0][5]), float(results[0][6])
    except ValueError as exc:
        raise CheckError(f"csv result is not numeric: {exc}") from None
    _near(_finite(value, "csv value"), _finite(error, "csv error"), exact, "csv result")


_MD_SIMULATED = re.compile(r"^\| simulated \|.*\| (\S+) \+/- (\S+) \|$", re.M)
_MD_VERDICT = re.compile(r"^LR bound (\S+), QM value \S+, verdict \*\*(\w+)\*\* \(value - (\S+) \* error", re.M)
_MD_FLAG = re.compile(r"^genuine four-party nonlocality: value (exceeds|does not exceed) ", re.M)


def _check_run_md(text: str, op: Op, exact: float, pkg: ModuleType) -> None:
    # The markdown carries the result at 3 decimals and the error rounded to
    # one significant digit, so the checks allow for exactly that rounding.
    sim, verdict, flag = _MD_SIMULATED.search(text), _MD_VERDICT.search(text), _MD_FLAG.search(text)
    _require(sim is not None and verdict is not None, "markdown lacks the simulated row or verdict line")
    try:
        value, error = float(sim.group(1)), float(sim.group(2))
        lr, sigmas = float(verdict.group(1)), float(verdict.group(3))
    except ValueError as exc:
        raise CheckError(f"markdown numbers do not parse: {exc}") from None
    for x, what in ((value, "value"), (error, "error"), (lr, "lr bound"), (sigmas, "sigmas")):
        _finite(x, f"markdown {what}")
    _require(lr == LR_BOUND[op.qubits], f"markdown lr bound {lr}, expected {LR_BOUND[op.qubits]}")
    _require(error > 0.0, f"markdown error {error} is not positive")
    dv = 0.0005  # half a unit in the third decimal
    de = 0.5 * 10.0 ** math.floor(math.log10(error))  # half a unit in the first significant digit
    _require(
        abs(value - exact) <= SIGMAS * (error + de) + dv,
        f"markdown value {value} +/- {error} is over {SIGMAS} sigma from exact {exact}",
    )
    margin_low = (value - dv) - sigmas * (error + de) - lr
    margin_high = (value + dv) - sigmas * max(error - de, 0.0) - lr
    if margin_low > 0:
        _require(verdict.group(2) == VERDICT_VIOLATES, f"markdown verdict {verdict.group(2)}, recomputed violation")
    elif margin_high <= 0:
        _require(verdict.group(2) == VERDICT_CONSISTENT, f"markdown verdict {verdict.group(2)}, recomputed consistent")
    if has_fourparty_flag(op.qubits, op.setup):
        _require(flag is not None, "markdown lacks the four-party line")
        if abs(value - FOURPARTY_BOUND) > dv:
            want = "exceeds" if value > FOURPARTY_BOUND else "does not exceed"
            _require(flag.group(1) == want, f"markdown four-party line says {flag.group(1)!r}, recomputed {want!r}")
    else:
        _require(flag is None, "markdown has a four-party line for a setup without the flag")


def check_exchange(text: str, op: Op) -> None:
    """JSON exchange test on the clean GHZ(n, pi/2): every single-Y term is
    exactly 1 in expectation; the spread is the sample standard deviation."""
    d = strict_json(text)
    _require(d["qubits"] == op.qubits and d["seed"] == op.seed, "exchange report does not echo the request")
    values = []
    for t in d["terms"]:
        value, error = _finite(t["value"], "term value"), _finite(t["error"], "term error")
        _near(value, error, 1.0, f"exchange term {t['axes']}")
        values.append(value)
    _require(len(values) == op.qubits, f"{len(values)} exchange terms for {op.qubits} qubits")
    spread = _finite(d["spread"], "spread")
    _require(abs(spread - statistics.stdev(values)) <= 1e-12, f"spread {spread} is not the sample deviation")


def check_bounds(text: str, op: Op) -> None:
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    try:
        lr = [float(fields[f"lr_bound ({k})"]) for k in ("formula", "stored", "brute force")]
        qm = [float(fields[f"qm_value ({k})"]) for k in ("stored", "eigencheck")]
    except (KeyError, ValueError) as exc:
        raise CheckError(f"bounds output lacks a field: {exc!r}") from None
    _require(all(x == LR_BOUND[op.qubits] for x in lr), f"lr bounds {lr}, expected {LR_BOUND[op.qubits]}")
    want = qm_value(op.qubits, op.setup)
    _require(all(abs(x - want) <= 1e-9 for x in qm), f"qm values {qm}, expected {want}")
    _require(fields.get("verification") == "OK", "bounds did not verify")


def check_verify(text: str) -> None:
    lines = text.splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS  "))
    failed = sum(1 for line in lines if line.startswith("FAIL  "))
    _require(passed == VERIFY_CHECKS and failed == 0, f"verify: {passed} passed, {failed} failed")
    _require(lines[-1] == "all invariant checks passed", f"verify ends with {lines[-1]!r}")


def check_output(op: Op, text: str, exact: float | None, pkg: ModuleType) -> None:
    """Dispatch on the operation's kind; ``exact`` is needed for ``run``."""
    if op.kind == "run":
        check_run(text, op, exact, pkg)
    elif op.kind == "exchange-test":
        check_exchange(text, op)
    elif op.kind == "bounds":
        check_bounds(text, op)
    elif op.kind == "verify":
        check_verify(text)
    else:
        raise CheckError(f"unknown operation kind {op.kind!r}")
