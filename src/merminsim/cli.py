"""Command-line interface.

Exit codes: 0 success, 1 invalid configuration or arguments or an unwritable
output file, 2 internal invariant failure (a report-time consistency recheck
did not hold).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    InvariantError,
    RENDER_FORMATS,
    recheck_bounds,
    render_exchange_report,
    render_report,
    run_experiment,
    run_exchange_test,
    verify_invariants,
)
from .lhv import lr_bound_formula
from .noise import NoiseModel
from .circuits import QUBIT_COUNTS, SETUP_IDS, setup_config


def _parse_noise(text: str) -> NoiseModel:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--noise expects 'p1,p2,readout', got {text!r}")
    p1, p2, ro = (float(p) for p in parts)
    return NoiseModel(p1, p2, ro)


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"merminsim: cannot write the report: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        qubits=args.qubits,
        setup=args.setup,
        shots=args.shots,
        seed=args.seed,
        noise=_parse_noise(args.noise),
        expand_permutations=args.expand_permutations,
        violation_sigmas=args.violation_sigmas,
    )
    report = run_experiment(cfg)
    return _emit(render_report(report, args.format), args.out)


def _cmd_exchange(args: argparse.Namespace) -> int:
    report = run_exchange_test(
        shots=args.shots,
        seed=args.seed,
        noise=_parse_noise(args.noise),
        qubits=args.qubits,
    )
    return _emit(render_exchange_report(report, args.format), args.out)


def _cmd_bounds(args: argparse.Namespace) -> int:
    sc = setup_config(args.qubits, args.setup)
    rows, brute, lam = recheck_bounds(sc)
    print(f"qubits: {sc.n}")
    print(f"setup: {sc.setup.value}")
    print(f"terms: {len(sc.polynomial.terms)}")
    print(f"lr_bound (formula): {lr_bound_formula(sc.n)}")
    print(f"lr_bound (stored): {sc.lr_bound}")
    print(f"lr_bound (brute force): {brute}")
    print(f"qm_value (stored): {sc.qm_value!r}")
    print(f"qm_value (eigencheck): {lam!r}")
    failed = [f"{name}: FAIL ({detail})" for name, ok, detail in rows if not ok]
    if failed:
        raise InvariantError("; ".join(failed))
    print("verification: OK")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name, ok, detail in verify_invariants():
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} invariant check(s) failed")
        return 2
    print("all invariant checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="merminsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one violation experiment")
    run_p.add_argument("--qubits", type=int, choices=QUBIT_COUNTS, required=True)
    run_p.add_argument("--setup", choices=SETUP_IDS, required=True)
    run_p.add_argument("--shots", type=int, default=16384)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--noise", default="0,0,0", help="p1,p2,readout")
    run_p.add_argument("--expand-permutations", action="store_true")
    run_p.add_argument("--violation-sigmas", type=float, default=3.0)
    run_p.add_argument("--format", choices=RENDER_FORMATS, default="json")
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")
    run_p.set_defaults(func=_cmd_run)

    ex_p = sub.add_parser("exchange-test", help="measure single-Y permutations separately")
    ex_p.add_argument("--qubits", type=int, choices=QUBIT_COUNTS, default=3)
    ex_p.add_argument("--shots", type=int, default=16384)
    ex_p.add_argument("--seed", type=int, default=0)
    ex_p.add_argument("--noise", default="0,0,0", help="p1,p2,readout")
    ex_p.add_argument("--format", choices=RENDER_FORMATS, default="json")
    ex_p.add_argument("--out", default=None)
    ex_p.set_defaults(func=_cmd_exchange)

    b_p = sub.add_parser("bounds", help="print and recheck the bounds of one setup")
    b_p.add_argument("--qubits", type=int, choices=QUBIT_COUNTS, required=True)
    b_p.add_argument("--setup", choices=SETUP_IDS, required=True)
    b_p.set_defaults(func=_cmd_bounds)

    v_p = sub.add_parser("verify", help="run the internal invariant suite")
    v_p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error exits 2 in argparse, 1 here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"merminsim: internal invariant failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"merminsim: invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
