"""Runs one workload in one process and prints its measurements as one JSON line.

Started by ``run.py``; not meant to be run by hand.  ``noisy_sweep`` calls
the library in this process; ``cli_runs`` starts one ``merminsim`` process
per operation.  Every operation's output is checked
outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import dmref
import stats
import tracing
import workloads
from workloads import Op

CLI_TIMEOUT_S = 60.0


class LibraryRunner:
    """Runs operations in this process: ``execute`` through the library API,
    ``repeat`` through the command-line entry point."""

    def __init__(self, pkg) -> None:
        self.pkg = pkg

    def execute(self, op: Op) -> str:
        return workloads.run_in_library(self.pkg, op)

    def repeat(self, op: Op) -> str:
        return workloads.run_in_cli(self.pkg, op)


class ProcessRunner:
    """Runs each operation as its own ``merminsim`` process.  When traced, the
    process is ``clichild.py``, which hands its span totals back on stderr."""

    def __init__(self, root: Path, traced: bool) -> None:
        if traced:
            self.command = [sys.executable, str(root / "perfbench" / "clichild.py")]
        else:
            self.command = [sys.executable, "-m", "merminsim"]
        self.traced = traced
        self.totals: list[dict] = []
        self.sample: list = []
        self.missing: list[str] = []

    def execute(self, op: Op) -> str:
        proc = subprocess.run(self.command + op.argv(), capture_output=True, timeout=CLI_TIMEOUT_S)
        stderr = proc.stderr.decode(errors="replace")
        if self.traced:
            marks = [line for line in stderr.splitlines() if line.startswith(tracing.TRACE_MARK)]
            if marks:
                part = json.loads(marks[-1][len(tracing.TRACE_MARK):])
                self.totals.append(part["totals"])
                self.sample = self.sample or part["sample"]
                self.missing = part["missing"]
        if proc.returncode != 0:
            raise RuntimeError(f"merminsim {' '.join(op.argv())} exited {proc.returncode}: {stderr.strip()[-300:]}")
        return proc.stdout.decode()

    repeat = execute


@dataclass
class Pass:
    """One closed-loop pass over whole rounds of a workload."""

    latencies: list[float] = field(default_factory=list)
    rescaled: list[float] = field(default_factory=list)  # latencies at REF_START_S, when asked for
    ref_starts: list[float] = field(default_factory=list)
    extra_s: float = 0.0  # traced time outside the loop: the repeated operation
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    repro: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def runs_per_s(self) -> float:
        return len(self.latencies) / self.busy_s


def recording(tracer: tracing.Tracer | None):
    return tracer.recording() if tracer is not None else contextlib.nullcontext()


class Workload:
    def __init__(self, name: str, seed: int, pkg) -> None:
        self.name, self.seed, self.pkg = name, seed, pkg

    def expected(self, op: Op) -> float | None:
        if op.kind != "run":
            return None
        if op.p:
            return dmref.exact_value(op.qubits, op.setup, op.expanded, op.p)
        return workloads.qm_value(op.qubits, op.setup)

    def check(self, p: Pass, op: Op, text: str) -> None:
        try:
            checks.check_output(op, text, self.expected(op), self.pkg)
        except Exception as exc:  # any malformed output counts as a failed operation
            p.fail(f"{' '.join(op.argv())}: {exc!r}")

    def run_pass(self, runner, budget_s: float, tracer: tracing.Tracer | None = None,
                 ref_every: int = 0) -> Pass:
        """Whole rounds until the next round would end past ``budget_s``, but
        enough for a tail latency, then the byte-reproducibility checks.  With
        ``ref_every``, a bare interpreter start is timed before every
        ``ref_every``-th operation, and each round's latencies are rescaled by
        the median of the latest ``stats.REF_WINDOW`` starts."""
        p = Pass()
        rounds = workloads.rounds(self.name, self.seed)
        repro_op = first_output = None
        start = time.perf_counter()
        while True:
            round_ops = next(rounds)
            repro_op = repro_op or workloads.repro_op(round_ops)
            round_start = time.perf_counter()
            for i, op in enumerate(round_ops):
                if ref_every and i % ref_every == 0:
                    p.ref_starts.append(stats.bare_start_seconds())
                p.attempted += 1
                with recording(tracer):
                    t0 = time.perf_counter()
                    try:
                        text = runner.execute(op)
                    except Exception as exc:  # a crash or refusal is a failed operation
                        text = None
                        p.fail(f"{' '.join(op.argv())}: {exc!r}")
                    p.latencies.append(time.perf_counter() - t0)
                if text is not None:
                    self.check(p, op, text)
                    if op == repro_op and first_output is None:
                        first_output = text
            if ref_every:
                p.rescaled += stats.rescale(p.latencies[-len(round_ops):], p.ref_starts[-stats.REF_WINDOW:])
            round_s = time.perf_counter() - round_start
            enough = len(p.latencies) > stats.TAIL_BEYOND
            if enough and time.perf_counter() - start + round_s > budget_s:
                break
        self.reproduce(p, runner, repro_op, first_output, tracer)
        return p

    def reproduce(self, p: Pass, runner, op: Op, first: str | None, tracer) -> None:
        """Repeat one operation and compare bytes.  In-process workloads repeat
        it through the command-line entry point; ``cli_runs`` repeats the
        process and also renders the same config through the library."""
        p.attempted += 1
        with recording(tracer):
            t0 = time.perf_counter()
            try:
                again = runner.repeat(op)
            except Exception as exc:  # a crash is a failed reproduction
                again = None
                p.fail(f"repeat {' '.join(op.argv())}: {exc!r}")
            p.extra_s += time.perf_counter() - t0
        p.repro["repeat_identical"] = first is not None and again == first
        if again is not None and again != first:
            p.fail(f"repeat {' '.join(op.argv())}: output differs from the first run")
        if isinstance(runner, ProcessRunner):
            p.attempted += 1
            try:
                library = LibraryRunner(self.pkg).execute(op)
            except Exception as exc:  # a crash is a failed comparison
                library = repr(exc)
            p.repro["cli_equals_library"] = library == first
            if library != first:
                p.fail(f"{' '.join(op.argv())}: process output differs from render_report")


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def import_package(root: Path):
    import merminsim
    import merminsim.cli

    src = (root / "src").resolve()
    if src not in Path(merminsim.__file__).resolve().parents:
        raise SystemExit(f"merminsim was imported from {merminsim.__file__}, not from {src}")
    return merminsim


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", type=Path, required=True)
    args = ap.parse_args(argv)

    pkg = import_package(args.root)
    w = Workload(args.workload, args.seed, pkg)
    in_process = args.workload != "cli_runs"
    runner = LibraryRunner(pkg) if in_process else ProcessRunner(args.root, traced=False)

    warm = workloads.warmup_op(args.workload)
    passes = [Pass(attempted=1)]
    w.check(passes[0], warm, runner.execute(warm))

    out: dict = {"detail": {"numpy": sys.modules["numpy"].__version__}}
    if not args.trace:
        p = w.run_pass(runner, args.seconds, ref_every=workloads.REF_EVERY.get(args.workload, 0))
        passes.append(p)
        e2e = stats.end_to_end(p.rescaled or p.latencies)
        if p.rescaled:
            raw = stats.end_to_end(p.latencies)
            out["detail"].update(raw_runs_per_s=raw["runs_per_s"], raw_latency_p50_ms=raw["latency_p50_ms"],
                                 raw_latency_tail_ms=raw["latency_tail_ms"],
                                 bare_start_ms=1e3 * statistics.median(p.ref_starts))
        out["metrics"] = {
            "runs_per_s": e2e.pop("runs_per_s"),
            "latency_p50_ms": e2e.pop("latency_p50_ms"),
            "latency_tail_ms": e2e.pop("latency_tail_ms"),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN),
        }
        out["detail"].update(e2e)
    else:
        # Untraced and traced passes over the same operations split the time;
        # their difference in runs_per_s is the tracing overhead.
        plain = w.run_pass(runner, args.seconds / 2)
        tracer = tracing.Tracer()
        if in_process:
            tracer.active = False
            missing = tracing.install(tracer)
            p = w.run_pass(runner, args.seconds / 2, tracer)
            totals, sample = tracer.totals(), tracer.sample
        else:
            traced_runner = ProcessRunner(args.root, traced=True)
            p = w.run_pass(traced_runner, args.seconds / 2)
            totals, sample, missing = (
                tracing.merge_totals(traced_runner.totals), traced_runner.sample, traced_runner.missing)
        passes += [plain, p]
        metrics = tracing.layer_metrics(totals, p.busy_s + p.extra_s)
        metrics["trace.overhead_runs_per_s"] = p.runs_per_s - plain.runs_per_s
        metrics["trace.missing_names"] = len(missing)
        out["metrics"] = metrics
        out["detail"].update(missing_names=missing, untraced_runs_per_s=plain.runs_per_s,
                             traced_runs_per_s=p.runs_per_s)
        out["trace_sample"] = sample
    out.update(
        attempted=sum(x.attempted for x in passes),
        failed=sum(x.failed for x in passes),
        failures=[f for x in passes for f in x.failures][:5],
        repro=[x.repro for x in passes[1:]],
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
