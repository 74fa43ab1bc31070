"""Benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload noisy_sweep --seed 1 --seconds 35 --trace 0

Runs the package from ``src/`` of the tree this file sits in; nothing is
installed.  With ``--trace 0`` the last line of stdout is one JSON object
carrying the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a separate traced pass instead.  The line before it holds the
details: environment, tail percentile, reproducibility and tracing notes.
Exits non-zero without a result when the package is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench-out"
PROBES = 5  # fresh processes per import or interpreter-start measurement; the median is reported
SETUP_PROBES = 15  # fresh processes per set-up measurement; the median is reported
TOTAL_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every run; reports do not depend on it
    return env


def run_child(argv: list[str], deadline: float, env: dict[str, str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(argv[1:3])} exited {proc.returncode}")
    return proc


def setup_seconds(workload: str, deadline: float, env: dict[str, str]) -> tuple[float, float, float]:
    """Median over fresh processes of import plus the first operation, with a
    bare interpreter start timed before each.  Import dominates set-up, so the
    median is rescaled by the starts.  Returns (rescaled, raw, bare start)."""
    samples, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(stats.bare_start_seconds())
        samples.append(json.loads(run_child([sys.executable, str(HERE / "probe.py"), workload], deadline, env)
                                  .stdout.splitlines()[-1])["setup_s"])
    raw = statistics.median(samples)
    return stats.rescale([raw], refs)[0], raw, statistics.median(refs)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)$")


def import_seconds(modules: list[str], deadline: float, env: dict[str, str]) -> dict[str, float]:
    """``import.<module>_s`` from ``python -X importtime``, median over fresh
    processes: cumulative for numpy and the package, self time for each
    package module."""
    samples: dict[str, list[float]] = {m: [] for m in modules}
    for _ in range(PROBES):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import merminsim, merminsim.cli"],
                         deadline, env)
        seen = dict.fromkeys(modules, 0.0)
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(4) in seen:
                self_us, cumulative_us = int(m.group(1)), int(m.group(2))
                top = m.group(4) in ("numpy", "merminsim")
                seen[m.group(4)] = 1e-6 * (cumulative_us if top else self_us)
        for module, value in seen.items():
            samples[module].append(value)
    return {f"import.{module}_s": statistics.median(v) for module, v in samples.items()}


def interpreter_start_seconds(deadline: float, env: dict[str, str]) -> float:
    samples = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], deadline, env)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark may run from an export that has no .git at all."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TOTAL_TIMEOUT_S

    if not (ROOT / "src" / "merminsim" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'merminsim'}", file=sys.stderr)
        return 2
    env = child_env()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    metrics: dict[str, float] = {}
    setup_detail: dict[str, float] = {}
    if args.trace:
        modules = [name[len("import."):-len("_s")] for name in units if name.startswith("import.")]
        metrics.update(import_seconds(modules, deadline, env))
        metrics["cli.interpreter_start_s"] = interpreter_start_seconds(deadline, env)
    else:
        metrics["setup_s"], raw, ref = setup_seconds(args.workload, deadline, env)
        setup_detail = {"raw_setup_s": raw, "setup_bare_start_ms": 1e3 * ref}

    proc = run_child([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--root", str(ROOT)], deadline, env)
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics.update(result["metrics"])

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["detail"].pop("numpy"),
        "commit": git_commit(),
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "repro": result["repro"],
        **result["detail"],
        **setup_detail,
    }
    if set(units) != set(metrics):
        raise SystemExit(f"measured metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        trace_file.write_text(json.dumps({"detail": detail, "metrics": metrics,
                                          "first_op_spans": result["trace_sample"]}, indent=1))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
