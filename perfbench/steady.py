"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/steady.py --workload noisy_sweep --runs 10 --seconds 30

Runs the benchmark once per seed (1..runs), one run at a time, and prints for
each end-to-end metric its median and the distance between its first and
third quartile as a share of the median, next to the bound BENCHMARK.json
fixes for it.  A spread below a third of the bound is steady enough.  The
unrescaled ``raw_*`` figures from the details line, where a workload has them,
follow for comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    raw: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
        for name, value in detail.items():
            if name.startswith("raw_"):
                raw.setdefault(name, []).append(value)
        if not result["correct"]:
            print(f"seed {seed}: {proc.stdout.splitlines()[-2]}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        print(f"{m['name']:18s} median {statistics.median(v):10.4g}  spread {quartile_spread(v):.4f}"
              f"  bound {m['bound']}  ({'ok' if quartile_spread(v) < m['bound'] / 3 else 'WIDE'})")
    for name, v in raw.items():
        print(f"{name:18s} median {statistics.median(v):10.4g}  spread {quartile_spread(v):.4f}  (not gated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
