"""Set-up probe: in a fresh process, time ``import merminsim`` plus the
workload's first, untimed-elsewhere warm-up operation.

Usage: python perfbench/probe.py <workload>

Prints one JSON line {"import_s", "first_op_s", "setup_s"}.  The clock starts
before any import of numpy or the package; the benchmark's own small
stdlib-only helper is imported between the two timed parts.
"""

import json
import sys
import time


def main() -> int:
    workload = sys.argv[1]
    t0 = time.perf_counter()
    import merminsim

    if workload == "cli_runs":
        import merminsim.cli
    import_s = time.perf_counter() - t0

    import workloads

    op = workloads.warmup_op(workload)
    t1 = time.perf_counter()
    if workload == "cli_runs":
        workloads.run_in_cli(merminsim, op)
    else:
        workloads.run_in_library(merminsim, op)
    first_op_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "first_op_s": first_op_s, "setup_s": import_s + first_op_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
