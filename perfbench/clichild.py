"""A traced ``merminsim`` process: the command line of ``python -m merminsim``
with the tracing wrappers installed after import.

Usage: python perfbench/clichild.py <merminsim arguments>

The command's output goes to stdout as usual; the span totals go to stderr
as one line starting with ``PERFBENCH-TRACE ``.
"""

import json
import sys

import tracing


def main() -> int:
    import merminsim.cli

    tracer = tracing.Tracer()
    missing = tracing.install(tracer)
    code = merminsim.cli.main(sys.argv[1:])
    tracer.fold()
    sys.stdout.flush()
    payload = {"totals": tracer.totals(), "sample": tracer.sample, "missing": missing}
    print(tracing.TRACE_MARK + json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
