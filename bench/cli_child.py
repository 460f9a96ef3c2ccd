"""Run one causal-transfer command with layer spans recorded.

Usage: python bench/cli_child.py <causal-transfer arguments>

Behaves like `python -m causal_transfer` (same stdout and exit code) and
adds one line to stderr, prefixed with the trace mark, holding the spans
and counters of the run as JSON.
"""

import json
import sys

import tracing
from causal_transfer import cli


def main() -> int:
    tracer = tracing.Tracer()
    tracer.phase = "loop"
    with tracing.installed(tracer):
        code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    doc = {"spans": tracer.spans, "counters": tracer.counter_values(["loop"])}
    print(tracing.TRACE_MARK + json.dumps(doc), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
