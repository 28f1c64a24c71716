"""Run one statekit command line under the benchmark's tracer.

    python3 -X importtime perfbench/cli_traced.py SPANS_OUT [statekit args...]

Behaves like the `statekit` console script, and writes the import time and
the recorded spans to SPANS_OUT as JSON when the command ends, even when it
raises.
"""

import json
import sys
import time

out_path = sys.argv[1]
start = time.perf_counter()
import statekit.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - start
import tracing  # noqa: E402

tracer = tracing.Tracer()
try:
    with tracing.installed(tracer):
        code = statekit.cli.main(sys.argv[2:])
finally:
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
sys.exit(code)
