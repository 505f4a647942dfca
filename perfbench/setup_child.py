"""Time the benchmark's set-up in a fresh interpreter.

Usage: setup_child.py --trace 0|1 p,n [p,n ...]

Imports ratclass (and its command-line module), then creates each field
F_{p^n} and its extensions of degree 2 to 4 under the desk-scale bound.
Prints one JSON object: the set-up time scaled to the reference pace
(speed.py) and its wall and import times in seconds, and with --trace 1
the spans of field_create and extend summed up.
"""

import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    trace = argv[1] == "1"
    fields = [tuple(int(v) for v in arg.split(",")) for arg in argv[2:]]
    before = speed.kernel_seconds()
    start = time.perf_counter()
    import ratclass as rc
    import ratclass.cli  # noqa: F401
    imported = time.perf_counter()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.SETUP_SPANS, ())
        imported = start = time.perf_counter()
    workloads.setup_fields(rc, fields)
    done = time.perf_counter()
    after = speed.kernel_seconds()
    out = {"setup_s": speed.scaled(done - start, (before + after) / 2),
           "wall_s": done - start, "import_s": imported - start}
    if tracer is not None:
        tracer.restore()
        stats = tracing.LayerStats(tracer.spans)
        pace = out["setup_s"] / out["wall_s"]
        out["layers"] = {
            "ffield.extend_calls": stats.count("ffield.extend"),
            "ffield.extend_ms": pace * stats.ms("ffield.extend"),
            "ffield.field_create_ms": pace * stats.ms("ffield.field_create"),
        }
    print(json.dumps(out))


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] != "--trace":
        sys.exit(__doc__)
    main(sys.argv[1:])
