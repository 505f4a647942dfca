"""The ratclass benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify-stream --seed 1 \\
        --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each was chosen): classify-stream,
equiv-search, partition.  Each is a closed loop with one client thread,
driving the public library API imported from ./src.  A run

  1. draws its inputs from --seed and times the set-up (import, fields
     and their extensions) in three fresh interpreters;
  2. runs whole rounds of operations until at least --seconds of
     operation time has passed, timing each operation and scaling its
     time to a reference machine pace (speed.py);
  3. checks every answer outside the timed region;
  4. prints a readable report and, as the last line, one JSON object
     {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1
each operation runs untraced and then again with spans recorded at
every layer boundary (spans are written to .bench_out/), and a fixed
set with one input of every stratum runs with Fel arithmetic counted
(workloads.py, count_inputs); the metrics
are the per-layer ones and the tracing overhead.  --seconds 0 runs a
single round.

Exit status is 0 when the run completed, whatever the gate found, and
non-zero without a result line when the library cannot be imported
from ./src.
"""

import argparse
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up is timed in fresh interpreters: at least SETUP_RUNS of them,
# and more while they have taken less than SETUP_BUDGET_S in all
SETUP_RUNS = 3
SETUP_MAX_RUNS = 15
SETUP_BUDGET_S = 2.0


def load_library():
    if not (SRC / "ratclass" / "__init__.py").is_file():
        sys.exit("perfbench: no ratclass sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import ratclass
    if pathlib.Path(ratclass.__file__).resolve().parent != SRC / "ratclass":
        sys.exit("perfbench: imported ratclass from %s, not from %s"
                 % (ratclass.__file__, SRC))
    return ratclass


def time_setup(workload, trace):
    """One set-up in a fresh interpreter (see setup_child.py)."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), "--trace",
           "1" if trace else "0"]
    cmd += ["%d,%d" % pn for pn in workload.fields]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def time_setups(workload):
    runs = []
    while len(runs) < SETUP_MAX_RUNS and (
            len(runs) < SETUP_RUNS
            or sum(r["setup_s"] for r in runs) < SETUP_BUDGET_S):
        runs.append(time_setup(workload, False))
    return runs


def run_ops(workload, inputs, tracer=None):
    """Time each operation; exceptions are outcomes, not crashes.

    Returns the outcomes untraced and, given a tracer, traced: each
    operation then runs a second time right after the first with the
    tracer installed, so both runs meet the same machine pace and their
    difference is the tracing overhead.  Times are kept as wall seconds
    and scaled to the reference pace from the kernel samples taken
    around them (speed.py).
    """
    from workloads import Outcome
    clock = time.perf_counter
    timed = ([], []) if tracer is not None else ([],)

    def once(inp, into):
        result = error = None
        start = clock()
        try:
            result = workload.run(inp)
        except Exception as exc:  # counted and reported by the gate
            error = exc
        into.append((inp, start, clock(), result, error))

    with speed.Pacer() as pacer:
        for inp in inputs:
            once(inp, timed[0])
            if tracer is not None:
                tracer.op += 1
                tracer.install()
                try:
                    once(inp, timed[1])
                finally:
                    tracer.restore()
    out = []
    for runs in timed:
        out.append([])
        for inp, start, end, result, error in runs:
            busy = pacer.busy(start, end)
            out[-1].append(Outcome(inp, result, error, busy, speed.scaled(
                busy, pacer.pace(start, end))))
    return out if tracer is not None else out[0]


def measure(workload, seconds, tracer=None):
    """Whole rounds until the operations have taken `seconds`, traced
    ones included.

    Returns the untraced outcomes, and with a tracer also the traced
    ones.
    """
    plain, traced = [], []
    busy = 0.0
    while True:
        batch = workload.make_round()
        if tracer is not None:
            done, done_traced = run_ops(workload, batch, tracer)
            traced += done_traced
            busy += sum(o.seconds for o in done_traced)
        else:
            done = run_ops(workload, batch)
        plain += done
        busy += sum(o.seconds for o in done)
        if busy >= seconds:
            return (plain, traced) if tracer is not None else plain


def tail(latencies, percentile):
    """Nearest-rank percentile, with the count of samples beyond it."""
    xs = sorted(latencies)
    idx = min(len(xs) - 1, max(0, math.ceil(percentile / 100 * len(xs)) - 1))
    return xs[idx], len(xs) - idx - 1


def gate(workload, outcomes):
    failures, refused = [], 0
    for o in outcomes:
        verdict = workload.check(o)
        if verdict == "refused":
            refused += 1
        elif verdict is not None:
            failures.append(verdict)
    return failures, refused


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, outcomes, setups, rss_mb, refused, failures):
    """Timings at the reference pace; the notes give raw wall figures."""
    lat = [o.scaled for o in outcomes]
    wall = [o.seconds for o in outcomes]
    work = sum(workload.work(o.inp) for o in outcomes)
    n = len(outcomes)
    pct = workload.tail_percentile
    tail_s, beyond = tail(lat, pct)
    answered = n - refused - len(failures)
    metrics = [
        ("setup_s", statistics.median(s["setup_s"] for s in setups), "s",
         "median of %d fresh interpreters; wall %.4f s, import %.4f s"
         % (len(setups), statistics.median(s["wall_s"] for s in setups),
            statistics.median(s["import_s"] for s in setups))),
        ("ops_per_s", work / sum(lat), "1/s",
         "%s; wall %.4f" % ("expressions partitioned" if work != n
                            else "%d ops" % n, work / sum(wall))),
        ("latency_p50_ms", 1000 * statistics.median(lat), "ms",
         "%d samples; wall %.4f" % (n, 1000 * statistics.median(wall))),
        ("latency_tail_ms", 1000 * tail_s, "ms",
         "p%g, %d of %d samples beyond it%s; wall %.4f"
         % (pct, beyond, n, "" if beyond >= 10 else " (fewer than ten)",
            1000 * tail(wall, pct)[0])),
        ("answered_ratio", answered / n, "ratio",
         "1 - fail_ratio"),
        ("peak_rss_mb", rss_mb, "MB",
         "ru_maxrss of the workload process, read after timing"),
    ]
    return metrics


def per_layer(untraced, traced, tracer, counter_calls, count_n,
              setup_layers):
    """The per-layer rows, per operation of the traced runs."""
    from tracing import LayerStats
    st = LayerStats(tracer.spans)
    n = len(traced)
    t_un = sum(o.scaled for o in untraced)
    t_tr = sum(o.scaled for o in traced)
    # span times are wall times; convert them at the traced pass's pace
    pace = t_tr / sum(o.seconds for o in traced)
    equiv = st.count("classify.are_equivalent")
    cls = st.count("classify.classify")

    def per_op(v):
        return v / n

    def ms_per_op(v):
        return pace * v / n

    return [
        ("poly.roots_ms", ms_per_op(st.layer_ms("poly.roots", "poly.roots_in")),
         "ms/op"),
        ("poly.roots_calls", per_op(st.count("poly.roots")), "calls/op"),
        ("poly.roots_scan_calls", per_op(st.noted("poly.roots", "scan")),
         "calls/op"),
        ("poly.roots_split_calls", per_op(st.noted("poly.roots", "split")),
         "calls/op"),
        ("poly.factor_pattern_ms",
         ms_per_op(st.ms("poly.factor_degree_pattern")), "ms/op"),
        ("ramify.calls", per_op(st.count("ramify.ramification_profile")),
         "calls/op"),
        ("ramify.self_ms", ms_per_op(st.self_ms("ramify.ramification_profile")),
         "ms/op"),
        ("classify.calls", per_op(cls), "calls/op"),
        ("classify.self_ms", ms_per_op(st.self_ms("classify.classify")),
         "ms/op"),
        ("classify.fourpoint_share",
         st.noted("classify.classify", "FourPoint") / max(1, cls), "ratio"),
        ("classify.canonical_rep_ms",
         ms_per_op(st.ms("classify.canonical_rep")), "ms/op"),
        ("classify.equiv_calls", per_op(equiv), "calls/op"),
        ("classify.equiv_self_ms",
         ms_per_op(st.self_ms("classify.are_equivalent")), "ms/op"),
        ("classify.equiv_found_ratio",
         st.noted("classify.are_equivalent", "found") / max(1, equiv),
         "ratio"),
        ("moebius.act_per_equiv",
         st.under_parent("moebius.act", "classify.are_equivalent")
         / max(1, equiv), "calls"),
        ("moebius.act_calls", per_op(st.count("moebius.act")), "calls/op"),
        ("moebius.act_ms", ms_per_op(st.ms("moebius.act")), "ms/op"),
        ("moebius.pgl2_enum_ms", ms_per_op(st.ms("moebius.enumerate_pgl2")),
         "ms/op"),
        ("orbits.orbit_of_calls", per_op(st.count("orbits.orbit_of")),
         "calls/op"),
        ("orbits.orbit_of_self_ms", ms_per_op(st.self_ms("orbits.orbit_of")),
         "ms/op"),
        ("orbits.orbit_exprs", per_op(st.orbit_exprs), "exprs/op"),
        ("orbits.all_classes_self_ms",
         ms_per_op(st.self_ms("orbits.all_classes")), "ms/op"),
        ("ratexpr.enumerate_ms",
         ms_per_op(st.ms("ratexpr.enumerate_expressions")), "ms/op"),
        ("ffield.extend_calls", setup_layers["ffield.extend_calls"],
         "calls"),
        ("ffield.extend_ms", setup_layers["ffield.extend_ms"], "ms"),
        ("ffield.field_create_ms", setup_layers["ffield.field_create_ms"],
         "ms"),
        ("ffield.arith_ops", counter_calls / count_n, "count/op"),
        ("parse.calls", per_op(st.count("parse.parse_expression")),
         "calls/op"),
        ("parse.self_ms", ms_per_op(st.self_ms("parse.parse_expression")),
         "ms/op"),
        ("bench.tracing_overhead_pct", 100.0 * (t_tr / t_un - 1.0), "%"),
    ]


def plain_run(workload, seconds, phases):
    """Set-up timing and the measured rounds, for the end-to-end metrics."""
    clock = time.perf_counter
    t0 = clock()
    setups = time_setups(workload)
    phases["set-up"] = clock() - t0
    t0 = clock()
    outcomes = measure(workload, seconds)
    rss_mb = peak_rss_mb()
    phases["measure"] = clock() - t0
    t0 = clock()
    failures, refused = gate(workload, outcomes)
    phases["gate"] = clock() - t0
    metrics = end_to_end(workload, outcomes, setups, rss_mb, refused,
                         failures)
    bad = refused + len(failures)
    extra = [("fail_ratio", bad / len(outcomes), "ratio",
              "%d of %d raised or were refused at the desk-scale bound"
              % (bad, len(outcomes)))]
    return metrics, extra, outcomes, outcomes, failures, refused


def traced_run(rc, workload, seed, seconds, phases):
    """Untraced and traced runs of each operation, then the counting
    pass, for the per-layer metrics."""
    import tracing
    clock = time.perf_counter
    t0 = clock()
    setup_layers = time_setup(workload, True)["layers"]
    phases["set-up"] = clock() - t0
    t0 = clock()
    tracer = tracing.Tracer()
    outcomes, traced = measure(workload, seconds, tracer)
    phases["measure"] = clock() - t0
    t0 = clock()
    count_inputs = workload.count_inputs()
    counter = tracing.ArithCounter(rc.Fel)
    counter.install()
    try:
        run_ops(workload, count_inputs)
    finally:
        counter.restore()
    phases["counting"] = clock() - t0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("spans-%s-seed%d.jsonl" % (workload.name, seed))
    tracer.write(spans_path)
    print("  traced %d ops, %d spans written to %s; Fel arithmetic "
          "counted over %d ops, one of each stratum"
          % (len(traced), len(tracer.spans), spans_path.relative_to(ROOT),
             len(count_inputs)))
    checked = outcomes + traced
    t0 = clock()
    failures, refused = gate(workload, checked)
    phases["gate"] = clock() - t0
    metrics = [row + ("",) for row in per_layer(
        outcomes, traced, tracer, counter.calls, len(count_inputs),
        setup_layers)]
    return metrics, [], outcomes, checked, failures, refused


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    rc = load_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r; know %s"
                 % (args.workload, ", ".join(WORKLOADS)))

    phases = {}
    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](rc, args.seed)
    run_ops(workload, workload.warmup_inputs())
    phases["warm-up"] = time.perf_counter() - t0
    print("workload %s  seed %d  seconds %g  trace %d  "
          "(closed loop, 1 client)" % (workload.name, args.seed,
                                       args.seconds, args.trace))
    if args.trace:
        done = traced_run(rc, workload, args.seed, args.seconds, phases)
    else:
        done = plain_run(workload, args.seconds, phases)
    metrics, extra, outcomes, checked, failures, refused = done

    for name, value, unit, note in metrics + extra:
        print("  %-28s %14.4f %-9s %s" % (name, value, unit, note))
    props = workload.properties(outcomes)
    print("  input properties over %d ops: %s" % (len(outcomes), "  ".join(
        "%s %.4f" % kv for kv in props.items())))
    print("  wall time: %s" % "  ".join(
        "%s %.1f s" % kv for kv in phases.items()))
    for msg in failures[:10]:
        print("  FAILED: %s" % msg)
    print("  gate: %d checked, %d refused at the desk-scale bound, "
          "%d failed" % (len(checked), refused, len(failures)))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
