"""One workload in one fresh process; started by run.py, not by hand.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --t0 MONOTONIC [--setup-only] [--small]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; ``setup_s`` runs from then until the inputs are built, so it covers
interpreter start, the imports of numpy, scipy and hybridfem, and the mesh
builds.  Untraced, the worker runs whole rounds until ``--seconds`` have
passed and reports the median round time.  Traced, it runs exactly one
round, so that every count refers to the same work, and reports the
per-layer metrics.  The last line of standard output is one JSON object.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hybridfem
import workloads
import tracing

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    expected = BENCH.parent / "src" / "hybridfem"
    if Path(hybridfem.__file__).resolve().parent != expected:
        sys.exit(f"hybridfem imported from {hybridfem.__file__}, expected {expected}")

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tracer = restore = None
    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, hybridfem)
    inputs = wl.setup(args.seed, args.small, OUT)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    rounds, attempted, failed, problems = [], 0, 0, []
    loop_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        try:
            outputs = wl.run(inputs)
        except Exception:
            traceback.print_exc()
            outputs = None
        end = time.perf_counter()
        rounds.append(end - start)
        if restore is not None:
            restore()
        attempted += len(wl.operations)
        if outputs is None:
            failed += len(wl.operations)
            problems.append("round raised")
        else:
            bad = wl.check(inputs, outputs)
            failed += len(bad)
            problems += [f"{op}: {why}" for op, why in bad.items()]
        del outputs
        if args.trace or time.perf_counter() - loop_start >= args.seconds:
            break

    for problem in problems:
        print(f"{args.workload}: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "rounds_s": rounds,
        "wall_s": statistics.median(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        write_trace(tracer, args, result, start, end)
    print(json.dumps(result))


def write_trace(tracer, args, result, round_start, round_end):
    """Spans and per-name totals of the traced run, plus the share of the
    round that top-level library spans cover."""
    covered = sum(e - s for _, _, depth, s, e in tracer.spans
                  if depth == 0 and s >= round_start) - tracer.excluded_s
    trace = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": result["setup_s"],
        "round_s": result["rounds_s"][0],
        "excluded_s": tracer.excluded_s,
        "library_share_of_round": covered / (round_end - round_start - tracer.excluded_s),
        "layers": result["layers"],
        "by_name": {
            name: {"calls": tracer.calls[name], "total_s": tracer.total_s[name],
                   "self_s": tracer.self_s[name]}
            for name in sorted(tracer.calls)
        },
        "spans": [
            {"name": n, "parent": p, "depth": d, "start": s, "end": e}
            for n, p, d, s, e in tracer.spans
        ],
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}{'-small' if args.small else ''}.json"
    path.write_text(json.dumps(trace, indent=1))


if __name__ == "__main__":
    main()
