"""hybridfem benchmark: run from the root of a checkout.

    python3 bench/run.py                         # all workloads, one after another
    python3 bench/run.py --workload solve-hdg3 --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --small                 # every workload at small size

Each workload runs as a closed loop of whole rounds in a fresh worker
process (bench/worker.py) with the BLAS thread count pinned to the number of
usable cores.  Untraced, ``setup_s`` is the median over the worker and
SETUP_PROBES more processes that only import and build the inputs.  With
``--trace 1`` one traced round gives the per-layer metrics instead.

Prints one line per workload with every metric, its unit, and the
operations attempted and failed; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  Exits with 2, printing no
result, when the checkout has no hybridfem sources or a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("study-hdg1", "solve-hdg3", "crosscheck-bdm2")
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


def worker_env():
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args, workload, deadline, setup_only=False):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"{workload}: no time left for another process")
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the worker and waits for it before raising.
        raise WorkerFailed(f"{workload}: worker ran out of time") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload):
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        result = run_worker(args, workload, deadline)
        metrics = result["layers"]
        units = LAYER_UNITS
    else:
        probes = [run_worker(args, workload, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = run_worker(args, workload, deadline)
        metrics = {
            "setup_s": statistics.median(probes + [result["setup_s"]]),
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs, for a quick self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "hybridfem" / "__init__.py").is_file():
        print(f"error: no hybridfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = res = run_workload(args, name)
            cells = " ".join(f"{m}={v['value']:.6g} {v['unit']}" for m, v in res["metrics"].items())
            print(f"{name}: {cells} attempted={res['attempted']} failed={res['failed']}"
                  f" correct={res['correct']}", flush=True)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
