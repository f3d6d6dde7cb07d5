"""Driver-protocol entry point: one workload, one run, one JSON line.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of an untraced timed run;
``--trace 1`` prints the per-layer metrics of a traced pass plus the
layer replay.  The last line of stdout is the result object; the exit
code is non-zero when an answer failed verification or the run left
residue behind.
"""

import argparse
import atexit
import gc
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import manifest  # noqa: E402
from benchmarks.e2e.bench import (residue, shm_segments,  # noqa: E402
                                  stop_resource_tracker, timed_run,
                                  training_users)
from benchmarks.e2e.driver import HostSpeed  # noqa: E402
from benchmarks.e2e.layers import traced_run  # noqa: E402
from benchmarks.e2e.workload import SPECS, requests_for  # noqa: E402
from benchmarks.e2e.world import setup  # noqa: E402

SMOKE_SHRINK = 40


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Set up, run one workload, check residue; the result object."""
    shm_before = shm_segments()
    shrink = SMOKE_SHRINK if smoke else 1
    speed = HostSpeed()
    world, setup_metrics = setup("smoke" if smoke else "full", speed)
    spec = SPECS[workload]
    requests = requests_for(spec, world.dataset.n_items,
                            training_users(world), seed, shrink)
    # The request pool is ~120k harness objects.  Left in the young
    # generations' way, every full collection triggered by the
    # program's own allocations re-scans them (100 ms pauses in the
    # serving threads, measured); freezing moves them — and nothing
    # the server allocates later — out of the collector's sight.
    gc.collect()
    gc.freeze()
    if trace:
        out = traced_run(world, spec, requests, seed, seconds, speed,
                         shrink, setup_metrics)
        wanted = manifest()["per_layer"]
    else:
        out = timed_run(world, spec, requests, seed, seconds, speed, shrink)
        out["metrics"]["setup_s"] = setup_metrics["setup_s"]
        wanted = manifest()["end_to_end"]
    left = residue(shm_before)
    for message in out["errors"] + [f"residue: {r}" for r in left]:
        print(message, file=sys.stderr)
    return {
        "correct": out["failed"] == 0 and not left,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": float(out["metrics"][m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny world, 1/40 of the request counts")
    args = parser.parse_args(argv)
    # Every way out — result, exception, SIGTERM — unwinds the server's
    # context manager (workers joined) and then reaps the tracker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    atexit.register(stop_resource_tracker)
    seconds = args.seconds
    if seconds is None:
        seconds = manifest()["run_seconds"] / (8 if args.smoke else 1)
    result = measure(args.workload, args.seed, seconds, bool(args.trace),
                     args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
