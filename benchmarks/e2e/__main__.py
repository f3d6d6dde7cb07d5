"""``python -m benchmarks.e2e run|compare`` — the whole suite, and the
before/after tool.

``run`` executes ``run.py`` once per (workload, trace mode) — each in
its own process, exactly as the PR driver does, so a row here is the
number the driver sees — prints every metric by name with its unit,
writes the result document and appends one line to ``history.jsonl``.

``compare A B`` prints every (end-to-end metric, workload) pair of two
result documents side by side and exits non-zero when B is worse than
A by more than the metric's bound.  Either side may be a
comma-separated list of documents; their medians are compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from benchmarks.e2e import manifest

HERE = Path(__file__).resolve().parent
ORDER = tuple(w["name"] for w in manifest()["workloads"])


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_one(workload: str, seed: int, trace: int, extra: List[str]) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} --trace {trace}: no result "
                         f"(exit code {done.returncode})")
    return json.loads(lines[-1])


def table(title: str, specs: List[dict], rows: Dict[str, Dict[str, float]],
          workloads: List[str]) -> None:
    print(f"\n{title}")
    print(f"{'metric':34s}{'unit':>7s}" + "".join(f"{w:>14s}"
                                                  for w in workloads))
    for spec in specs:
        cells = "".join(f"{rows[w][spec['name']]:14.4f}" for w in workloads)
        print(f"{spec['name']:34s}{spec['unit']:>7s}{cells}")


def command_run(args) -> int:
    from benchmarks.e2e.world import host_fingerprint

    spec = manifest()
    workloads = [w for w in ORDER if not args.workload or w in args.workload]
    extra = ["--smoke"] if args.smoke else []
    if args.seconds is not None:
        extra += ["--seconds", str(args.seconds)]
    document = {"git_sha": git_sha(), "seed": args.seed, "smoke": args.smoke,
                "claim": None, "fingerprint": host_fingerprint(),
                "workloads": {}}
    for workload in workloads:
        timed = run_one(workload, args.seed, 0, extra)
        traced = run_one(workload, args.seed, 1, extra)
        document["workloads"][workload] = {
            "correct": timed["correct"] and traced["correct"],
            "timed": {k: timed[k] for k in ("attempted", "failed")},
            "traced": {k: traced[k] for k in ("attempted", "failed")},
            "error_rate": timed["failed"] / timed["attempted"],
            "end_to_end": {k: v["value"]
                           for k, v in timed["metrics"].items()},
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
        }
        row = document["workloads"][workload]
        print(f"{workload}: timed sent {timed['attempted']} failed "
              f"{timed['failed']}; traced sent {traced['attempted']} failed "
              f"{traced['failed']}; "
              f"{'ok' if row['correct'] else 'NOT CORRECT'}", flush=True)
    done = document["workloads"]
    table("end to end (times at reference host speed)", spec["end_to_end"],
          {w: done[w]["end_to_end"] for w in done}, list(done))
    table("per layer (as measured)", spec["per_layer"],
          {w: done[w]["per_layer"] for w in done}, list(done))
    out = Path(args.out) if args.out else \
        HERE / "results" / f"run_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {out}")
    if not args.smoke:
        line = {key: document[key] for key in ("git_sha", "seed",
                                               "fingerprint")}
        line["end_to_end"] = {w: done[w]["end_to_end"] for w in done}
        with open(HERE / "history.jsonl", "a") as handle:
            handle.write(json.dumps(line) + "\n")
    return 0 if all(row["correct"] for row in done.values()) else 1


def load_side(spec: str) -> Dict[str, Dict[str, float]]:
    """Per workload, the median of each end-to-end metric (and the
    error rate) over the listed documents."""
    documents = [json.loads(Path(p).read_text()) for p in spec.split(",")]
    out: Dict[str, Dict[str, float]] = {}
    for workload in documents[0]["workloads"]:
        rows = [d["workloads"][workload] for d in documents
                if workload in d["workloads"]]
        out[workload] = {
            name: statistics.median(r["end_to_end"][name] for r in rows)
            for name in rows[0]["end_to_end"]}
        out[workload]["error_rate"] = statistics.median(
            r["error_rate"] for r in rows)
    return out


def command_compare(args) -> int:
    a, b = load_side(args.a), load_side(args.b)
    bad = 0
    print(f"{'metric':18s}{'workload':14s}{'A':>12s}{'B':>12s}"
          f"{'worse by':>10s}{'bound':>8s}")
    for spec in manifest()["end_to_end"]:
        for workload in a:
            if workload not in b:
                continue
            before, after = a[workload][spec["name"]], b[workload][spec["name"]]
            worse = (after - before) / before
            if spec["better"] == "higher":
                worse = -worse
            flag = worse > spec["bound"]
            bad += flag
            print(f"{spec['name']:18s}{workload:14s}{before:12.4f}"
                  f"{after:12.4f}{worse:+10.1%}{spec['bound']:8.0%}"
                  f"{'  REGRESSION' if flag else ''}")
    for workload in a:
        if workload in b:
            before, after = a[workload]["error_rate"], b[workload]["error_rate"]
            flag = after > before  # absolute: no new failure is tolerated
            bad += flag
            print(f"{'error_rate':18s}{workload:14s}{before:12.6f}"
                  f"{after:12.6f}{'':>10s}{'0':>8s}"
                  f"{'  REGRESSION' if flag else ''}")
    print(f"\n{bad} pair(s) beyond their bound")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the suite")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--workload", action="append", choices=ORDER,
                     help="only this workload (repeatable)")
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--smoke", action="store_true",
                     help="tiny world, 1/40 of the request counts")
    run.set_defaults(handler=command_run)
    compare = commands.add_parser("compare", help="compare two results")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=command_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
