"""Micro-benchmark: CSR frontier construction vs the loop reference.

Measures frontier construction throughput (frontier entities/sec) at
frontier sizes 64-8192 for three variants — the loop-based reference
environment's padded grid (``tests/reference_env.py``), the CSR
environment's ``batched_actions`` grid view, and its
``flat_actions`` cells (what every walk hop expands) — and writes
``benchmarks/results/BENCH_env_hotpath.json``.

Run as a pytest test (``pytest benchmarks/bench_micro_env_hotpath.py -s``)
or directly (``python benchmarks/bench_micro_env_hotpath.py``).  The
acceptance bar is a >= 5x speedup over the reference at frontier sizes
>= 1024.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

from common import RESULTS_DIR, get_world  # noqa: E402
from reference_env import ReferenceKGEnvironment  # noqa: E402
from repro.core.environment import KGEnvironment  # noqa: E402

FRONTIER_SIZES = (64, 256, 1024, 4096, 8192)
ACTION_CAP = 100
SPEEDUP_FLOOR = 5.0  # acceptance bar at frontier >= 1024


def _best_seconds(fn, min_time=0.12, repeats=5):
    """Best-of-``repeats`` mean per-call time (noise-robust)."""
    fn()  # warmup
    best = float("inf")
    for _ in range(repeats):
        iters, start = 0, perf_counter()
        while True:
            fn()
            iters += 1
            elapsed = perf_counter() - start
            if elapsed >= min_time / repeats and iters >= 3:
                break
        best = min(best, elapsed / iters)
    return best


def run_hotpath_bench(sizes=FRONTIER_SIZES, seed=0):
    world = get_world("beauty")
    built = world.built
    ref_env = ReferenceKGEnvironment(built, action_cap=ACTION_CAP,
                                     seed=seed)
    csr_env = KGEnvironment(built, action_cap=ACTION_CAP, seed=seed)
    rng = np.random.default_rng(seed)
    n_entities = built.kg.num_entities

    rows = []
    for size in sizes:
        entities = rng.integers(0, n_entities, size=size)
        visited = np.stack(
            [entities, rng.integers(0, n_entities, size=size)], axis=1)

        ref_s = _best_seconds(
            lambda: ref_env.batched_actions(entities, visited))
        csr_s = _best_seconds(
            lambda: csr_env.batched_actions(entities, visited))
        flat_s = _best_seconds(
            lambda: csr_env.flat_actions(entities, visited))
        rows.append({
            "frontier_size": int(size),
            "reference_eps": size / ref_s,
            "csr_eps": size / csr_s,
            "csr_flat_eps": size / flat_s,
            "speedup": ref_s / csr_s,
            "speedup_flat": ref_s / flat_s,
        })
    return rows


def emit(rows):
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_env_hotpath.json"
    payload = {
        "benchmark": "env_hotpath",
        "action_cap": ACTION_CAP,
        "rows": rows,
    }
    out.write_text(json.dumps(payload, indent=2))
    header = (f"{'frontier':>9} {'ref ent/s':>12} {'csr ent/s':>12} "
              f"{'flat ent/s':>13} {'speedup':>8} {'flat speedup':>13}")
    print(header)
    for r in rows:
        print(f"{r['frontier_size']:>9} {r['reference_eps']:>12.0f} "
              f"{r['csr_eps']:>12.0f} {r['csr_flat_eps']:>13.0f} "
              f"{r['speedup']:>8.1f} {r['speedup_flat']:>13.1f}")
    print(f"-> {out}")
    return out


def test_env_hotpath_throughput():
    rows = run_hotpath_bench()
    emit(rows)
    for r in rows:
        if r["frontier_size"] >= 1024:
            best = max(r["speedup"], r["speedup_flat"])
            assert best >= SPEEDUP_FLOOR, (
                f"frontier {r['frontier_size']}: {best:.1f}x < "
                f"{SPEEDUP_FLOOR}x over the loop reference")


if __name__ == "__main__":
    emit(run_hotpath_bench())
