"""Bench-adjacent sanity: the CSR hot path outruns the loop reference.

A coarse in-suite guard (the real numbers live in
``benchmarks/bench_micro_env_hotpath.py``): on a moderately sized
frontier the vectorized ``flat_actions`` must beat the loop-based
reference's padded grid.  Slow-marked so tier-1 stays timing-free.
"""

from time import perf_counter

import numpy as np
import pytest

from reference_env import ReferenceKGEnvironment
from repro.autograd import no_grad
from repro.core.environment import KGEnvironment

from test_env_differential import random_built_kg


def _best_of(fn, repeats=5):
    fn()  # warmup
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


@pytest.mark.slow
def test_csr_beats_reference_on_moderate_frontier():
    rng = np.random.default_rng(0)
    built = random_built_kg(rng, n_items=300, n_other=100, n_relations=4,
                            n_edges=20_000, hub_degree=500)
    ref_env = ReferenceKGEnvironment(built, action_cap=100, seed=0)
    csr_env = KGEnvironment(built, action_cap=100, seed=0)
    entities = rng.integers(0, built.kg.num_entities, size=2048)
    visited = np.stack(
        [entities, rng.integers(0, built.kg.num_entities, 2048)], axis=1)

    ref_s = _best_of(lambda: ref_env.batched_actions(entities, visited))
    with no_grad():
        csr_s = _best_of(lambda: csr_env.flat_actions(entities, visited))
    # Loose 2x bar: this is a correctness-of-direction check, the
    # calibrated >= 5x bar lives in the micro benchmark.
    assert csr_s < ref_s / 2, (
        f"CSR path ({csr_s * 1e3:.2f} ms) not clearly faster than "
        f"reference ({ref_s * 1e3:.2f} ms)")
