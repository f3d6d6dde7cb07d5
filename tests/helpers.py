"""Shared test utilities: finite-difference gradient checking, the
frozen best-path oracle, and the coalesced-vs-batch serving
determinism check."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor


def numerical_gradient(fn: Callable[[], Tensor], param: Tensor,
                       eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``param``."""
    grad = np.zeros_like(param.data, dtype=np.float64)
    flat = param.data.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = float(fn().data)
        flat[i] = original - eps
        low = float(fn().data)
        flat[i] = original
        out[i] = (high - low) / (2.0 * eps)
    return grad


def assert_grad_close(fn: Callable[[], Tensor], params: Sequence[Tensor],
                      rtol: float = 1e-2, atol: float = 1e-3) -> None:
    """Check autograd gradients of scalar ``fn()`` against finite diffs.

    ``fn`` must rebuild the graph on every call (so the numerical probe
    sees perturbed parameters).
    """
    for p in params:
        p.grad = None
    loss = fn()
    loss.backward()
    for i, p in enumerate(params):
        assert p.grad is not None, f"param {i} received no gradient"
        numeric = numerical_gradient(fn, p)
        np.testing.assert_allclose(
            p.grad.astype(np.float64), numeric, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for parameter {i}")


def make_tensor(rng: np.random.Generator, *shape: int,
                requires_grad: bool = True, scale: float = 1.0) -> Tensor:
    """Random float64 tensor (float64 keeps finite differences accurate)."""
    data = rng.standard_normal(shape) * scale
    return Tensor(data, requires_grad=requires_grad, dtype=np.float64)


def reference_best_paths(built, rollout):
    """The dict-building ``REKSAgent._best_paths`` as it was before
    ``PathTable`` replaced it, kept frozen as the oracle the table is
    tested against: one pass over the paths, a strictly greater
    probability replaces the incumbent (so the lowest path index wins
    an exact tie), non-item terminals are skipped."""
    from repro.kg.paths import SemanticPath

    items = built.items_of_entities(rollout.terminals)
    best = {}
    for p in range(rollout.num_paths):
        if items[p] == 0:
            continue
        key = (int(rollout.session_idx[p]), int(items[p]))
        if key not in best or rollout.prob[p] > rollout.prob[best[key]]:
            best[key] = p
    return {key: SemanticPath(
        entities=[int(e) for e in rollout.entities[p]],
        relations=[int(r) for r in rollout.relations[p]],
        prob=float(rollout.prob[p])) for key, p in best.items()}


def check_determinism(trainer, sessions, k: int = 20) -> bool:
    """Coalesced serving rankings equal the synchronous
    ``recommend_sessions`` rankings for the same sessions and ``k``."""
    sessions = [s for s in sessions if len(s.items) >= 2]
    expected = []
    for rec in trainer.recommend_sessions(sessions, k=k):
        expected.extend(rec.ranked_items)
    with trainer.serve(cache_size=0) as server:
        results = server.recommend_many(sessions, k=k)
    got = [np.asarray(r.items, dtype=np.int64) for r in results]
    return len(got) == len(expected) and all(
        np.array_equal(g, e) for g, e in zip(got, expected))
