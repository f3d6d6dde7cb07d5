"""Paired significance testing for the Table VIII protocol.

The paper runs every (baseline, REKS_baseline) pair five times and
reports a paired t-test: ``*`` for p <= .05, ``**`` for p <= .01.
SciPy is imported inside :func:`paired_t_test`, on first use, so
``import repro`` does not load it into every serving process and
forked worker.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def paired_t_test(baseline_runs: Sequence[float],
                  treatment_runs: Sequence[float]) -> Tuple[float, float]:
    """Return ``(t_statistic, p_value)`` for paired runs.

    Degenerate inputs (fewer than two runs, or identical differences
    with zero variance) return ``(nan, 1.0)`` / ``(inf, 0.0)`` style
    results consistent with scipy conventions, never raising.
    """
    base = np.asarray(baseline_runs, dtype=np.float64)
    treat = np.asarray(treatment_runs, dtype=np.float64)
    if base.shape != treat.shape:
        raise ValueError("paired t-test needs equal-length run lists")
    if len(base) < 2:
        return float("nan"), 1.0
    diff = treat - base
    if np.allclose(diff.std(), 0.0):
        if np.allclose(diff.mean(), 0.0):
            return 0.0, 1.0
        return float("inf") * np.sign(diff.mean()), 0.0
    from scipy import stats

    t_stat, p_value = stats.ttest_rel(treat, base)
    return float(t_stat), float(p_value)


def significance_marker(p_value: float) -> str:
    """Map a p-value to the paper's star convention."""
    if np.isnan(p_value):
        return ""
    if p_value <= 0.01:
        return "**"
    if p_value <= 0.05:
        return "*"
    return ""


def improvement_percent(baseline: float, treatment: float) -> float:
    """Relative improvement in percent (the paper's Improv. columns)."""
    if baseline == 0:
        return float("inf") if treatment > 0 else 0.0
    return 100.0 * (treatment - baseline) / baseline
