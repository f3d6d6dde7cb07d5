"""``import repro`` stays light: SciPy and ``http.server`` load on use.

The paired t-test is an offline evaluation step and the ``/metrics``
endpoint is off unless ``metrics_port`` is set, yet both modules used
to be imported at package import time — in every serving process and
again in every worker forked from it.  One fresh interpreter imports
the serving-side packages, answers a request on a thread-mode server
built without ``metrics_port``, then runs the t-test; the module set is
read after each step.  Module sets are deterministic where RSS is not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json, sys

HEAVY = ("scipy", "http.server", "email")

def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)

import repro, repro.serving, repro.runtime, repro.telemetry, repro.eval
report = {"import": loaded()}

from repro import (AmazonLikeGenerator, REKSConfig, REKSTrainer, TransE,
                   TransEConfig, build_kg)

data = AmazonLikeGenerator("beauty", scale="tiny", seed=7).generate()
kg = build_kg(data)
transe = TransE(kg.kg.num_entities, kg.kg.num_relations,
                TransEConfig(dim=16, epochs=1, seed=5))
transe.fit(kg.kg)
trainer = REKSTrainer(data, kg, model_name="narm",
                      config=REKSConfig(dim=16, state_dim=16,
                                        sample_sizes=(20, 4), seed=0),
                      transe=transe)
session = next(s for s in data.split.test if len(s.items) >= 2)
with trainer.serve(worker_mode="thread") as server:
    report["items"] = len(server.recommend_one(session, k=5).items)
report["serve"] = loaded()

from repro.eval.significance import paired_t_test
base = [10.0, 10.1, 9.9, 10.05, 9.95]
treat = [12.0, 12.2, 11.9, 12.1, 11.95]
report["ours"] = list(paired_t_test(base, treat))
report["after_t_test"] = loaded()

from scipy import stats
t_stat, p_value = stats.ttest_rel(treat, base)
report["scipy"] = [float(t_stat), float(p_value)]
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_neither_scipy_nor_http_server(report):
    assert report["import"] == []


def test_serving_without_metrics_port_never_loads_http_server(report):
    assert report["items"] == 5
    assert report["serve"] == []


def test_t_test_loads_scipy_and_matches_ttest_rel(report):
    assert "scipy" in report["after_t_test"]   # SciPy brings email
    assert report["ours"] == report["scipy"]
