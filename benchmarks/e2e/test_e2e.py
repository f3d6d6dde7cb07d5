"""Tests of the benchmark's own machinery (``pytest benchmarks/e2e``;
outside tier-1's ``testpaths``)."""

import json
from dataclasses import replace

import pytest

from benchmarks.e2e import __main__ as cli
from benchmarks.e2e.bench import serving, training_users
from benchmarks.e2e.verify import verify
from benchmarks.e2e.workload import (SPECS, distinct_sessions, identity,
                                     requests_for)
from benchmarks.e2e.world import build_world


@pytest.fixture(scope="module")
def world():
    return build_world("smoke")


@pytest.fixture(scope="module")
def served(world):
    """A few requests answered by a real server, with their responses."""
    spec = SPECS["cold_unique"]
    requests = requests_for(spec, world.dataset.n_items,
                            training_users(world), seed=5, shrink=400)[:48]
    with serving(world, spec, seed=5) as live:
        run = live.drive(requests, keep=range(len(requests)))
    assert run.failed == 0 and len(run.kept) == len(requests)
    return requests, run.kept


def test_generator_is_a_pure_function_of_its_seed():
    users = list(range(40))
    a = distinct_sessions(500, 89, users, seed=3)
    b = distinct_sessions(500, 89, users, seed=3)
    c = distinct_sessions(500, 89, users, seed=4)
    assert [(s.items, s.user_id) for s in a] == \
        [(s.items, s.user_id) for s in b]
    assert [s.items for s in a] != [s.items for s in c]


def test_generated_sessions_are_cache_distinct():
    sessions = distinct_sessions(2000, 89, list(range(40)), seed=3)
    assert len({identity(s) for s in sessions}) == len(sessions)
    assert all(len(s.items) >= 3 and 1 <= min(s.items) and
               max(s.items) <= 89 for s in sessions)


def test_hot_requests_repeat_and_mix_k():
    requests = requests_for(SPECS["hot_zipf"], 89, list(range(40)), seed=3,
                            shrink=40)
    assert len({identity(s) for s, _ in requests}) < len(requests) / 4
    assert {k for _, k in requests} == {5, 10, 20}


def test_verifier_accepts_what_the_server_answered(world, served):
    requests, kept = served
    assert verify(world, requests, kept) == []


def test_verifier_rejects_a_swapped_item(world, served):
    requests, kept = served
    index, result = next((i, r) for i, r in kept.items()
                         if r.items[0] != r.items[1])
    items = (result.items[1], result.items[0]) + result.items[2:]
    errors = verify(world, requests, {index: replace(result, items=items)})
    assert errors and f"request {index}" in errors[0]


def test_verifier_rejects_a_broken_path_hop(world, served):
    requests, kept = served
    index, result, slot = next(
        (i, r, j) for i, r in kept.items()
        for j, path in enumerate(r.paths) if path is not None)
    path = result.paths[slot]
    # an entity no edge of the middle hop leads to: the start itself
    broken = replace(path, entities=[path.entities[0], path.entities[0]]
                     + list(path.entities[2:]))
    paths = result.paths[:slot] + (broken,) + result.paths[slot + 1:]
    errors = verify(world, requests, {index: replace(result, paths=paths)},
                    against_oracle=False)
    assert errors and "is not a KG edge" in errors[0]


def _document(throughput: float) -> dict:
    row = {name: 10.0 for name in
           (m["name"] for m in cli.manifest()["end_to_end"])}
    row["throughput_rps"] = throughput
    return {"workloads": {"cold_unique": {"end_to_end": row,
                                          "error_rate": 0.0}}}


def test_compare_passes_identical_files_and_flags_a_drop(tmp_path, capsys):
    bound = next(m["bound"] for m in cli.manifest()["end_to_end"]
                 if m["name"] == "throughput_rps")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document(1000.0)))
    b.write_text(json.dumps(_document(1000.0 * (1 - bound - 0.05))))
    assert cli.main(["compare", str(a), str(a)]) == 0
    assert cli.main(["compare", str(a), str(b)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # the better direction is never a regression
    assert cli.main(["compare", str(b), str(a)]) == 0


def test_compare_flags_any_new_failure(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    clean, failing = _document(1000.0), _document(1000.0)
    failing["workloads"]["cold_unique"]["error_rate"] = 0.001
    a.write_text(json.dumps(clean))
    b.write_text(json.dumps(failing))
    assert cli.main(["compare", str(a), str(b)]) == 1
