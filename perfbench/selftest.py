#!/usr/bin/env python3
"""Self-test of the benchmark, from the root of a checkout::

    python3 perfbench/selftest.py            # or: python -m pytest perfbench/selftest.py

Checks that ``BENCHMARK.json`` and the metric catalogue agree, that a smoke
run of every workload emits every named metric with its unit, that the
oracle check catches a corrupted answer, and that the benchmark refuses to
run without the package it measures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_build", "selftest")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from layers import END_TO_END, PER_LAYER, REPORTED  # noqa: E402
from workload import WORKLOADS, Answer, check_answers, epoch_graphs, update_stream  # noqa: E402


def _contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_contract_matches_catalogue():
    contract = _contract()
    named = [w["name"] for w in contract["workloads"]]
    assert named == [name for name in WORKLOADS if name in named]
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_smoke_emits_every_metric():
    for workload in WORKLOADS:
        for trace, names in (("0", END_TO_END), ("1", {n: u for n, (u, _) in PER_LAYER.items()})):
            out = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", trace, "--smoke")
            assert out.returncode == 0, (workload, trace, out.stdout[-2000:], out.stderr[-3000:])
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1
            assert result["failed"] == 0
            assert {n: m["unit"] for n, m in result["metrics"].items()} == names
            printed = {line.split()[0]: line.split() for line in lines[:-1] if line.split()}
            expected = dict(names, **REPORTED)
            if not WORKLOADS[workload].update_interval:
                del expected["slo_miss_frac"], expected["update_p50_ms"]
            for name, unit in expected.items():
                row = printed[name]
                assert row[2] == unit and row[3].startswith("n="), row


def test_verifier_catches_corrupted_answer():
    from repro.algorithms.dijkstra import dijkstra_distance
    from workload import SMOKE

    base = SMOKE.graph()
    batches = update_stream(base, 2, seed=1)
    graphs = epoch_graphs(base, batches)
    vertices = sorted(base.vertices())
    answers = [
        Answer(s, t, dijkstra_distance(graphs[e], s, t), e)
        for e in range(len(graphs)) for s, t in zip(vertices[:8], vertices[-8:])
    ]
    assert check_answers(answers, graphs) == []
    victim = answers[len(answers) // 2]
    corrupted = list(answers)
    corrupted[len(answers) // 2] = Answer(
        victim.source, victim.target, victim.distance * (1 + 1e-6), victim.epoch)
    assert len(check_answers(corrupted, graphs)) == 1
    future = Answer(victim.source, victim.target, victim.distance, len(graphs))
    assert len(check_answers([future], graphs)) == 1


def test_refuses_without_package():
    bare = os.path.join(WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = _run("--workload", "batch-od", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
