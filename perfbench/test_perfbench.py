"""Self-test of the benchmark at tiny sizes.

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that an unfinishable scenario raises ``failed_frac`` instead of
aborting, that a traced run leaves the program's functions exactly as it
found them, and that the benchmark refuses to run without ``src/``::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, run, spans, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_plain_run_emits_every_end_to_end_metric(name):
    result = run.benchmark(name, 3, 0, trace=False, size="tiny", setup_samples=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    table = {row[0]: (row[1], row[2]) for row in result["table"]}
    assert table["failed_frac"] == (0.0, "ratio")


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric_and_restores(name):
    originals = {
        (owner, attr): vars(owner)[attr]
        for owner, attr, _ in spans._targets(spans.SpanRecorder())
    }
    from repro.core.engine import Channel

    transmit = Channel.transmit
    result = run.benchmark(name, 3, 0, trace=True, size="tiny")
    # traced bytes equal the plain pass's, or the run counts failures
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert metrics["topologies.build_calls"]["value"] > 0
    assert metrics["runner.run_ms_p50"]["value"] > 0
    assert Channel.transmit is transmit
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("name", ["decay_grid", "mix_store"])
def test_unfinishable_scenario_counts_as_failed(name, tmp_path):
    workload = workloads.build(name, 3, "tiny")
    doomed = workload.scenarios[0].with_(max_rounds=1)
    workload = dataclasses.replace(
        workload, scenarios=workload.scenarios + (doomed,)
    )
    bench = harness.Bench(workload, str(tmp_path))
    bench.plain(0)
    assert bench.tally.failed == 1
    assert bench.failed_frac() > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    args = ["--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
