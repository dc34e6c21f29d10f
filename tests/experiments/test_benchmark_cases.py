"""The parametrized experiment benchmark covers real experiments, and its
case ids are safe to select one at a time with ``pytest -k``."""

import importlib.util
from pathlib import Path

import repro.experiments  # noqa: F401  (import = registration)
from repro.experiments import get_experiment

BENCH_FILE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_experiments.py"
)


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_experiments", BENCH_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_is_a_registered_experiment_with_a_claim():
    bench = _bench_module()
    assert len(bench.EXPERIMENT_IDS) == len(set(bench.EXPERIMENT_IDS)) == 24
    for experiment_id in bench.EXPERIMENT_IDS:
        assert get_experiment(experiment_id).claim


def test_no_case_id_contains_another():
    bench = _bench_module()
    case_ids = [bench._case_id(i) for i in bench.EXPERIMENT_IDS]
    assert "E02" in case_ids and "E20" in case_ids
    for case_id in case_ids:
        assert [other for other in case_ids if case_id in other] == [case_id]
