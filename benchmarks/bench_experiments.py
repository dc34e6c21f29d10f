"""Benchmark the reproduced experiments: one case per experiment id.

Each case times one full sweep of the experiment at smoke scale; pass
``--repro-scale=full`` (see conftest) for the full-scale tables. The
table itself and the experiment's claim ride in the benchmark's
``extra_info`` so results stay inspectable in the pytest-benchmark JSON.
Case ids are zero-padded (``E02``, ``E20``) so ``-k E02`` selects
exactly one experiment.
"""

import pytest

from repro.experiments import get_experiment

EXPERIMENT_IDS = [f"E{i}" for i in range(1, 21)] + ["A1", "A2", "A3", "X1"]


def _case_id(experiment_id: str) -> str:
    return f"{experiment_id[0]}{int(experiment_id[1:]):02d}"


@pytest.mark.parametrize(
    "experiment_id", EXPERIMENT_IDS, ids=[_case_id(i) for i in EXPERIMENT_IDS]
)
def test_bench_experiment(benchmark, repro_scale, experiment_id):
    experiment = get_experiment(experiment_id)
    table = benchmark.pedantic(
        lambda: experiment(scale=repro_scale, seed=0), rounds=1, iterations=1
    )
    assert len(table) > 0
    benchmark.extra_info["experiment"] = experiment_id
    benchmark.extra_info["claim"] = experiment.claim
    benchmark.extra_info["table"] = table.to_csv()
