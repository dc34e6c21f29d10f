"""The benchmark's workloads: seeded scenario sets for ``repro``.

Each workload is a list of :class:`repro.Scenario` built from the
benchmark's ``--seed`` alone, so the same seed always gives the same
inputs and the program under test only ever sees the generated
scenarios. ``size="full"`` is the measured set; ``size="tiny"`` is the
same shape at toy sizes, used to warm lazy imports before timing and by
the self-test.

Every workload uses i.i.d. receiver faults at p=0.3 unless its loss-model
list says otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: receiver-fault probability shared by every workload
P_FAULT = 0.3


@dataclass(frozen=True)
class Workload:
    """One named scenario set and how the benchmark drives it.

    ``batch`` workloads go through ``run_batch(scenarios, store=...)``
    in one call; the others call ``repro.runner.run`` once per scenario
    so each run can be timed on its own.
    """

    name: str
    scenarios: tuple
    batch: bool


def _seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct scenario seeds derived from the workload seed."""
    return random.Random(seed).sample(range(2**31), count)


def decay_grid(seed: int, size: str) -> Workload:
    """Decay on a grid: thousands of informed nodes polled every round."""
    from repro import FaultConfig, Scenario

    n, count = (1024, 10) if size == "full" else (64, 2)
    scenarios = tuple(
        Scenario(
            "decay",
            "grid",
            {"n": n},
            faults=FaultConfig.receiver(P_FAULT),
            seed=s,
        )
        for s in _seeds(seed, count)
    )
    return Workload("decay_grid", scenarios, batch=False)


def fastbc_path(seed: int, size: str) -> Workload:
    """FASTBC and Robust FASTBC on a path: many rounds, few broadcasters."""
    from repro import FaultConfig, Scenario

    n, count = (256, 6) if size == "full" else (32, 1)
    scenarios = tuple(
        Scenario(
            algorithm,
            "path",
            {"n": n},
            faults=FaultConfig.receiver(P_FAULT),
            seed=s,
        )
        for s in _seeds(seed, count)
        for algorithm in ("fastbc", "robust_fastbc")
    )
    return Workload("fastbc_path", scenarios, batch=False)


def _loss_models() -> dict:
    """Scenario keyword arguments for each loss model of ``mix_store``."""
    from repro import AdversaryConfig, FaultConfig

    return {
        "sender": {"faults": FaultConfig.sender(P_FAULT)},
        "receiver": {"faults": FaultConfig.receiver(P_FAULT)},
        "gilbert_elliott": {"adversary": AdversaryConfig("gilbert_elliott")},
        "edge_churn": {"adversary": AdversaryConfig("edge_churn")},
        # the default budget=None pins every run at its round budget
        "budgeted_jammer": {
            "adversary": AdversaryConfig("budgeted_jammer", {"budget": 20})
        },
        "contention": {
            "faults": FaultConfig.receiver(P_FAULT),
            "channel": "contention",
        },
    }


#: network algorithms of ``mix_store``, crossed with topology and loss model
MIX_ALGORITHMS = ("decay", "fastbc", "robust_fastbc", "repeated_fastbc")
MIX_TOPOLOGIES = ("path", "grid", "gnp")
#: centralized schedules of ``mix_store``, crossed with the two iid models
MIX_SCHEDULES = (
    ("star_routing", "star"),
    ("star_coding", "star"),
    ("single_link_routing", "single_link"),
    ("single_link_coding", "single_link"),
)
#: RLNC over Decay (receiver faults) keeps ``repro.coding`` measured; one
#: tiny run costs about ten of the others, so it gets one combination only
MIX_CODING = ("rlnc_decay", "grid", {"k": 4, "payload_length": 16})


def mix_store(seed: int, size: str) -> Workload:
    """~300 tiny scenarios in one store-backed batch: framework overhead."""
    from repro import Scenario

    losses = _loss_models()
    combos = (
        [
            (algorithm, topology, {}, losses[loss])
            for algorithm in MIX_ALGORITHMS
            for topology in MIX_TOPOLOGIES
            for loss in losses
        ]
        + [
            (algorithm, topology, {}, losses[loss])
            for algorithm, topology in MIX_SCHEDULES
            for loss in ("sender", "receiver")
        ]
        + [MIX_CODING + (losses["receiver"],)]
    )
    per_combo = 4 if size == "full" else 1
    seeds = iter(_seeds(seed, per_combo * len(combos)))
    scenarios = tuple(
        Scenario(algorithm, topology, {"n": 16}, params, seed=next(seeds), **loss)
        for _ in range(per_combo)
        for algorithm, topology, params, loss in combos
    )
    return Workload("mix_store", scenarios, batch=True)


#: workload name -> builder(seed, size)
WORKLOADS = {
    "decay_grid": decay_grid,
    "fastbc_path": fastbc_path,
    "mix_store": mix_store,
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload ``name`` generated from ``seed`` at ``size``."""
    if size not in ("full", "tiny"):
        raise ValueError(f"size must be 'full' or 'tiny', got {size!r}")
    return WORKLOADS[name](seed, size)
