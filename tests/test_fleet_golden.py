"""Golden fleet corpus: placement must not change what a fleet run scores.

``tests/golden/fleet_results.json`` pins one entry per fleet size,
placement policy and slicing mode — the same :class:`FleetResult` fields
the benchmark fingerprints (rounds, job counts, migrations, STP, ANTT,
fragmentation, active nodes, shard runs, energy), floats as
``float.hex`` so equality is bit-exact.  The corpus was recorded before
fleet admission went through the placement index, so it pins the index
to the per-node scan's results.

Regenerate (only when a change is *meant* to move fleet results) with::

    PYTHONPATH=src python tests/test_fleet_golden.py
"""

import json
import os

import pytest

from repro.cluster import FleetSimulator, PlacementPolicy
from repro.workloads import poisson_arrivals

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "fleet_results.json")

#: The ``tests/test_fleet.py`` horizon: small kernels that really depart.
IPK = 50_000_000
HORIZON = 30_000_000
ROUND = 2_500_000
#: Mean inter-arrival at 12 nodes, scaled by 12/nodes for larger fleets:
#: busy enough that placement changes scores, with no queue left behind.
BASE_MEAN = 75_000
#: Rebalance often so the defragmenting policies really migrate.
REBALANCE_EVERY = 2
SIZES = (12, 48)
SLICINGS = ("ugpu", "mig")


def _key(nodes: int, placement: PlacementPolicy, slicing: str) -> str:
    return f"{nodes}:{placement.value}:{slicing}"


def _hex(value):
    return None if value is None else float(value).hex()


def fingerprint(nodes: int, placement: PlacementPolicy, slicing: str) -> dict:
    schedule = poisson_arrivals(BASE_MEAN * 12 // nodes, HORIZON, seed=0,
                                instructions_per_kernel=IPK)
    result = FleetSimulator(
        nodes, schedule, placement, slicing=slicing, round_cycles=ROUND,
        horizon_cycles=HORIZON, rebalance_every=REBALANCE_EVERY,
        instructions_per_kernel=IPK,
    ).run()
    return {
        "rounds": result.rounds,
        "arrivals": result.arrivals,
        "admissions": result.admissions,
        "departures": result.departures,
        "migrations": result.migrations,
        "migrated_bytes": _hex(result.migrated_bytes),
        "waiting_at_horizon": result.waiting_at_horizon,
        "never_arrived": result.never_arrived,
        "stp": _hex(result.stp),
        "antt": _hex(result.antt),
        "fragmentation": _hex(result.fragmentation),
        "mean_active_nodes": _hex(result.mean_active_nodes),
        "shard_runs": result.shard_runs,
        "energy": _hex(result.energy.total
                       if result.energy is not None else None),
    }


CASES = [(nodes, placement, slicing)
         for nodes in SIZES for placement in PlacementPolicy
         for slicing in SLICINGS]


def _load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_corpus_covers_every_case():
    assert sorted(_load_golden()) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize(
    "nodes,placement,slicing", CASES,
    ids=[_key(*case) for case in CASES])
def test_fleet_reproduces_golden_result(nodes, placement, slicing):
    want = _load_golden()[_key(nodes, placement, slicing)]
    assert fingerprint(nodes, placement, slicing) == want


if __name__ == "__main__":
    corpus = {_key(*case): fingerprint(*case) for case in CASES}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(corpus)} fleet results to {GOLDEN_PATH}")
