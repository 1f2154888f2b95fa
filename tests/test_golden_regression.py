"""Golden regression: the policy refactor preserves closed-system results.

``tests/golden/system_results.json`` was captured from the pre-refactor
subclass implementations (one entry per registered policy and mix, float
fields fingerprinted with ``float.hex`` so equality is bit-exact).  Every
registered policy, now composed as ``MultitaskSystem(apps, policy=...)``,
must reproduce those results byte-for-byte.

BP-BS / BP-SB are defined for exactly two applications, so the
four-program mix covers the other seven policies only — matching the
capture.

Every fixture is asserted twice, once with a cold and once with a warm
process-wide solo-IPC memo, so both the path that computes solo IPCs and
the path that reuses them (as a sweep over one mix does) must reproduce
the same bytes.
"""

import json
import os

import pytest

from repro.core.system import clear_solo_ipc_cache
from repro.exec.registry import resolve_policy
from repro.workloads.mixes import build_mix

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "system_results.json")
MIXES = {
    "PVC_DXTC": ["PVC", "DXTC"],
    "SRAD_CP_LBM_FWT": ["SRAD", "CP", "LBM", "FWT"],
}


def _load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


GOLDEN = _load_golden()

# The case ids keep the names of the two kernel backends these cases ran
# under before the epoch loop was unified, so each case's history stays
# under one name.  "scalar": cold memo, the asserted run computes every
# solo IPC itself.  "numpy": warm memo, an identical run fills the memo
# first and the asserted run takes every solo IPC from it.
MEMO_STATES = [pytest.param(False, id="scalar"),
               pytest.param(True, id="numpy")]


@pytest.mark.parametrize("warm_memo", MEMO_STATES)
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_policy_reproduces_golden_result(key, warm_memo):
    policy, mix_name = key.split(":")
    want = GOLDEN[key]
    apps = build_mix(MIXES[mix_name]).applications
    # The solo-IPC memo is process-wide; clear it so this case, not an
    # earlier test, decides what the memo holds.
    clear_solo_ipc_cache()
    if warm_memo:
        warm_apps = build_mix(MIXES[mix_name]).applications
        resolve_policy(policy)(warm_apps).run(mix_name=mix_name)
    result = resolve_policy(policy)(apps).run(mix_name=mix_name)

    assert result.policy == want["policy"]
    assert result.mix_name == want["mix_name"]
    assert result.total_cycles == want["total_cycles"]
    assert result.repartitions == want["repartitions"]

    got_runs = [
        {"app_id": r.app_id, "name": r.name,
         "ipc": r.ipc.hex(), "ipc_alone": r.ipc_alone.hex()}
        for r in result.runs
    ]
    assert got_runs == want["runs"]

    assert len(result.epochs) == len(want["epochs"])
    for epoch, want_epoch in zip(result.epochs, want["epochs"]):
        assert epoch.index == want_epoch["index"]
        assert epoch.start_cycle == want_epoch["start"]
        assert epoch.end_cycle == want_epoch["end"]
        assert epoch.migration_cycles == want_epoch["migration_cycles"]
        assert epoch.repartitioned == want_epoch["repartitioned"]
        assert ({str(k): v for k, v in epoch.instructions.items()}
                == want_epoch["instructions"])
        assert ({str(k): list(v) for k, v in
                 epoch.detail["allocations"].items()}
                == {k: list(v) for k, v in want_epoch["allocations"].items()})
