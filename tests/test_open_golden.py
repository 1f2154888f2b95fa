"""Golden open-system corpus: the epoch loop's other paths, pinned.

``tests/golden/system_results.json`` pins closed runs at the paper's
epoch length.  ``tests/golden/open_results.json`` pins what those runs
never reach, floats as ``float.hex`` so equality is bit-exact:

- ``open:<policy>``: a seeded Poisson open-system run under every
  registered policy (arrivals, admissions, departures, the per-boundary
  membership changes, MPS's resident-set throughput cache and
  CD-Search's stateful throughput path), with energy so the DRAM byte
  accumulator is pinned too;
- ``qos:<system>``: the Figure 16 trio (MPS with the offline SM split,
  QoS-aware BP, UGPU with an NP target) on one heterogeneous pair;
- ``oversub:<policy>``: the E1 oversubscription scenario, closed and
  open, with ``total_memory_bytes`` set, so every epoch pays the
  far-fault capacity factor; on a GPU the hog overflows even alone
  (``tight-``), its solo denominator pays the fault charge too;
- ``closed:<policy>``: fine-grained closed runs whose kernel crossings
  fall between epochs, so steady spans collapse under static policies.

A UGPU run, closed and open, with a TraceRecorder, a MetricsRegistry
and a PhaseProfiler attached must reproduce the unobserved entries
exactly; ``observed:*`` pins what those observers saw: trace records per
category, profiler calls per phase and the Prometheus exposition.  The
throughput-memo lookup counters are left out of the exposition: they
count cache traffic, which depends on how the epoch loop caches, not on
what it simulates.

Regenerate (only when a change is *meant* to move these results) with::

    PYTHONPATH=src python tests/test_open_golden.py
"""

import dataclasses
import json
import os
from collections import Counter

import pytest

from repro import QoSTarget, build_mix
from repro.core.system import MultitaskSystem, clear_solo_ipc_cache
from repro.exec.registry import registered_policies, resolve_policy
from repro.gpu import Application, Kernel
from repro.metrics.energy import EnergyModel
from repro.policies import BPPolicy, MPSPolicy, UGPUPolicy
from repro.profiling import PhaseProfiler
from repro.telemetry import MetricsRegistry, to_prometheus
from repro.trace import TraceRecorder
from repro.units import GB
from repro.workloads.arrivals import poisson_arrivals

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "open_results.json")

#: Open runs: short epochs and small kernels, so jobs really depart,
#: and arrivals fast enough that some queue at the eight-slot limit.
OPEN_HORIZON = 24_000_000
OPEN_EPOCH = 500_000
OPEN_MEAN = 600_000
OPEN_IPK = 60_000_000
OPEN_SEED = 11
#: The big/small BP variants are defined for exactly two residents: they
#: run open with a resident pair filling both slots, so every arrival
#: queues behind it.
PAIR_POLICIES = {"bp-bs", "bp-sb"}
OPEN_PAIR = ("PVC", "DXTC")
#: Figure 16: the compute-bound app (id 1) is high-priority.
QOS_PAIR = ("LBM", "DXTC")
QOS_NP = 0.75
QOS_HORIZON = 25_000_000
#: E1: a 16 GB GPU whose even split (8 GB) the hog overflows.
TOTAL_MEMORY = 16 * GB
#: A GPU smaller than the hog's footprint.
TIGHT_MEMORY = 8 * GB
OVERSUB_HORIZON = 25_000_000
CLOSED_MIX = ("PVC", "DXTC", "LBM", "SRAD")
CLOSED_HORIZON = 25_000_000
CLOSED_EPOCH = 250_000
#: Kernels several epochs long, so steady spans between crossings exist.
CLOSED_IPK = 1_000_000_000


def _hex(value):
    return None if value is None else float(value).hex()


def _energy(energy):
    if energy is None:
        return None
    return {f.name: _hex(getattr(energy, f.name))
            for f in dataclasses.fields(energy)}


def _epochs(result):
    return [
        [e.index, e.start_cycle, e.end_cycle, e.migration_cycles,
         e.repartitioned,
         sorted([app_id, n] for app_id, n in e.instructions.items()),
         sorted([app_id, sms, channels] for app_id, (sms, channels)
                in e.detail["allocations"].items())]
        for e in result.epochs
    ]


def fingerprint(result) -> dict:
    """Every deterministic field of a closed or open run result."""
    out = {
        "policy": result.policy,
        "mix_name": result.mix_name,
        "total_cycles": result.total_cycles,
        "repartitions": result.repartitions,
        "energy": _energy(result.energy),
        "epochs": _epochs(result),
    }
    if hasattr(result, "arrivals"):
        out["lifecycle"] = [result.arrivals, result.admissions,
                            result.departures]
        out["runs"] = [
            [r.app_id, r.name, r.instructions, _hex(r.ipc_alone),
             r.arrival_cycle, r.admit_cycle, r.depart_cycle]
            for r in result.runs
        ]
    else:
        out["runs"] = [[r.app_id, r.name, _hex(r.ipc), _hex(r.ipc_alone)]
                       for r in result.runs]
    if result.runs:
        out["stp"] = _hex(result.stp)
        out["antt"] = _hex(result.antt)
    return out


def _schedule():
    return poisson_arrivals(OPEN_MEAN, OPEN_HORIZON, seed=OPEN_SEED,
                            instructions_per_kernel=OPEN_IPK)


def run_open(policy: str, **observers):
    clear_solo_ipc_cache()
    initial, slots = [], None
    if policy in PAIR_POLICIES:
        initial, slots = build_mix(list(OPEN_PAIR)).applications, 2
    system = resolve_policy(policy)(
        initial, arrivals=_schedule(), epoch_cycles=OPEN_EPOCH,
        max_slots=slots, energy_model=EnergyModel(), **observers)
    return system.run(OPEN_HORIZON, mix_name=f"open-{policy}")


def run_closed(policy: str, **observers):
    clear_solo_ipc_cache()
    apps = build_mix(list(CLOSED_MIX), instructions_per_kernel=CLOSED_IPK
                     ).applications
    system = resolve_policy(policy)(
        apps, epoch_cycles=CLOSED_EPOCH, energy_model=EnergyModel(),
        **observers)
    return system.run(CLOSED_HORIZON, mix_name="closed")


def run_qos(name: str):
    clear_solo_ipc_cache()
    if name == "mps":
        system = MultitaskSystem(
            build_mix(list(QOS_PAIR)).applications,
            policy=MPSPolicy(sm_assignment={1: 60, 0: 20}))
    elif name == "bp":
        system = MultitaskSystem(
            build_mix([QOS_PAIR[1], QOS_PAIR[0]]).applications,
            policy=BPPolicy(qos_big_first=True))
    else:
        system = MultitaskSystem(
            build_mix(list(QOS_PAIR)).applications,
            policy=UGPUPolicy(qos=QoSTarget(app_id=1, target_np=QOS_NP)))
    return system.run(QOS_HORIZON, mix_name="_".join(QOS_PAIR))


def _hog_and_tiny():
    return [
        Application(0, "HOG", [Kernel(
            name="hog", ipc_per_sm=64.0, apki_llc=6.0, llc_hit_rate=0.25,
            footprint_bytes=12 * GB, instructions=6_000_000_000)]),
        Application(1, "TINY", [Kernel(
            name="tiny", ipc_per_sm=64.0, apki_llc=1.2,
            llc_hit_rate=0.9997, footprint_bytes=20 * 1024 * 1024,
            instructions=6_000_000_000)]),
    ]


def run_oversub(policy: str):
    clear_solo_ipc_cache()
    if policy.startswith("open-"):
        system = resolve_policy(policy[len("open-"):])(
            [], arrivals=_schedule(), epoch_cycles=OPEN_EPOCH,
            total_memory_bytes=4 * GB)
        return system.run(OPEN_HORIZON, mix_name="oversub-open")
    memory = TOTAL_MEMORY
    if policy.startswith("tight-"):
        policy, memory = policy[len("tight-"):], TIGHT_MEMORY
    system = resolve_policy(policy)(
        _hog_and_tiny(), total_memory_bytes=memory,
        energy_model=EnergyModel())
    return system.run(OVERSUB_HORIZON, mix_name="HOG_TINY")


QOS_SYSTEMS = ("mps", "bp", "ugpu")
OVERSUB_POLICIES = ("bp", "ugpu", "tight-ugpu", "open-ugpu")
CLOSED_POLICIES = ("bp", "ugpu")


def _cases():
    cases = {f"open:{p}": (run_open, p) for p in registered_policies()}
    cases.update({f"qos:{s}": (run_qos, s) for s in QOS_SYSTEMS})
    cases.update({f"oversub:{p}": (run_oversub, p) for p in OVERSUB_POLICIES})
    cases.update({f"closed:{p}": (run_closed, p) for p in CLOSED_POLICIES})
    return cases


CASES = _cases()


def _observed(run):
    """``run('ugpu')`` with every observer attached: its fingerprint plus
    what the observers recorded."""
    tracer = TraceRecorder()
    metrics = MetricsRegistry()
    profiler = PhaseProfiler()
    result = run("ugpu", tracer=tracer, metrics=metrics, profiler=profiler)
    categories = Counter(e.category for e in tracer.events())
    exposition = [line for line in to_prometheus(metrics).splitlines()
                  if "perf_memo" not in line]
    return fingerprint(result), {
        "trace": sorted([name, n] for name, n in categories.items()),
        "phase_calls": sorted([p.name, p.calls] for p in profiler.flat()),
        "metrics": exposition,
    }


OBSERVED = {"observed:closed": run_closed, "observed:open": run_open}


def _fresh() -> dict:
    corpus = {key: fingerprint(run(arg)) for key, (run, arg) in CASES.items()}
    for key, run in OBSERVED.items():
        corpus[key] = _observed(run)[1]
    return corpus


def _load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_corpus_covers_every_case():
    assert sorted(_load_golden()) == sorted([*CASES, *OBSERVED])


@pytest.mark.parametrize("key", sorted(CASES))
def test_run_reproduces_golden_result(key):
    run, arg = CASES[key]
    assert fingerprint(run(arg)) == _load_golden()[key]


@pytest.mark.parametrize("key", sorted(OBSERVED))
def test_observed_run_equals_unobserved_fixture(key):
    golden = _load_golden()
    got, seen = _observed(OBSERVED[key])
    plain = "closed:ugpu" if key == "observed:closed" else "open:ugpu"
    assert got == golden[plain]
    assert seen == golden[key]


def test_corpus_exercises_every_path():
    """The scenarios must keep reaching the paths they pin."""
    golden = _load_golden()
    for policy in registered_policies():
        arrivals, admissions, departures = golden[f"open:{policy}"]["lifecycle"]
        if policy in PAIR_POLICIES:
            assert arrivals > 0 and admissions == 0, policy
        else:
            assert admissions > 0 and departures > 0, policy
    # Some arrivals still queue, and some jobs are resident, at the horizon.
    arrivals, admissions, departures = golden["open:ugpu"]["lifecycle"]
    assert arrivals > admissions > departures
    assert golden["open:ugpu"]["repartitions"] > 0
    # The hog is granted more than the even 16-channel split.
    hog = golden["oversub:ugpu"]["epochs"][-1][6][0]
    assert hog[0] == 0 and hog[2] > 16
    # Only on the tight GPU does the hog's solo IPC pay a fault charge.
    roomy = golden["oversub:ugpu"]["runs"][0][3]
    tight = golden["oversub:tight-ugpu"]["runs"][0][3]
    assert float.fromhex(tight) < float.fromhex(roomy)
    assert golden["closed:ugpu"]["repartitions"] > 0


if __name__ == "__main__":
    corpus = _fresh()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(corpus, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(corpus)} open-system results to {GOLDEN_PATH}")
