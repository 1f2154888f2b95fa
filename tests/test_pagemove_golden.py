"""Golden PageMove corpus: VM translations, migration plans and the DRAM
command stream must not move when the VM or HBM layers are optimised.

``tests/golden/pagemove_results.json`` pins one deterministic script over
the PageMove machinery, floats as ``float.hex`` so equality is bit-exact:

- ``mmu``: every :class:`Translation` (rpn, channel, latency, flags) of a
  demand-fault pass, channel-window shifts through
  :class:`MigrationEngine` (eager-only and eager + lazy, capped and not),
  an on-demand reallocation through the MMU's fault path and re-touches,
  with the :class:`MMUStats` and walker statistics after each phase;
- ``plans``: each :class:`MigrationPlan` (eager and lazy moves) and its
  :class:`MigrationReport`;
- ``walker``: a page-table walker with three threads fed overlapping
  walks, so queued walks pin its admission order;
- ``channel``: commands of every kind issued back to back on one
  channel, each at its earliest legal cycle;
- ``replay``: every ``Channel.issue`` call (channel, kind, bank group,
  bank, row, column, issue cycle) of a PPMM page-copy replay;
- ``drains``: the same command capture for FR-FCFS drains (plain, with a
  write buffer, with refresh), per-request ``completed_at`` and the
  controller statistics.

Regenerate (only when a change is *meant* to move these results) with::

    PYTHONPATH=src python tests/test_pagemove_golden.py
"""

import contextlib
import json
import os
import random

from repro.hbm import HBMConfig, HBMSystem
from repro.hbm.channel import Channel
from repro.hbm.commands import activate, migration, precharge, read, write
from repro.hbm.controller import MemoryController, MemoryRequest, RequestKind
from repro.pagemove import MigrationEngine
from repro.vm.driver import GPUDriver
from repro.vm.mmu import MMU
from repro.vm.page_table import PageTable
from repro.vm.ptw import PageTableWalker

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "pagemove_results.json")

CHANNELS = 8
PAGES_PER_CHANNEL = 2048
#: Per-app footprints: beyond the 512-entry L2 TLB, so re-touches walk.
FOOTPRINTS = (700, 900)
#: (app, channel window, include_lazy, rebalance_cap) per engine shift.
SHIFTS = (
    (0, [1, 2], True, None),
    (1, [2, 3, 4], True, 128),
    (0, [0, 1, 2], False, None),
    (1, [3, 4], True, None),
    (0, [0, 1], True, 64),
)


def _hex(value):
    return float(value).hex()


@contextlib.contextmanager
def _capture_issues(names):
    """Record every ``Channel.issue`` call as (channel name, kind, bank
    group, bank, row, column, issue cycle); ``names`` maps ``id(channel)``
    to a stable name."""
    log = []
    original = Channel.issue

    def issue(channel, cmd, now):
        log.append([names[id(channel)], cmd.kind.value, cmd.bank_group,
                    cmd.bank, cmd.row, cmd.column, now])
        return original(channel, cmd, now)

    Channel.issue = issue
    try:
        yield log
    finally:
        Channel.issue = original


def _translation(t):
    return [t.rpn, t.channel, t.latency, t.l1_hit, t.l2_hit, t.walked,
            t.demand_fault, t.migrated]


def _mmu_state(mmu):
    s = mmu.stats
    w = mmu.walker
    return {
        "stats": [s.accesses, s.l1_hits, s.l2_hits, s.walks,
                  s.demand_faults, s.migration_faults, s.total_latency],
        "walker": [w.walks, w.faults, w.total_latency, w.in_flight,
                   _hex(w.mean_latency)],
        "now": mmu.now,
    }


def _vpns(rng, app_id, footprint):
    """Pages spread over several radix subtrees, so demand walks stop at
    different levels."""
    base = app_id << 28
    dense = rng.sample(range(4096), footprint - 24)
    sparse = [(k << 18) + rng.randrange(512) for k in range(1, 13)]
    far = [(k << 27) + rng.randrange(1 << 18) for k in range(1, 13)]
    return [base + v for v in dense + sparse + far]


def _plan_record(report):
    plan = report.plan
    return {
        "old": sorted(plan.old_channels),
        "new": sorted(plan.new_channels),
        "eager": [[m.vpn, m.src_channel, m.dst_channel] for m in plan.eager],
        "lazy": [[m.vpn, m.src_channel, m.dst_channel] for m in plan.lazy],
        "pages_moved": report.pages_moved,
        "eager_charge": _charge(report.eager_charge),
        "lazy_charge": _charge(report.lazy_charge),
        "l1_flushed": report.l1_entries_flushed,
        "l2_invalidated": report.l2_entries_invalidated,
    }


def _charge(charge):
    return [_hex(charge.window_cycles), _hex(charge.channel_bw_penalty),
            _hex(charge.global_penalty), charge.commands, charge.bytes_moved]


def _mmu_script():
    rng = random.Random(14)
    driver = GPUDriver(num_channel_groups=CHANNELS,
                       pages_per_channel=PAGES_PER_CHANNEL)
    driver.register_app(0, [0, 1])
    driver.register_app(1, [2, 3])
    mmu = MMU(driver)
    engine = MigrationEngine(driver, l2_tlb=mmu.l2_tlb, l1_tlbs=mmu.l1_tlbs,
                             registry=mmu.registry)
    apps = [_vpns(rng, a, n) for a, n in enumerate(FOOTPRINTS)]

    def touch(app_id, vpns, sms=80):
        return [_translation(mmu.translate(rng.randrange(sms), app_id, vpn))
                for vpn in vpns]

    out = {"faults": [touch(a, vpns) for a, vpns in enumerate(apps)]}
    out["after_faults"] = _mmu_state(mmu)
    plans, retouch = [], []
    for app_id, window, include_lazy, cap in SHIFTS:
        plan = engine.plan_channel_reallocation(app_id, window,
                                                rebalance_cap=cap)
        plans.append(_plan_record(engine.execute(plan,
                                                 include_lazy=include_lazy)))
        hot = rng.sample(apps[app_id], 40)
        retouch.append(touch(app_id, rng.sample(apps[app_id], 300)
                             + [rng.choice(hot) for _ in range(200)], sms=2))
    out["retouch"] = retouch
    out["after_shifts"] = _mmu_state(mmu)
    # On-demand reallocation: pages migrate through the MMU fault path.
    mmu.begin_reallocation(1, [4])
    lost = touch(1, apps[1])
    mmu.begin_reallocation(0, [0, 1, 5])
    gained = touch(0, apps[0])
    out["lazy_faults"] = [lost, gained]
    out["after_lazy"] = _mmu_state(mmu)
    out["resident"] = [
        [driver.resident_pages(a, c) for c in range(CHANNELS)]
        for a in range(len(apps))
    ]
    out["entries"] = [
        [[vpn, e.rpn, e.channel, e.valid, e.referenced]
         for vpn, e in driver.page_tables[a].entries()]
        for a in range(len(apps))
    ]
    return out, plans, driver


def _walker_script():
    """Overlapping walks on a three-thread walker: bursts queue."""
    rng = random.Random(3)
    table = PageTable(0)
    mapped = rng.sample(range(1 << 20), 200)
    for vpn in mapped:
        table.map(vpn, vpn + 7, vpn % 8)
    walker = PageTableWalker(max_threads=3, level_latency=120)
    now, log = 0, []
    for _ in range(120):
        now += rng.choice((0, 0, 0, 50, 200, 700))
        vpn = rng.choice((rng.choice(mapped), rng.randrange(1 << 20),
                          rng.randrange(1 << 27), rng.randrange(1 << 36)))
        w = walker.walk(table, vpn, now)
        log.append([vpn, w.issued_at, w.completed_at, w.levels, w.faulted,
                    walker.in_flight])
    return {"walks": log, "stats": [walker.walks, walker.faults,
                                    walker.total_latency,
                                    _hex(walker.mean_latency)]}


def _channel_script():
    """Back-to-back commands of every kind on one channel, each at its
    earliest legal cycle, so every timing bound (tRRD, tFAW, tCCD, tWTR,
    data and bank-group buses) gets to bind."""
    rng = random.Random(11)
    channel = Channel(HBMConfig(), 0)
    now, log = 0, []
    for step in range(400):
        if step % 50 == 0:
            # Close every row, then open eight: activates bunch up.
            burst = [precharge(g, b) for g in range(4) for b in range(4)
                     if channel.groups[g].banks[b].open_row is not None]
            burst += [activate(g, b, rng.randrange(1024))
                      for b in (0, 1) for g in range(4)]
            for cmd in burst:
                at = channel.earliest_issue(cmd, now)
                log.append([cmd.kind.value, cmd.bank_group, cmd.bank,
                            cmd.row, cmd.column, at, channel.issue(cmd, at)])
                now = at
        group, bank = rng.randrange(4), rng.randrange(4)
        state = channel.groups[group].banks[bank]
        if state.open_row is None:
            cmd = activate(group, bank, rng.randrange(1024))
        else:
            op = rng.choice(("RD", "RD", "WR", "MIG", "PRE"))
            column = rng.randrange(32)
            cmd = {
                "RD": lambda: read(group, bank, column),
                "WR": lambda: write(group, bank, column),
                "MIG": lambda: migration(group, bank, state.open_row, column,
                                         1, group, bank, 0, column, 1),
                "PRE": lambda: precharge(group, bank),
            }[op]()
        at = channel.earliest_issue(cmd, now)
        log.append([cmd.kind.value, group, bank, cmd.row, cmd.column, at,
                    channel.issue(cmd, at)])
        now = at + rng.choice((0, 0, 1, 4, 20))
    return {"commands": log, "stats": channel.stats()}


def _replay_script(driver):
    """PPMM command replay of resident pages on the command-level HBM."""
    rng = random.Random(5)
    system = HBMSystem()
    names = {id(ch): f"s{s}c{c}" for s, stack in enumerate(system.stacks)
             for c, ch in enumerate(stack.channels)}
    engine = MigrationEngine(driver)
    channels = system.config.channels_per_stack
    entries = [e for _, e in driver.page_tables[0].entries()]
    completions, now = [], 0
    with _capture_issues(names) as log:
        for entry in rng.sample(entries, 6):
            src = engine.mapping.page_coordinates(entry.rpn).channel
            now = engine.execute_page_on_hardware(
                system, entry.rpn, (src + rng.randrange(1, channels)) % channels,
                now=now)
            completions.append(now)
    return {"completions": completions, "commands": log,
            "stats": system.stats()}


def _drain_script():
    """FR-FCFS drains: plain, write-buffered, and with refresh; some
    requests arrive after the controller's clock so pending ones wait."""
    rng = random.Random(9)
    config = HBMConfig()
    controllers = {
        "plain": MemoryController(config),
        "wbuf": MemoryController(config, write_buffer_entries=16),
        "refresh": MemoryController(config, refresh_enabled=True),
    }
    names = {id(c.channel): name for name, c in controllers.items()}
    out = {}
    with _capture_issues(names) as log:
        for name, controller in controllers.items():
            rounds = []
            for locality in (0.2, 0.5, 0.9):
                row = rng.randrange(1024)
                requests = []
                for _ in range(48):
                    if rng.random() >= locality:
                        row = rng.randrange(1024)
                    requests.append(MemoryRequest(
                        kind=(RequestKind.WRITE if rng.random() < 1 / 3
                              else RequestKind.READ),
                        bank_group=rng.randrange(4), bank=rng.randrange(4),
                        row=row, column=rng.randrange(32),
                        arrival=controller.now + rng.choice((0, 0, 0, 40)),
                    ))
                for request in requests:
                    controller.enqueue(request)
                served = controller.drain()
                rounds.append({
                    "completed_at": [r.completed_at for r in requests],
                    "served_order": [requests.index(r) for r in served],
                })
            s = controller.stats
            out[name] = {
                "rounds": rounds,
                "stats": [s.served, s.row_hits, s.row_misses,
                          s.row_conflicts, s.total_latency, s.bytes_moved],
                "refreshes": controller.refreshes,
                "write_bursts": controller.write_bursts,
                "now": controller.now,
            }
    out["commands"] = log
    return out


def corpus() -> dict:
    mmu, plans, driver = _mmu_script()
    return {
        "mmu": mmu,
        "plans": plans,
        "walker": _walker_script(),
        "channel": _channel_script(),
        "replay": _replay_script(driver),
        "drains": _drain_script(),
    }


def _load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _fresh():
    # Round-trip through JSON so tuples and lists compare alike.
    return json.loads(json.dumps(corpus()))


def test_corpus_has_every_section():
    assert sorted(_load_golden()) == ["channel", "drains", "mmu", "plans",
                                      "replay", "walker"]


def test_pagemove_reproduces_golden_corpus():
    want = _load_golden()
    got = _fresh()
    for section in sorted(want):
        assert got[section] == want[section], section


def test_corpus_exercises_every_path():
    """The script must keep reaching the paths it pins."""
    golden = _load_golden()
    flags = [t for batch in golden["mmu"]["lazy_faults"] for t in batch]
    assert any(t[7] for t in flags), "no migration fault"
    retouch = [t for batch in golden["mmu"]["retouch"] for t in batch]
    assert any(t[3] for t in retouch) and any(t[4] for t in retouch), \
        "no L1 or no L2 hit"
    assert 0 < golden["walker"]["stats"][1] < golden["walker"]["stats"][0]
    assert any(plan["lazy"] for plan in golden["plans"])
    assert {w[3] for w in golden["walker"]["walks"]} >= {1, 2, 3, 4}
    assert any(w[2] - w[1] > w[3] * 120 for w in golden["walker"]["walks"]), \
        "no walk ever queued"
    assert {c[0] for c in golden["channel"]["commands"]} == {
        "ACT", "PRE", "RD", "WR", "MIG"}
    kinds = {c[1] for c in golden["replay"]["commands"]}
    assert kinds == {"ACT", "PRE", "MIG"}
    drains = golden["drains"]
    assert drains["refresh"]["refreshes"] > 0
    assert drains["wbuf"]["write_bursts"] > 0
    assert all(drains[n]["stats"][3] > 0 for n in ("plain", "wbuf", "refresh"))


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(_fresh(), handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print(f"wrote the PageMove corpus to {GOLDEN_PATH}")
