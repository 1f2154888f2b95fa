"""Integration tests for the system simulations: UGPU, BP variants, MPS
and CD-Search (repro.core.system / ugpu, repro.baselines)."""

import pytest

from repro import (
    BPBigSmallSystem,
    BPSmallBigSystem,
    BPSystem,
    CDSearchSystem,
    MPSSystem,
    MigrationMode,
    QoSTarget,
    UGPUSystem,
    build_mix,
)
from repro.errors import ConfigError
from repro.metrics import EnergyModel


def het_mix():
    return build_mix(["PVC", "DXTC"])


class TestBPSystem:
    def test_even_partition_and_no_repartitioning(self):
        result = BPSystem(het_mix().applications).run()
        assert result.policy == "BP"
        assert result.repartitions == 0
        assert all(e.migration_fraction == 0 for e in result.epochs)

    def test_bp_np_close_to_half(self):
        result = BPSystem(het_mix().applications).run()
        for run in result.runs:
            assert 0.4 <= run.normalized_progress <= 0.6

    def test_big_small_variants_are_mirror_images(self):
        bs = BPBigSmallSystem(het_mix().applications).run()
        sb = BPSmallBigSystem(het_mix().applications).run()
        # PVC gets the big partition in BS, the small one in SB.
        np_bs = {r.name: r.normalized_progress for r in bs.runs}
        np_sb = {r.name: r.normalized_progress for r in sb.runs}
        assert np_bs["PVC"] > np_sb["PVC"]
        assert np_bs["DXTC"] < np_sb["DXTC"]

    def test_unequal_partitions_do_not_beat_bp_much(self):
        """Figure 10's message: BP, BP-BS and BP-SB are all similar."""
        bp = BPSystem(het_mix().applications).run()
        bs = BPBigSmallSystem(het_mix().applications).run()
        sb = BPSmallBigSystem(het_mix().applications).run()
        for variant in (bs, sb):
            assert abs(variant.stp - bp.stp) < 0.35 * bp.stp

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigError):
            BPSystem([])


class TestRunnerInputValidation:
    """Bad horizons are rejected at the runner boundary, not deep in the
    epoch loop."""

    @pytest.mark.parametrize("epoch_cycles", [0, -5_000_000])
    def test_non_positive_epoch_rejected_at_construction(self, epoch_cycles):
        from repro.core.system import MultitaskSystem
        from repro.policies import UGPUPolicy

        with pytest.raises(ConfigError, match="epoch_cycles"):
            MultitaskSystem(het_mix().applications, policy=UGPUPolicy(),
                            epoch_cycles=epoch_cycles)

    @pytest.mark.parametrize("total_cycles", [0, -1])
    @pytest.mark.parametrize("open_system", [False, True])
    def test_non_positive_horizon_rejected(self, total_cycles, open_system):
        from repro.core.system import MultitaskSystem
        from repro.policies import BPPolicy
        from repro.workloads import poisson_arrivals

        arrivals = (poisson_arrivals(1_000_000, 5_000_000, seed=0)
                    if open_system else None)
        system = MultitaskSystem(
            [] if open_system else het_mix().applications,
            policy=BPPolicy(), arrivals=arrivals)
        with pytest.raises(ConfigError, match="total_cycles"):
            system.run(total_cycles)


class TestUGPUSystem:
    def test_beats_bp_on_heterogeneous_mix(self):
        bp = BPSystem(het_mix().applications).run()
        ugpu = UGPUSystem(het_mix().applications).run()
        assert ugpu.stp > 1.15 * bp.stp
        assert ugpu.antt < bp.antt

    def test_gives_memory_bound_app_channels(self):
        system = UGPUSystem(het_mix().applications)
        system.run()
        assert system.apps[0].allocation.channels > 16   # PVC
        assert system.apps[1].allocation.sms > 40        # DXTC

    def test_offline_beats_online(self):
        online = UGPUSystem(het_mix().applications).run()
        offline = UGPUSystem(het_mix().applications, offline=True).run()
        assert offline.policy == "UGPU-offline"
        assert offline.stp >= online.stp
        assert offline.repartitions == 0

    def test_mode_ordering_matches_figure11(self):
        """BP > UGPU-Ori; UGPU-Soft between Ori and full UGPU."""
        bp = BPSystem(het_mix().applications).run()
        ugpu = UGPUSystem(het_mix().applications).run()
        soft = UGPUSystem(het_mix().applications,
                          mode=MigrationMode.SOFTWARE).run()
        ori = UGPUSystem(het_mix().applications,
                         mode=MigrationMode.TRADITIONAL).run()
        assert ori.stp < bp.stp
        assert ori.stp < soft.stp < ugpu.stp

    def test_homogeneous_mix_stays_balanced(self):
        system = UGPUSystem(build_mix(["PVC", "LAVAMD"]).applications)
        result = system.run()
        assert system.apps[0].allocation.channels == 16
        assert result.repartitions == 0

    def test_migration_fraction_bounded(self):
        result = UGPUSystem(het_mix().applications).run()
        assert all(f <= 0.25 for f in result.migration_fractions())

    def test_energy_accounting(self):
        result = UGPUSystem(
            het_mix().applications, energy_model=EnergyModel()
        ).run()
        assert result.energy is not None
        assert result.energy.total > 0
        assert 0.05 < result.energy.memory_fraction < 0.45

    def test_qos_target_met(self):
        # DXTC (app 1) is the high-priority app with a 0.75 NP floor.
        result = UGPUSystem(
            het_mix().applications, qos=QoSTarget(app_id=1, target_np=0.75)
        ).run()
        dxtc = next(r for r in result.runs if r.name == "DXTC")
        assert dxtc.normalized_progress >= 0.70  # small online slack

    def test_four_program_mix(self):
        mix = build_mix(["PVC", "LAVAMD", "DXTC", "CP"])
        bp = BPSystem(build_mix(["PVC", "LAVAMD", "DXTC", "CP"]).applications).run()
        ugpu = UGPUSystem(mix.applications).run()
        assert ugpu.stp > bp.stp

    def test_result_metadata(self):
        result = UGPUSystem(het_mix().applications).run(mix_name="PVC_DXTC")
        assert result.mix_name == "PVC_DXTC"
        assert result.total_cycles == 25_000_000
        assert len(result.epochs) == 5


class TestMPSSystem:
    def test_mps_shares_memory(self):
        result = MPSSystem(het_mix().applications).run()
        assert result.policy == "MPS"
        # The compute-bound app suffers from contention: NP below its
        # BP entitlement for SM share 40/80 is possible but bounded.
        assert 0 < result.stp < 2

    def test_mps_contention_hurts_coexecuting_compute_app(self):
        """Figure 16: without isolation the high-priority app can fall
        below the QoS floor that BP/UGPU guarantee."""
        mps = MPSSystem(
            het_mix().applications, sm_assignment={1: 60, 0: 20}
        ).run()
        bp = BPSystem(het_mix().applications, qos_big_first=False).run()
        dxtc_mps = next(r for r in mps.runs if r.name == "DXTC")
        # With 60 SMs DXTC would reach 0.75 NP alone; contention can eat
        # into it (or not, for mild co-runners) - it must never exceed it.
        assert dxtc_mps.normalized_progress <= 0.76

    def test_invalid_contention_overhead(self):
        with pytest.raises(Exception):
            MPSSystem(het_mix().applications, contention_overhead=1.5)


class TestCDSearchSystem:
    def test_moves_sms_but_not_channels(self):
        system = CDSearchSystem(het_mix().applications)
        result = system.run()
        assert system.apps[0].allocation.channels == 16
        assert system.apps[1].allocation.channels == 16
        assert system.apps[1].allocation.sms > 40

    def test_between_bp_and_ugpu(self):
        """Figure 13's ordering: BP < BP(CD-Search) < UGPU."""
        bp = BPSystem(het_mix().applications).run()
        cd = CDSearchSystem(het_mix().applications).run()
        ugpu = UGPUSystem(het_mix().applications).run()
        assert bp.stp < cd.stp < ugpu.stp

    @pytest.mark.parametrize("mix", [
        ("LAVAMD", "LBM", "DXTC", "HOTSPOT"),
        ("LAVAMD", "LBM", "DXTC", "PF"),
    ])
    def test_shrinking_past_half_the_sms_is_a_bounded_stall(self, mix):
        """Regression: an app that gives away more SMs than it keeps used
        to be charged a stall factor above 1 and the run raised
        ``ConfigError: invalid penalty``; the factor is clamped to 1 as
        UGPU clamps it."""
        from repro.exec.registry import resolve_policy
        from repro.workloads.mixes import build_mix

        result = resolve_policy("cd-search")(
            build_mix(list(mix)).applications
        ).run(25_000_000, mix_name="_".join(mix))
        assert result.repartitions > 0
        assert all(0 < run.normalized_progress <= 1.0 for run in result.runs)


class TestEpochAllocationTraces:
    def test_allocation_snapshots_recorded(self):
        result = UGPUSystem(het_mix().applications).run()
        for epoch in result.epochs:
            allocations = epoch.detail["allocations"]
            assert set(allocations) == {0, 1}
            assert sum(sms for sms, _ in allocations.values()) == 80
            assert sum(mcs for _, mcs in allocations.values()) == 32

    def test_trace_shows_the_repartition(self):
        # Snapshots are taken after the epoch-boundary decision, so epoch
        # 0 already records the first unbalanced split (the epoch itself
        # executed on the even partition), and the run ends unbalanced.
        result = UGPUSystem(het_mix().applications).run()
        first = result.epochs[0].detail["allocations"]
        last = result.epochs[-1].detail["allocations"]
        assert result.epochs[0].repartitioned
        assert first[0][1] > 16          # PVC granted channels at epoch 0
        assert last[0][1] > 16           # and still holds them at the end

    def test_static_policy_trace_is_constant(self):
        result = BPSystem(het_mix().applications).run()
        traces = {tuple(sorted(e.detail["allocations"].items()))
                  for e in result.epochs}
        assert len(traces) == 1
