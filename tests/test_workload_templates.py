"""Benchmarks as frozen templates, runs as owners of their progress.

``build_application`` shares one kernel tuple per ``(abbr,
instructions_per_kernel, with_hit_curve)``; ``MultitaskSystem`` runs on
clones, so running the same inputs twice gives the same result.
"""

import dataclasses
import hashlib

import pytest

from repro.core import system as core_system
from repro.core.system import MultitaskSystem, clear_solo_ipc_cache
from repro.errors import ConfigError
from repro.gpu.kernel import Application
from repro.policies import BPPolicy, UGPUPolicy
from repro.workloads import TABLE2, build_application, build_mix
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.benchmarks import _template

ABBRS = [spec.abbr for spec in TABLE2]


class TestTemplates:
    def test_builds_share_one_kernel_tuple(self):
        first = build_application("LBM", app_id=0)
        second = build_application("LBM", app_id=5)
        assert first is not second
        assert first.kernels is second.kernels
        assert second.app_id == 5 and first.app_id == 0

    def test_builds_own_their_progress(self):
        first = build_application("FWT")
        second = build_application("FWT")
        first.advance(first.kernels[0].instructions + 7)
        assert second.progress.kernel_index == 0
        assert second.progress.total_instructions == 0
        assert build_application("FWT").progress.total_instructions == 0

    def test_template_cannot_be_mutated(self):
        app = build_application("BH")
        assert isinstance(app.kernels, tuple)
        with pytest.raises(TypeError):
            app.kernels[0] = app.kernels[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            app.kernels[0].instructions = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            app.kernels[0].hit_curve.alpha = 1.0

    @pytest.mark.parametrize("instructions_per_kernel",
                             [50_000_000, 2_000_000_000, 6_000_000_000])
    @pytest.mark.parametrize("with_hit_curve", [True, False])
    def test_memoised_template_equals_fresh_build(self, instructions_per_kernel,
                                                  with_hit_curve):
        for abbr in ABBRS:
            memo = build_application(
                abbr, instructions_per_kernel=instructions_per_kernel,
                with_hit_curve=with_hit_curve)
            fresh = _template.__wrapped__(abbr, instructions_per_kernel,
                                          with_hit_curve)
            assert memo.name == fresh.name == abbr
            assert len(memo.kernels) == len(fresh.kernels)
            for kept, built in zip(memo.kernels, fresh.kernels):
                assert kept is not built
                assert kept == built
                assert hash(kept) == hash(built)
            assert memo.footprint_bytes == fresh.footprint_bytes
            assert memo.instructions_per_launch == fresh.instructions_per_launch
            assert (memo.kernels[0].hit_curve is None) is not with_hit_curve

    def test_unknown_benchmark_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ConfigError, match="unknown benchmark"):
                build_application("NOPE")

    #: (instructions_per_kernel, seed) -> (events, sha256 of the
    #: (cycle, name, app_id, budget) list), recorded before the templates
    #: were memoised.
    ARRIVALS = {
        (None, 0): (21, "7a784e56f15be371cd4aeffb24d5a42eb62a0b06eb8171bdde091c24b4be6c27"),
        (None, 1): (27, "e19829167cf4f88b5d05f1368794b07bd168a21f4dcc176375a278a9aa8c478a"),
        (None, 2): (24, "298cc82d1778e96ca4f42b9e01a2aba682e28c50f939a45bafdd694f065497a5"),
        (None, 3): (34, "6e4ed3f3d5fcfc860d6e1c33d2e4320a1fc283d121129d476d2c04bdb5eb4022"),
        (50_000_000, 0): (971, "5013299161d39c8ef1659e3edd4c772281e5e58765651faa9c7af1571215d31f"),
        (50_000_000, 1): (997, "54db7211d9d815e419af4ac27e9cb35971c21b331315ff97b44871b90797dad2"),
        (50_000_000, 2): (999, "1f09ebdeda662ae508ab42a2edb4a0749f000e6eae1518be09fa8add1ce36acf"),
        (50_000_000, 3): (1052, "c1d43a713c382c81d93da3215bc14dbb530b9d3d17d9516367931ea6e07559c9"),
    }

    @pytest.mark.parametrize("instructions_per_kernel, seed", sorted(
        ARRIVALS, key=lambda k: (k[0] or 0, k[1])))
    def test_poisson_arrivals_unchanged(self, instructions_per_kernel, seed):
        if instructions_per_kernel is None:
            schedule = poisson_arrivals(1_000_000, 25_000_000, seed=seed)
        else:
            schedule = poisson_arrivals(
                150_000, 150_000_000, seed=seed,
                instructions_per_kernel=instructions_per_kernel)
        text = repr([(e.cycle, e.app.name, e.app.app_id, e.budget_instructions)
                     for e in schedule])
        assert (len(schedule), hashlib.sha256(text.encode()).hexdigest()) \
            == self.ARRIVALS[(instructions_per_kernel, seed)]


class TestRunOwnsProgress:
    def test_closed_mix_runs_twice_identically(self):
        apps = build_mix(["SRAD", "CP", "LBM", "FWT"]).applications
        first = MultitaskSystem(apps, policy=BPPolicy()).run()
        clear_solo_ipc_cache()
        second = MultitaskSystem(apps, policy=BPPolicy()).run()
        assert [(r.name, r.ipc, r.ipc_alone) for r in first.runs] == \
            [(r.name, r.ipc, r.ipc_alone) for r in second.runs]
        assert first == second

    def test_arrival_schedule_runs_twice_identically(self):
        schedule = poisson_arrivals(1_000_000, 25_000_000, seed=7)
        first = MultitaskSystem([], policy=UGPUPolicy(),
                                arrivals=schedule).run(25_000_000)
        clear_solo_ipc_cache()
        second = MultitaskSystem([], policy=UGPUPolicy(),
                                 arrivals=schedule).run(25_000_000)
        assert sum(r.instructions for r in first.runs) == \
            sum(r.instructions for r in second.runs)
        assert first == second

    def test_run_leaves_its_inputs_unstarted(self):
        apps = build_mix(["PVC", "DXTC"]).applications
        schedule = poisson_arrivals(1_000_000, 10_000_000, seed=1)
        MultitaskSystem(apps, policy=UGPUPolicy()).run(10_000_000)
        MultitaskSystem(apps[:1], policy=UGPUPolicy(),
                        arrivals=schedule).run(10_000_000)
        for app in apps + [event.app for event in schedule]:
            assert app.progress.total_instructions == 0
            assert app.first_run_instructions is None

    def test_solo_ipc_memo_keys_on_kernel_content(self):
        clear_solo_ipc_cache()
        long = MultitaskSystem([build_application("LBM")]).run(10_000_000)
        short = MultitaskSystem([build_application(
            "LBM", instructions_per_kernel=50_000_000)]).run(10_000_000)
        assert long.runs[0].ipc_alone != short.runs[0].ipc_alone
        assert len(core_system._SOLO_IPC_CACHE) == 2
        # Equal content in new objects is the same key.
        twin = Application(0, "LBM", [dataclasses.replace(k) for k in
                                      build_application("LBM").kernels])
        again = MultitaskSystem([twin]).run(10_000_000)
        assert again.runs[0].ipc_alone == long.runs[0].ipc_alone
        assert len(core_system._SOLO_IPC_CACHE) == 2
