"""The epoch loop and its neighbours, beyond the golden corpus.

The loop's correctness contract is the frozen golden fixtures under
``tests/golden/`` (closed, open, QoS, oversubscription, observed, fleet
and PageMove runs), which it must reproduce byte for byte.  This module
covers what those fixtures do not pin directly: the PageMove planner's
round-robin destination assignment against its defining formula, and the
simulator staying free of numpy so the dependency cannot creep back.
"""

import os
import subprocess
import sys
import textwrap

from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.pagemove.engine import _round_robin_destinations
from tests.strategies import STANDARD_SETTINGS


def _reference_destinations(kept, start, count):
    """The defining formula: page ``i`` goes to ``kept[(start + i) % n]``."""
    return [kept[(start + i) % len(kept)] for i in range(count)]


class TestRoundRobinDestinations:
    @STANDARD_SETTINGS
    @given(
        kept=st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                      max_size=16, unique=True).map(sorted),
        start=st.integers(min_value=0, max_value=10**6),
        count=st.integers(min_value=0, max_value=5000),
    )
    def test_matches_the_modular_formula(self, kept, start, count):
        got = _round_robin_destinations(kept, start, count)
        assert got == _reference_destinations(kept, start, count)


_NO_NUMPY_SCRIPT = textwrap.dedent("""
    import sys

    from repro import build_mix
    from repro.cluster import FleetSimulator, PlacementPolicy
    from repro.core.system import MultitaskSystem
    from repro.pagemove import (
        InterleavedPageMapping, MigrationEngine, PageMoveAddressMapping,
    )
    from repro.policies import UGPUPolicy
    from repro.vm import FaultKind, GPUDriver
    from repro.workloads import poisson_arrivals

    MultitaskSystem(build_mix(["PVC", "DXTC"]).applications,
                    policy=UGPUPolicy(), epoch_cycles=500_000).run(5_000_000)
    MultitaskSystem([], policy=UGPUPolicy(), epoch_cycles=500_000,
                    arrivals=poisson_arrivals(1_000_000, 5_000_000, seed=1),
                    ).run(5_000_000)
    FleetSimulator(4, poisson_arrivals(300_000, 10_000_000, seed=0,
                                       instructions_per_kernel=50_000_000),
                   PlacementPolicy.FIRST_FIT, round_cycles=2_500_000,
                   horizon_cycles=10_000_000,
                   instructions_per_kernel=50_000_000).run()
    mapping = PageMoveAddressMapping()
    driver = GPUDriver(pages_per_channel=256,
                       mapping=InterleavedPageMapping(mapping))
    driver.register_app(0, [0, 1])
    for vpn in range(200):
        driver.handle_fault(FaultKind.DEMAND, 0, vpn, target_channel=vpn % 2)
    engine = MigrationEngine(driver, mapping=mapping)
    engine.execute(engine.plan_channel_reallocation(0, [1, 2, 3]))
    print("numpy" in sys.modules)
""")


def test_simulator_runs_without_importing_numpy():
    """A closed run, an open run, a small fleet and a PageMove
    plan/execute must leave numpy out of ``sys.modules``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT], env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False", out.stderr
