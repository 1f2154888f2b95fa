"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest simbench -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# ----------------------------------------------------------------------
# Percentiles and reference units
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, 50.0), (36, 70.0), (50, 80.0),
    (100, 90.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected
    if expected is not None:
        assert n - measure._rank(expected, n) >= measure.TAIL_BEYOND


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 99.9) == 100
    assert measure.percentile([], 50) == 0.0


def make_pass(ops, ref):
    return measure.Pass(ops=list(ops), op_refs=[ref] * len(ops), refs=[ref])


def test_timings_are_medians_in_reference_units():
    slow = make_pass([0.2] * 15 + [1.0] * 15, 1.0)     # host twice as slow
    fast = make_pass([0.1] * 15 + [0.5] * 15, 0.5)
    odd = make_pass([0.3] * 15 + [3.0] * 15, 0.5)
    timings = measure.summarise([slow, fast, odd])
    assert timings["pass_ru"] == pytest.approx((1.5 + 7.5) / 0.5)
    assert timings["op_p50_ru"] == pytest.approx((0.2 + 1.0) / 2)
    assert timings["tail_p"] == 60.0
    assert timings["op_tail_ru"] == pytest.approx(1.0)


def test_op_time_is_its_median_across_passes():
    passes = [make_pass([1.0, 5.0], 1.0), make_pass([4.0, 2.0], 1.0),
              make_pass([2.0, 3.0], 1.0)]
    timings = measure.summarise(passes)
    assert timings["op_p50_ru"] == 2.5 and timings["op_tail_ru"] == 3.0
    assert timings["pass_ru"] == 6.0


def test_too_few_ops_for_a_tail_report_the_slowest():
    timings = measure.summarise([make_pass([0.1, 0.2, 0.3], 1.0)])
    assert timings["tail_p"] == 100.0
    assert timings["op_tail_ru"] == pytest.approx(0.3)


def test_each_op_is_divided_by_the_references_around_its_chunk():
    refs = iter([1.0, 3.0, 5.0, 7.0])
    timer = measure.PassTimer(chunk_seconds=1.0, reference=lambda: next(refs))
    for op in (0.5, 0.6, 2.0, 0.1):
        timer.add(op)
    result = timer.close()
    assert result.refs == [1.0, 3.0, 5.0, 7.0]
    assert result.op_refs == [2.0, 2.0, 4.0, 6.0]
    assert result.normalised() == pytest.approx([0.25, 0.3, 0.5, 0.1 / 6])
    assert result.seconds == pytest.approx(3.2)


def test_reference_units_reject_a_zero_reference():
    with pytest.raises(ValueError):
        measure.in_reference_units(1.0, 0.0)


def test_setup_is_scaled_by_each_interpreters_mean_reference():
    nominal = run.NOMINAL_REF_S
    samples = [   # the same set-up on a host at 1x, 2x and 4x the nominal
        {"import_s": 0.3, "gen_s": 0.1, "refs": [0.5 * nominal, 1.5 * nominal]},
        {"import_s": 0.6, "gen_s": 0.2, "refs": [2 * nominal, 2 * nominal]},
        {"import_s": 1.2, "gen_s": 0.4, "refs": [7 * nominal, 1 * nominal]},
    ]
    times = run.setup_times(samples)
    assert times["setup_s"] == pytest.approx(0.4)
    assert times["import_s"] == pytest.approx(0.3)
    assert times["workloads.gen_s"] == pytest.approx(0.1)
    assert times["setup_raw_s"] == pytest.approx(0.8)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    clock = FakeClock(0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 10.0)
    rec = spans.SpanRecorder(clock)
    outer = rec.begin("outer")          # 0 .. 10
    child = rec.begin("child")          # 1 .. 7
    grandchild = rec.begin("child")     # 2 .. 3
    rec.finish(grandchild)
    leaf = rec.begin("leaf")            # 5 .. 6
    rec.finish(leaf)
    rec.finish(child)
    rec.finish(outer)
    table = spans.SpanTable(rec)
    assert table.self_time("outer") == pytest.approx(10.0 - 6.0)
    assert table.self_time("child") == pytest.approx((6.0 - 1.0 - 1.0) + 1.0)
    assert table.self_time("leaf") == pytest.approx(1.0)
    assert table.count("child") == 2
    assert table.total("outer") == pytest.approx(10.0)


def test_spans_must_close_in_order():
    rec = spans.SpanRecorder()
    first = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.finish(first)


def test_admission_latency_runs_from_previous_placement():
    clock = FakeClock(0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    rec = spans.SpanRecorder(clock)
    admit = rec.begin("cluster.admit")        # starts at 0
    for placed in (True, True, False):
        choose = rec.begin("cluster.choose")
        rec.finish(choose)
        rec.attach(choose, 4, 1.0 if placed else 0.0)
    rec.finish(admit)
    table = spans.SpanTable(rec)
    # Placements end at 2 and 5: latencies 2 - 0 and 5 - 2.
    assert spans.admission_latencies(table) == [2.0, 3.0]


class Target:
    def work(self, x):
        return x * 2

    def fail(self):
        raise KeyError("boom")


class Child(Target):
    pass


def test_wrappers_record_and_restore_the_originals():
    originals = (Target.__dict__["work"], Target.__dict__["fail"])
    rec = spans.SpanRecorder()
    points = [
        spans.WrapPoint("t.work", f"{__name__}:Target.work",
                        lambda a, r, s: (r, s), lambda a: 7),
        spans.WrapPoint("t.fail", f"{__name__}:Target.fail"),
        spans.WrapPoint("t.inherited", f"{__name__}:Child.work"),
        spans.WrapPoint("t.gone", f"{__name__}:Target.vanished"),
        spans.WrapPoint("t.nomodule", "no_such_module_here:f"),
    ]
    restore, missing = spans.install(rec, points)
    try:
        assert Child().work(3) == 6
        with pytest.raises(KeyError):
            Target().fail()
    finally:
        restore()
    assert missing == [f"{__name__}:Target.vanished", "no_such_module_here:f"]
    assert (Target.__dict__["work"], Target.__dict__["fail"]) == originals
    assert "work" not in Child.__dict__
    table = spans.SpanTable(rec)
    assert table.count("t.inherited") == 1 and table.count("t.work") == 1
    assert table.value_sum("t.work") == 6 and table.extra_sum("t.work") == 7
    assert table.count("t.fail") == 1


def test_every_wrap_point_is_wrapped_or_reported_and_restored():
    before, gone = {}, []
    for point in spans.WRAP_POINTS:
        try:
            owner, attr = spans._resolve(point.target)
            before[point.target] = getattr(owner, attr)
        except (ImportError, AttributeError):
            gone.append(point.target)
    restore, missing = spans.install(spans.SpanRecorder(), spans.WRAP_POINTS)
    restore()
    assert missing == gone
    for target, original in before.items():
        owner, attr = spans._resolve(target)
        assert getattr(owner, attr) is original


# ----------------------------------------------------------------------
# Correctness bookkeeping
# ----------------------------------------------------------------------
def test_failures_are_counted_against_attempted_ops():
    tally = run.Tally({"a": "111", "b": "222", "c": "raise:ConfigError",
                       "d": "444"})
    tally.record("a", "111", [])                           # passes
    tally.record("b", "999", [])                           # wrong fingerprint
    tally.record("c", "333", [])                           # known failure fixed
    tally.record("d", "444", ["lost a page"])              # invariant broken
    tally.record("e", "555", [])                           # not recorded
    assert tally.attempted == 5
    assert tally.failed == 3
    assert not tally.correct
    assert any("fingerprint" in w for w in tally.wrong)


def invalid_penalty():
    from repro.errors import ConfigError

    return ConfigError("invalid penalty: window=100000.0, factor=1.5")


def test_known_defect_fails_but_is_not_wrong_output():
    tally = run.Tally(None)
    tally.record("cd-search:LAVAMD_LBM_DXTC_PF", "raise:ConfigError", [],
                 invalid_penalty())
    tally.record("bp:PVC_DXTC", "123", [])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    tally.record("bp:PVC_DXTC", "raise:ConfigError", [], invalid_penalty())
    assert (tally.failed, tally.correct) == (2, False)


def test_at_the_default_seed_only_a_recorded_raise_is_accepted():
    tally = run.Tally({"cd-search:A": "raise:ConfigError",
                       "cd-search:B": "0123456789abcdef"})
    tally.record("cd-search:A", "raise:ConfigError", [], invalid_penalty())
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, True)
    # The known defect's error on an op recorded with a result.
    tally.record("cd-search:B", "raise:ConfigError", [], invalid_penalty())
    assert (tally.attempted, tally.failed, tally.correct) == (2, 2, False)
    assert tally.unexpected == [
        "cd-search:B: ConfigError: invalid penalty: window=100000.0, "
        "factor=1.5"]


def test_invariants_hold_without_fingerprints():
    tally = run.Tally(None)
    tally.record("x", "1", ["arrivals != admitted + waiting"])
    assert (tally.failed, tally.correct) == (1, False)


# ----------------------------------------------------------------------
# Inputs and the benchmark description
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["closed_sweep", "pagemove_churn"])
def test_inputs_are_a_function_of_the_seed(name):
    assert workloads.generate(name, 3) == workloads.generate(name, 3)
    assert workloads.generate(name, 3) != workloads.generate(name, 4)


def test_closed_sweep_has_the_planned_op_count():
    jobs = workloads.generate("closed_sweep", 0)["jobs"]
    assert len(jobs) == 9 * 50 + 7 * 100
    assert len(set(jobs)) == len(jobs)


def test_benchmark_json_lists_every_metric():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == spans.LEDGER_UNITS
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_fingerprints_cover_every_op_at_the_default_seed():
    recorded = json.loads(run.FINGERPRINTS.read_text())
    jobs = workloads.generate("closed_sweep", workloads.DEFAULT_SEED)["jobs"]
    assert set(recorded["closed_sweep"]) == {
        f"{policy}:{'_'.join(mix)}" for policy, mix in jobs}
    failing = sorted(k for k, v in recorded["closed_sweep"].items()
                     if v.startswith("raise:"))
    assert failing == ["cd-search:LAVAMD_LBM_DXTC_HOTSPOT",
                       "cd-search:LAVAMD_LBM_DXTC_PF"]


def test_a_memo_that_no_longer_exists_is_reported_by_name(monkeypatch):
    gone = "repro.cluster.shard:_NO_SUCH_MEMO.clear"
    monkeypatch.setattr(workloads, "PROCESS_MEMOS",
                        workloads.PROCESS_MEMOS + (gone,))
    assert workloads.clear_process_memos() == [gone]
