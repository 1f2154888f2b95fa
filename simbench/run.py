#!/usr/bin/env python3
"""Benchmark of the UGPU simulator, one workload per invocation.

    python3 simbench/run.py --workload closed_sweep --seed 0 --seconds 16 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
The process runs a fixed number of passes over the workload's op list
(about ``--seconds`` of host time), times every op, checks every result
and prints, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``pass_ru``,
``op_p50_ru``, ``op_tail_ru`` and ``peak_rss_mb``.  ``--trace 1`` runs a
warm-up pass, a traced pass and an untraced pass instead, prints the per-layer ledger and
writes the traced pass's spans under ``simbench/out/``.

``--record`` rewrites this workload's entry in ``fingerprints.json`` from
one pass at the default seed; use it only when a change of results is
intended.  See ``NOTES.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import measure
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"

#: Fresh interpreters timed per run for ``setup_s`` (median reported),
#: after one untimed interpreter that writes the bytecode caches.
SETUP_REPEATS = 7
#: Reference-loop runs each set-up interpreter times before and after
#: its set-up; its set-up seconds are scaled by their mean.
SETUP_REFS = 8
#: ``setup_s`` and its parts are seconds on a host whose reference loop
#: (``refloop.reference_loop``) takes this long.
NOMINAL_REF_S = 0.010
#: Host seconds of one pass, checks included, on the 2-CPU machine the
#: benchmark was tuned on.  A run makes ``round(seconds / nominal)``
#: passes (at least ``MIN_PASSES``), so its sample counts, and with them
#: the tail percentile it reports, do not depend on the host's speed.
NOMINAL_PASS_S = {
    "closed_sweep": 1.3,
    "open_observed": 4.0,
    "fleet": 4.5,
    "pagemove_churn": 1.8,
}
MIN_PASSES = 3
#: A slow host stops adding passes after this multiple of ``--seconds``.
DEADLINE_FACTOR = 1.25
#: The program defect known to make ops raise at seeds with no recorded
#: fingerprints: (label prefix, exception type, message prefix).  At the
#: default seed only a recorded ``raise:<type>`` fingerprint accepts a
#: raise.  Accepted raises count as failed, not as wrong output.
KNOWN_DEFECT = ("cd-search:", "ConfigError", "invalid penalty")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_ru": "ru",
    "op_p50_ru": "ru",
    "op_tail_ru": "ru",
    "peak_rss_mb": "MiB",
}

_SETUP_CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[2])
from refloop import time_reference
refs = [time_reference() for _ in range(int(sys.argv[5]))]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro
t1 = time.perf_counter()
import workloads
workloads.generate(sys.argv[3], int(sys.argv[4]))
t2 = time.perf_counter()
refs += [time_reference() for _ in range(int(sys.argv[5]))]
print(json.dumps({"import_s": t1 - t0, "gen_s": t2 - t1, "refs": refs}))
"""


class BenchError(Exception):
    """A condition under which the benchmark refuses to run."""


# ----------------------------------------------------------------------
# Correctness bookkeeping
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed ops, and why each failure happened."""

    def __init__(self, expected: Optional[Dict[str, str]]) -> None:
        #: Recorded fingerprints (default seed only), by op label.
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.raised: Counter = Counter()
        self.unexpected: List[str] = []
        self.digests: Dict[str, str] = {}
        #: Process-wide memos a pass could not clear, by name.
        self.missing_memos: Dict[str, None] = {}

    @property
    def correct(self) -> bool:
        """No op returned a wrong result and none raised unexpectedly."""
        return not self.wrong and not self.unexpected

    def record(self, label: str, digest: str, broken: List[str],
               exc: Optional[BaseException] = None) -> None:
        self.attempted += 1
        self.digests[label] = digest
        failed = bool(broken)
        self.wrong.extend(f"{label}: {b}" for b in broken)
        if exc is not None:
            failed = True
            kind, text = type(exc).__name__, str(exc)
            self.raised[(label, kind, text)] += 1
            if not self._raise_expected(label, kind, text):
                self.unexpected.append(f"{label}: {kind}: {text}")
        elif self.expected is not None:
            want = self.expected.get(label)
            if want is None:
                failed = True
                self.wrong.append(f"{label}: no recorded fingerprint")
            # An op recorded as raising that now returns is a fixed
            # defect, not a wrong result.
            elif not want.startswith("raise:") and want != digest:
                failed = True
                self.wrong.append(f"{label}: fingerprint {digest} != {want}")
        if failed:
            self.failed += 1

    def _raise_expected(self, label: str, kind: str, text: str) -> bool:
        if self.expected is not None:
            return self.expected.get(label) == f"raise:{kind}"
        prefix, name, start = KNOWN_DEFECT
        return (label.startswith(prefix) and kind == name
                and text.startswith(start))


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_pass(name: str, inputs, tally: Tally,
             recorder: Optional[spans.SpanRecorder] = None) -> measure.Pass:
    """One pass over the workload's ops, with the reference loop timed
    between chunks of them.  Checks run outside the timed calls."""
    tally.missing_memos.update(dict.fromkeys(workloads.clear_process_memos()))
    timer = measure.PassTimer()
    clock = time.perf_counter
    for op in workloads.pass_ops(name, inputs):
        span_id = recorder.begin("op." + op.kind) if recorder is not None else 0
        exc = None
        start = clock()
        try:
            result = op.call()
        except Exception as error:  # every op failure is counted, not fatal
            exc = error
        elapsed = clock() - start
        if recorder is not None:
            recorder.finish(span_id)
        if exc is not None:
            tally.record(op.label, f"raise:{type(exc).__name__}", [], exc)
        else:
            text, broken = op.check(result)
            tally.record(op.label, digest_of(text), broken)
        timer.add(elapsed)
    return timer.close()


# ----------------------------------------------------------------------
# Set-up and environment
# ----------------------------------------------------------------------
def check_environment() -> None:
    if os.environ.get("REPRO_KERNEL_BACKEND"):
        raise BenchError(
            "REPRO_KERNEL_BACKEND is set; unset it so the benchmark measures "
            "the backend the simulator resolves by default")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources at {SRC / 'repro'}; run from "
                         "a checkout of the repository")


def measure_setup(name: str, seed: int) -> Dict[str, float]:
    """Median import and input-generation seconds over fresh interpreters,
    each scaled to a host whose reference loop takes ``NOMINAL_REF_S``
    by the mean of the loop timings taken in the same interpreter around
    its set-up; ``setup_raw_s`` is the unscaled median."""
    samples = []
    for _ in range(1 + SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR),
             name, str(seed), str(SETUP_REFS)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise BenchError(f"set-up child failed:\n{out.stderr}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return setup_times(samples[1:])


def setup_times(samples: List[Dict]) -> Dict[str, float]:
    """``setup_s``, its parts and its raw seconds from set-up samples."""
    scaled = [NOMINAL_REF_S / statistics.fmean(s["refs"]) for s in samples]
    return {
        "setup_s": statistics.median((s["import_s"] + s["gen_s"]) * k
                                     for s, k in zip(samples, scaled)),
        "import_s": statistics.median(s["import_s"] * k
                                      for s, k in zip(samples, scaled)),
        "workloads.gen_s": statistics.median(s["gen_s"] * k
                                             for s, k in zip(samples, scaled)),
        "setup_raw_s": statistics.median(s["import_s"] + s["gen_s"]
                                         for s in samples),
    }


def load_fingerprints(name: str, seed: int) -> Optional[Dict[str, str]]:
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(FINGERPRINTS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if name not in recorded:
        raise BenchError(f"{FINGERPRINTS.name} has no entry for {name}")
    return recorded[name]


def planned_passes(name: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[name]))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------
def timed_run(name: str, inputs, seconds: float, tally: Tally,
              setup: Dict[str, float]) -> Dict[str, float]:
    passes = planned_passes(name, seconds)
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    runs: List[measure.Pass] = []
    for _ in range(passes):
        runs.append(run_pass(name, inputs, tally))
        if time.perf_counter() > deadline:
            break
    timings = measure.summarise(runs)
    raw = [p.seconds for p in runs]
    refs = [r for p in runs for r in p.refs]
    print(f"passes {len(runs)} x {len(runs[0].ops)} ops; host.pass_s median "
          f"{statistics.median(raw):.4f} s (min {min(raw):.4f}, max "
          f"{max(raw):.4f}); host.ref_ms median "
          f"{statistics.median(refs) * 1e3:.4f} of {len(refs)}")
    print(f"op_tail_ru is p{timings['tail_p']:g} of {len(runs[0].ops)} ops, "
          f"each the median of its {len(runs)} passes")
    return {
        "setup_s": setup["setup_s"],
        "pass_ru": timings["pass_ru"],
        "op_p50_ru": timings["op_p50_ru"],
        "op_tail_ru": timings["op_tail_ru"],
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(name: str, inputs, seed: int, tally: Tally,
               setup: Dict[str, float], backend: str) -> Dict[str, float]:
    # A warm-up pass, the traced pass, then the untraced pass it is
    # compared with, so neither of the two pays the first pass's warm-up.
    run_pass(name, inputs, tally)
    recorder = spans.SpanRecorder()
    restore, missing = spans.install(recorder, spans.WRAP_POINTS)
    try:
        traced = run_pass(name, inputs, tally, recorder)
    finally:
        restore()
    untraced = run_pass(name, inputs, tally)
    for target in missing:
        print(f"ledger: wrap point {target} no longer exists")
    ledger = spans.ledger(spans.SpanTable(recorder), {
        "import_s": setup["import_s"],
        "workloads.gen_s": setup["workloads.gen_s"],
        "host.ref_ms": statistics.median(untraced.refs) * 1e3,
        "host.pass_s": untraced.seconds,
        "trace.overhead_ratio": traced.in_reference_units()
        / untraced.in_reference_units(),
        "ledger.missing_memos": len(tally.missing_memos),
    }, missing)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
    recorder.write_jsonl_gz(path, {
        "workload": name, "seed": seed, "kernel_backend": backend,
        "missing_wrap_points": missing,
    })
    print(f"wrote {len(recorder)} spans to {path.relative_to(ROOT)}")
    for metric, value in ledger.items():
        print(f"  {metric:<34} {value:16.6f} {spans.LEDGER_UNITS[metric]}")
    return ledger


def record(name: str, inputs) -> None:
    tally = Tally(None)
    run_pass(name, inputs, tally)
    if tally.wrong or tally.unexpected:
        raise BenchError("refusing to record: "
                         + "; ".join(tally.wrong + tally.unexpected))
    recorded = {}
    if FINGERPRINTS.exists():
        with open(FINGERPRINTS, encoding="utf-8") as handle:
            recorded = json.load(handle)
    recorded[name] = tally.digests
    with open(FINGERPRINTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(tally.digests)} fingerprints for {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    name, seed = args.workload, args.seed
    try:
        check_environment()
        sys.path.insert(0, str(SRC))
        from repro.fastpath import resolve_kernel_backend

        if args.record:
            if seed != workloads.DEFAULT_SEED:
                raise BenchError("fingerprints are recorded at the default seed")
            record(name, workloads.generate(name, seed))
            return 0
        setup = measure_setup(name, seed)
        backend = resolve_kernel_backend()
        print(f"simbench {name} seed={seed} kernel_backend={backend} "
              f"python={sys.version.split()[0]} setup_s={setup['setup_s']:.4f} "
              f"(raw {setup['setup_raw_s']:.4f} s)")
        inputs = workloads.generate(name, seed)
        tally = Tally(load_fingerprints(name, seed))
        if args.trace:
            values = traced_run(name, inputs, seed, tally, setup, backend)
            units = spans.LEDGER_UNITS
        else:
            values = timed_run(name, inputs, args.seconds, tally, setup)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"simbench: {exc}", file=sys.stderr)
        return 2
    for (label, kind, text), times in sorted(tally.raised.items()):
        print(f"failed: {label} raised {kind}: {text} (x{times})")
    for memo in tally.missing_memos:
        print(f"memo {memo} no longer exists; passes after the first run "
              "warm for it")
    for line in tally.wrong[:20] + tally.unexpected[:20]:
        print(f"incorrect: {line}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
