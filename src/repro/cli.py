"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro catalog                       # print Table 2
    python -m repro run --mix PVC,DXTC            # one mix, all policies
    python -m repro run --mix PVC,DXTC --policy ugpu bp
    python -m repro sweep --policies bp ugpu      # 50 heterogeneous mixes
    python -m repro sweep --policies bp ugpu --jobs 8   # process-pool fan-out
    python -m repro qos --target 0.75             # Figure 16 scenario
    python -m repro arrivals --seed 0             # open-system Poisson run
    python -m repro fleet --nodes 200 --jobs 8    # fleet placement shoot-out
    python -m repro trace --mix PVC,DXTC          # timeline -> JSONL + Perfetto
    python -m repro metrics trace.jsonl           # trace -> Prometheus metrics
    python -m repro profile --scenario arrivals   # self-profile: hot phases
    python -m repro bench --compare benchmarks/baseline.json  # perf gate
    python -m repro fleet --report-dir runs/a     # capture a run bundle
    python -m repro inspect runs/a                # post-hoc findings report
    python -m repro diff runs/a runs/b            # run-vs-run comparison

``run`` and ``sweep`` execute through :mod:`repro.exec`: ``--jobs N``
fans the independent simulations out over N worker processes, and
results are memoized under ``--cache-dir`` (default
``~/.cache/repro/sweeps`` or ``$REPRO_CACHE_DIR``) so repeated
invocations cost near-zero; ``--no-cache`` forces fresh simulation.
An ``ExecStats`` footer reports jobs run, cache hits, wall-clock and the
per-job timing percentiles on stderr, so two runs' stdout diffs clean.
Rejected input (a :class:`~repro.errors.ReproError` such as
``--cycles 0``) prints one ``error: ...`` line to stderr and exits 2.

``fleet`` scales the cluster extension to datacenter size: one seeded
Poisson stream of jobs plays against every requested placement policy
over the same fleet of nodes, with node execution sharded across the
``--jobs`` worker processes (results are byte-identical to a serial
run, so stdout can be diffed).

``sweep`` and ``fleet`` additionally accept the cross-process
observability flags: ``--trace-out PREFIX`` records a merged timeline —
orchestrator events plus worker-side captures from every pool process,
correlated by ``run_id``/``shard_id``/``pid`` — and writes
``PREFIX.jsonl`` + ``PREFIX.chrome.json``; ``--log-jsonl FILE`` streams
structured log records (:mod:`repro.obslog`) carrying the same
correlation IDs.  ``fleet --health`` attaches the
:class:`~repro.cluster.health.FleetHealthMonitor` and prints its
per-placement verdict (stragglers, wait-queue stalls, cache collapse).

``trace`` runs one mix with a :mod:`repro.trace` recorder attached and
writes the timeline as JSONL (``<prefix>.jsonl``) and/or a Chrome-trace
file (``<prefix>.chrome.json``) that loads in ``chrome://tracing`` and
Perfetto, then prints the derived summary metrics.

``run``, ``sweep`` and ``arrivals`` accept :mod:`repro.telemetry` flags:
``--metrics-out`` (Prometheus text exposition), ``--metrics-json``
(snapshot), ``--metrics-csv`` (per-epoch long-format series — the input
``examples/live_dashboard.py`` tails) and ``--metrics-port`` (a live
``/metrics`` scrape endpoint for the duration of the run).  ``metrics``
derives the same registry offline from a recorded JSONL trace.

``sweep``, ``fleet``, ``arrivals`` and ``profile`` accept
``--report-dir DIR``: every artifact of the run — trace JSONL, Chrome
trace, metrics snapshot, obslog, profiler phases, ExecStats and the
command's deterministic results — is captured into DIR as a *run
bundle* behind a schema-versioned ``manifest.json`` (``--report-gzip``
compresses the line-oriented artifacts).  ``repro inspect BUNDLE``
loads a bundle (:mod:`repro.inspect`) and prints typed findings —
critical path, stragglers, wait-queue dynamics, phase rollups, cache
effectiveness — plus the hot-phase table; ``repro diff A B`` separates
determinism drift (results, deterministic counters, artifact meta
counts — required zero between identical-seed runs) from expected
timing deltas and attributes wall-time
change to specific span paths.  Both write self-contained single-file
HTML reports via ``--html``.

``profile`` and ``bench`` point the instruments at the simulator itself
(:mod:`repro.profiling`): ``profile`` runs one pinned scenario under the
:class:`~repro.profiling.PhaseProfiler` and prints the self/cumulative
hot-phase table plus a Perfetto-loadable Chrome trace; ``bench`` runs
the pinned suite k times per scenario, writes a schema-versioned
``BENCH_<git-sha>.json`` artifact, and with ``--compare`` gates the run
against a baseline document (exit 1 on a >15% min-time regression).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from typing import List, Optional, Sequence

from repro import MultitaskSystem, QoSTarget, TABLE2, build_mix
from repro.cluster import PlacementPolicy
from repro.errors import ReproError
from repro.exec import (
    ResultCache,
    SweepExecutor,
    SweepJob,
    registered_policies,
)
from repro.policies import BPPolicy, MPSPolicy, UGPUPolicy
from repro.workloads import heterogeneous_pairs, poisson_arrivals


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "sweeps"
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the sweep executor "
                             "(default: 1, in-process)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/sweeps)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache and re-simulate")


def _executor_from(args, metrics=None) -> SweepExecutor:
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return SweepExecutor(jobs=args.jobs, cache=cache, metrics=metrics)


def _add_metrics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the Prometheus text exposition here "
                             "when the command finishes")
    parser.add_argument("--metrics-json", default=None, metavar="FILE",
                        help="write a JSON metrics snapshot here")
    parser.add_argument("--metrics-csv", default=None, metavar="FILE",
                        help="sample every metric at each epoch boundary "
                             "into a long-format CSV")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve live /metrics on this port for the "
                             "duration of the run (0 picks a free port)")


def _metrics_session(args, **extra):
    """Registry plus teardown callable from the ``--metrics-*`` flags.

    Returns ``(None, no-op)`` when no flag is set, so instrumented code
    paths stay on their ``metrics=None`` fast path.  ``extra`` becomes
    provenance labels on every export (command, policy, seed, ...).
    """
    if not any((args.metrics_out, args.metrics_json, args.metrics_csv,
                args.metrics_port is not None)):
        return None, lambda: None
    from repro.telemetry import (
        CsvSampler,
        MetricsRegistry,
        MetricsServer,
        stamp,
        write_json,
        write_prometheus,
    )

    registry = MetricsRegistry()
    stamp(registry, None, **extra)
    sampler = None
    if args.metrics_csv:
        sampler = CsvSampler(args.metrics_csv)
        sampler.attach(registry)
    server = None
    if args.metrics_port is not None:
        server = MetricsServer(registry, port=args.metrics_port)
        server.start()
        print(f"live metrics at {server.url}")

    def finish() -> None:
        if server is not None:
            server.close()
        if sampler is not None:
            sampler.close()
            print(f"wrote {sampler.rows_written} epoch samples to "
                  f"{args.metrics_csv}")
        if args.metrics_out:
            count = write_prometheus(registry, args.metrics_out)
            print(f"wrote {count} metric samples to {args.metrics_out}")
        if args.metrics_json:
            families = write_json(registry, args.metrics_json)
            print(f"wrote {families} metric families to {args.metrics_json}")

    return registry, finish


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="PREFIX",
                        help="record a merged cross-process timeline and "
                             "write PREFIX.jsonl + PREFIX.chrome.json "
                             "(enables worker-side capture)")
    parser.add_argument("--log-jsonl", default=None, metavar="FILE",
                        help="write correlated structured log records "
                             "(one JSON object per line) here")


def _obs_session(args, command: str, **ids):
    """Recorder + obslog implied by ``--trace-out`` / ``--log-jsonl``.

    Returns ``(recorder, obslog, run_id, finish)`` — ``(None, None,
    "", no-op)`` when neither flag is set, so instrumented paths stay
    on their ``tracer=None`` / ``log=None`` fast path.  ``finish``
    writes the trace exports and closes the log; all announcements go
    to stderr so stdout stays byte-diffable between serial and sharded
    runs.  The session ``run_id`` hashes the command's shape (``ids``),
    so two invocations of the same configuration correlate.
    """
    trace_out = getattr(args, "trace_out", None)
    log_jsonl = getattr(args, "log_jsonl", None)
    if not trace_out and not log_jsonl:
        return None, None, "", lambda: None
    from repro.telemetry.provenance import config_hash

    run_id = config_hash(None, command=command, **ids)
    recorder = None
    if trace_out:
        from repro.trace import TraceRecorder

        recorder = TraceRecorder(capacity=262_144)
    obslog = None
    if log_jsonl:
        from repro.obslog import ObsLogger

        obslog = ObsLogger(log_jsonl, run_id=run_id)

    def finish() -> None:
        if recorder is not None:
            from repro.trace import write_chrome_trace, write_jsonl

            events = recorder.events()
            path = f"{trace_out}.jsonl"
            count = write_jsonl(events, path)
            print(f"wrote {count} trace events to {path}", file=sys.stderr)
            path = f"{trace_out}.chrome.json"
            count = write_chrome_trace(events, path)
            print(f"wrote {count} trace records to {path} "
                  "(open in chrome://tracing or https://ui.perfetto.dev)",
                  file=sys.stderr)
            if recorder.dropped:
                print(f"note: trace ring dropped {recorder.dropped} oldest "
                      "events", file=sys.stderr)
        if obslog is not None:
            count = obslog.records_written
            obslog.close()
            print(f"wrote {count} log records to {log_jsonl}",
                  file=sys.stderr)

    return recorder, obslog, run_id, finish


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report-dir", default=None, metavar="DIR",
                        help="capture every artifact of this run (trace, "
                             "metrics, obslog, profiler phases, results) "
                             "into DIR as a run bundle for `repro inspect` "
                             "and `repro diff`")
    parser.add_argument("--report-gzip", action="store_true",
                        help="gzip the bundle's line-oriented artifacts "
                             "(readers decompress transparently)")


def _report_session(args, command: str, registry, recorder, obslog, **ids):
    """A :class:`~repro.inspect.RunReporter` from ``--report-dir``.

    Returns ``(reporter, registry, recorder, obslog)``.  Without the
    flag the sinks pass through unchanged (``reporter`` is ``None``).
    With it, the reporter *shares* whatever sinks the other
    observability flags already built and creates the missing ones, so
    the returned sinks must replace the caller's — one run, one set of
    evidence.  ``ids`` must match what :func:`_obs_session` hashed so
    the bundle's ``run_id`` equals the one stamped on trace/log records.
    """
    report_dir = getattr(args, "report_dir", None)
    if not report_dir:
        return None, registry, recorder, obslog
    from repro.inspect import RunReporter
    from repro.telemetry.provenance import config_hash

    reporter = RunReporter(
        report_dir,
        command=command,
        run_id=config_hash(None, command=command, **ids),
        registry=registry,
        recorder=recorder,
        obslog=obslog,
        obslog_source=getattr(args, "log_jsonl", None),
        compress=bool(getattr(args, "report_gzip", False)),
    )
    return reporter, reporter.registry, reporter.recorder, reporter.obslog


def _finish_report(reporter, results=None, exec_stats=None,
                   clock_ghz: float = 1.0, extra=None) -> None:
    if reporter is None:
        return
    path = reporter.finish(results=results, exec_stats=exec_stats,
                           clock_ghz=clock_ghz, extra=extra)
    print(f"wrote run bundle manifest to {path}", file=sys.stderr)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UGPU (ISCA 2025) reproduction: unbalanced GPU slices "
                    "with PageMove migration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="print the Table 2 benchmark catalog")

    run = sub.add_parser("run", help="run one workload mix under one or "
                                     "more policies")
    run.add_argument("--mix", required=True,
                     help="comma-separated benchmark abbreviations, e.g. PVC,DXTC")
    run.add_argument("--policy", nargs="+", default=registered_policies(),
                     choices=registered_policies(), help="policies to compare")
    run.add_argument("--cycles", type=int, default=25_000_000,
                     help="simulation horizon in GPU cycles")
    _add_exec_flags(run)
    _add_metrics_flags(run)

    sweep = sub.add_parser("sweep", help="run the 50 heterogeneous mixes")
    sweep.add_argument("--policies", nargs="+", default=["bp", "ugpu"],
                       choices=registered_policies())
    sweep.add_argument("--cycles", type=int, default=25_000_000)
    _add_exec_flags(sweep)
    _add_metrics_flags(sweep)
    _add_obs_flags(sweep)
    _add_report_flags(sweep)

    qos = sub.add_parser("qos", help="QoS scenario: high-priority "
                                     "compute-bound app (Figure 16)")
    qos.add_argument("--mix", default="PVC,DXTC")
    qos.add_argument("--target", type=float, default=0.75,
                     help="normalized-progress floor for the second app")
    qos.add_argument("--cycles", type=int, default=25_000_000)

    arrivals = sub.add_parser(
        "arrivals",
        help="open-system run: seeded Poisson job arrivals/departures")
    arrivals.add_argument("--seed", type=int, default=0,
                          help="arrival-trace seed (deterministic)")
    arrivals.add_argument("--policy", default="ugpu",
                          choices=registered_policies(),
                          help="partition policy (default: ugpu)")
    arrivals.add_argument("--mean-interarrival", type=_positive_int,
                          default=2_000_000, metavar="CYCLES",
                          help="mean inter-arrival time (default: 2M cycles)")
    arrivals.add_argument("--cycles", type=int, default=25_000_000,
                          help="simulation horizon in GPU cycles")
    arrivals.add_argument("--max-slots", type=_positive_int, default=None,
                          help="concurrent-residency cap (default: what the "
                               "GPU's minimum slices can host)")
    arrivals.add_argument("--initial", default=None, metavar="MIX",
                          help="comma-separated benchmarks resident at cycle "
                               "0 (default: start empty)")
    _add_metrics_flags(arrivals)
    _add_obs_flags(arrivals)
    _add_report_flags(arrivals)

    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale open system: hundreds of nodes, one seeded "
             "arrival stream, every placement policy compared")
    fleet.add_argument("--nodes", type=_positive_int, default=48,
                       help="GPU nodes in the fleet (default: 48)")
    fleet.add_argument("--tenants-per-node", type=_positive_int, default=4,
                       help="slice slots per node (default: 4)")
    fleet.add_argument("--placement", nargs="+",
                       default=[p.value for p in PlacementPolicy],
                       choices=[p.value for p in PlacementPolicy],
                       help="placement policies to compare (default: all)")
    fleet.add_argument("--slicing", choices=["ugpu", "mig"], default="ugpu",
                       help="per-node slicing: unbalanced UGPU slices or "
                            "rigid MIG-like ones (default: ugpu)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="arrival-trace seed (deterministic)")
    fleet.add_argument("--mean-interarrival", type=_positive_int,
                       default=150_000, metavar="CYCLES",
                       help="mean job inter-arrival time (default: 150k "
                            "cycles — a busy fleet)")
    fleet.add_argument("--cycles", type=int, default=150_000_000,
                       help="simulation horizon in GPU cycles")
    fleet.add_argument("--round-cycles", type=_positive_int,
                       default=2_500_000, metavar="CYCLES",
                       help="scheduling-round length (default: 2.5M cycles)")
    fleet.add_argument("--rebalance-every", type=_positive_int, default=8,
                       metavar="ROUNDS",
                       help="rounds between cross-shard rebalancing passes "
                            "(default: 8)")
    fleet.add_argument("--instructions-per-kernel", type=_positive_int,
                       default=50_000_000, metavar="N",
                       help="kernel size for arriving jobs; one full launch "
                            "is a job's budget (default: 50M)")
    fleet.add_argument("--health", action="store_true",
                       help="attach the fleet health monitor and print its "
                            "per-placement verdict (stragglers, wait-queue "
                            "stalls, cache collapse)")
    _add_exec_flags(fleet)
    _add_metrics_flags(fleet)
    _add_obs_flags(fleet)
    _add_report_flags(fleet)

    trace = sub.add_parser("trace", help="run one mix with tracing enabled "
                                         "and export the timeline")
    trace.add_argument("--mix", default="PVC,DXTC",
                       help="comma-separated benchmark abbreviations")
    trace.add_argument("--policy", default="ugpu",
                       choices=registered_policies(),
                       help="policy to trace (default: ugpu)")
    trace.add_argument("--cycles", type=int, default=25_000_000,
                       help="simulation horizon in GPU cycles")
    trace.add_argument("--output", default="trace", metavar="PREFIX",
                       help="output path prefix (default: ./trace)")
    trace.add_argument("--format", choices=["jsonl", "chrome", "both"],
                       default="both", help="which export(s) to write")
    trace.add_argument("--capacity", type=_positive_int, default=65_536,
                       help="trace ring-buffer capacity in events")
    trace.add_argument("--categories", nargs="+", default=None,
                       metavar="CAT",
                       help="record only these categories (default: all)")
    trace.add_argument("--clock-ghz", type=float, default=1.0,
                       help="GPU clock for Chrome-trace timestamps")

    metrics = sub.add_parser(
        "metrics",
        help="derive Prometheus/JSON metrics from a recorded JSONL trace")
    metrics.add_argument("trace", metavar="TRACE.jsonl",
                         help="trace file from `repro trace --format jsonl`")
    metrics.add_argument("--out", default=None, metavar="FILE",
                         help="write the Prometheus exposition here "
                              "(default: stdout)")
    metrics.add_argument("--json", default=None, metavar="FILE",
                         help="also write a JSON snapshot here")
    metrics.add_argument("--dropped", type=int, default=0, metavar="N",
                         help="ring-buffer drop count reported by the "
                              "recording run (exported as a gauge)")
    metrics.add_argument("--validate", action="store_true",
                         help="re-parse the written exposition as a "
                              "format check")

    export = sub.add_parser("export", help="write a figure's data series "
                                           "as CSV (for plotting)")
    export.add_argument("figure", choices=["fig2", "fig3", "fig4"],
                        help="which paper figure's series to export")
    export.add_argument("--output", default="-",
                        help="output path (default: stdout)")

    profile = sub.add_parser(
        "profile",
        help="self-profile one bench scenario: phase table + Chrome trace")
    profile.add_argument("--scenario", default="arrivals",
                         help="bench scenario to profile (default: arrivals; "
                              "see `repro bench --list`)")
    profile.add_argument("--output", default="profile", metavar="PREFIX",
                         help="Chrome-trace path prefix (default: ./profile "
                              "-> profile.chrome.json)")
    profile.add_argument("--top", type=_positive_int, default=15,
                         help="rows in the hot-phase table (default: 15)")
    profile.add_argument("--sort", choices=["self", "cum"], default="self",
                         help="order the table by self or cumulative time")
    _add_report_flags(profile)

    bench = sub.add_parser(
        "bench",
        help="run the pinned benchmark suite; write BENCH_<sha>.json and "
             "optionally gate against a baseline")
    bench.add_argument("--scenarios", nargs="+", default=None, metavar="NAME",
                       help="subset of scenarios to run (default: all)")
    bench.add_argument("--list", action="store_true",
                       help="list scenario names and exit")
    bench.add_argument("--repeat", type=_positive_int, default=3, metavar="K",
                       help="repetitions per scenario; min/median are over "
                            "these (default: 3)")
    bench.add_argument("--out", default=".", metavar="DIR",
                       help="directory for the BENCH_<sha>.json artifact "
                            "(default: .)")
    bench.add_argument("--compare", default=None, metavar="BASELINE.json",
                       help="gate this run against a baseline BENCH document")
    bench.add_argument("--fail-threshold", type=float, default=0.15,
                       help="min-time regression that fails the gate "
                            "(default: 0.15)")
    bench.add_argument("--warn-threshold", type=float, default=0.05,
                       help="min-time regression that warns (default: 0.05)")
    bench.add_argument("--warn-only", action="store_true",
                       help="report regressions but exit 0 (for comparing "
                            "across machines)")
    bench.add_argument("--profile-phases", action="store_true",
                       help="record each scenario's top self-time span "
                            "paths (one extra profiled run) so --compare "
                            "can attribute regressions to specific paths")

    inspect_cmd = sub.add_parser(
        "inspect",
        help="analyze a --report-dir run bundle: typed findings (critical "
             "path, stragglers, wait queue, cache) + hot phases")
    inspect_cmd.add_argument("bundle", metavar="DIR",
                             help="bundle directory written by --report-dir")
    inspect_cmd.add_argument("--html", default=None, metavar="FILE",
                             help="also write a self-contained HTML report")
    inspect_cmd.add_argument("--top", type=_positive_int, default=10,
                             help="rows in the hot-phase table (default: 10)")

    diff_cmd = sub.add_parser(
        "diff",
        help="compare two run bundles: determinism drift vs timing deltas, "
             "with wall-time change attributed to span paths")
    diff_cmd.add_argument("bundle_a", metavar="DIR_A",
                          help="baseline bundle directory")
    diff_cmd.add_argument("bundle_b", metavar="DIR_B",
                          help="candidate bundle directory")
    diff_cmd.add_argument("--html", default=None, metavar="FILE",
                          help="also write a self-contained HTML report")
    diff_cmd.add_argument("--top", type=_positive_int, default=10,
                          help="entries per ranked section (default: 10)")
    diff_cmd.add_argument("--expect-identical", action="store_true",
                          help="exit 1 unless the runs show zero "
                               "deterministic divergence")
    return parser


def cmd_catalog(_args) -> int:
    print(f"{'abbr':<8} {'suite':<10} {'MPKI':>8} {'kernels':>8} "
          f"{'footprint':>10}  class")
    for spec in TABLE2:
        cls = "memory" if spec.memory_bound else "compute"
        print(f"{spec.abbr:<8} {spec.suite:<10} {spec.mpki:>8} "
              f"{spec.num_kernels:>8} {spec.footprint_mb:>8}MB  {cls}")
    return 0


def cmd_run(args) -> int:
    abbrs = [a.strip() for a in args.mix.split(",") if a.strip()]
    print(f"mix: {'_'.join(abbrs)}  horizon: {args.cycles:,} cycles\n")
    registry, finish_metrics = _metrics_session(
        args, command="run", mix="_".join(abbrs))
    executor = _executor_from(args, metrics=registry)
    jobs = [SweepJob.build(name, abbrs, args.cycles) for name in args.policy]
    results = executor.run(jobs)
    print(f"{'policy':<14} {'STP':>7} {'ANTT':>7} {'min NP':>7}  per-app NP")
    for name, result in zip(args.policy, results):
        nps = ", ".join(f"{r.name}={r.normalized_progress:.2f}"
                        for r in result.runs)
        print(f"{name:<14} {result.stp:>7.3f} {result.antt:>7.2f} "
              f"{result.min_np:>7.2f}  {nps}")
    print(f"\n{executor.stats.format()}", file=sys.stderr)
    finish_metrics()
    return 0


def cmd_sweep(args) -> int:
    pairs = heterogeneous_pairs()
    print(f"sweeping {len(pairs)} heterogeneous mixes, "
          f"{args.cycles:,} cycles each\n")
    registry, finish_metrics = _metrics_session(args, command="sweep")
    recorder, obslog, run_id, finish_obs = _obs_session(
        args, "sweep", policies="_".join(args.policies), cycles=args.cycles)
    reporter, registry, recorder, obslog = _report_session(
        args, "sweep", registry, recorder, obslog,
        policies="_".join(args.policies), cycles=args.cycles)
    if reporter is not None:
        run_id = reporter.run_id
    capture = recorder is not None
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    executor = SweepExecutor(jobs=args.jobs, cache=cache, metrics=registry,
                             tracer=recorder, log=obslog, capture=capture)
    jobs = [SweepJob.build(name, pair, args.cycles)
            for name in args.policies for pair in pairs]
    results = executor.run(jobs)
    if capture:
        from repro.exec import merge_envelopes

        merge_envelopes(executor.last_envelopes, tracer=recorder,
                        metrics=registry, run_id=run_id,
                        profiler=reporter.profiler if reporter else None)
    stats = {}
    for offset, name in enumerate(args.policies):
        chunk = results[offset * len(pairs):(offset + 1) * len(pairs)]
        stps = [r.stp for r in chunk]
        antts = [r.antt for r in chunk]
        stats[name] = (stps, antts)
        print(f"{name:<14} STP mean {statistics.fmean(stps):.3f} "
              f"(min {min(stps):.3f}, max {max(stps):.3f})   "
              f"ANTT mean {statistics.fmean(antts):.2f}")
    if "bp" in stats:
        base = statistics.fmean(stats["bp"][0])
        for name, (stps, _) in stats.items():
            if name != "bp":
                gain = statistics.fmean(stps) / base - 1
                print(f"\n{name} vs bp: {gain:+.1%}")
    print(f"\n{executor.stats.format()}", file=sys.stderr)
    finish_obs()
    _finish_report(
        reporter,
        results={
            "policies": {
                name: {
                    "stp_mean": round(statistics.fmean(stps), 6),
                    "stp_min": round(min(stps), 6),
                    "stp_max": round(max(stps), 6),
                    "antt_mean": round(statistics.fmean(antts), 6),
                }
                for name, (stps, antts) in stats.items()
            },
            "mixes": len(pairs),
        },
        exec_stats=executor.stats,
    )
    finish_metrics()
    return 0


def cmd_qos(args) -> int:
    abbrs = [a.strip() for a in args.mix.split(",")]
    if len(abbrs) != 2:
        print("qos expects a two-benchmark mix", file=sys.stderr)
        return 2
    target = QoSTarget(app_id=1, target_np=args.target)
    print(f"high-priority app: {abbrs[1]} (target NP {args.target})\n")
    rows = [
        ("MPS", MultitaskSystem(
            build_mix(abbrs).applications,
            policy=MPSPolicy(sm_assignment={1: 60, 0: 20}))),
        ("QoS-BP", MultitaskSystem(
            build_mix([abbrs[1], abbrs[0]]).applications,
            policy=BPPolicy(qos_big_first=True))),
        ("UGPU", MultitaskSystem(
            build_mix(abbrs).applications, policy=UGPUPolicy(qos=target))),
    ]
    for name, system in rows:
        result = system.run(args.cycles)
        hp_name = abbrs[1]
        hp = next(r for r in result.runs if r.name == hp_name)
        verdict = "meets" if hp.normalized_progress >= args.target * 0.97 else "VIOLATES"
        print(f"{name:<8} STP {result.stp:.3f}  high-priority NP "
              f"{hp.normalized_progress:.3f} ({verdict})")
    return 0


def cmd_arrivals(args) -> int:
    """Open-system simulation: seeded Poisson arrivals over the catalog."""
    from repro.exec import resolve_policy

    schedule = poisson_arrivals(
        mean_interarrival_cycles=args.mean_interarrival,
        horizon_cycles=args.cycles,
        seed=args.seed,
    )
    initial = []
    label = "open"
    if args.initial:
        abbrs = [a.strip() for a in args.initial.split(",") if a.strip()]
        initial = build_mix(abbrs).applications
        label = "_".join(abbrs) + "+open"
    print(f"policy: {args.policy}  seed: {args.seed}  "
          f"horizon: {args.cycles:,} cycles")
    print(f"{len(schedule)} arrivals scheduled "
          f"(mean inter-arrival {args.mean_interarrival:,} cycles), "
          f"{len(initial)} jobs resident at cycle 0\n")
    registry, finish_metrics = _metrics_session(
        args, command="arrivals", policy=args.policy, seed=str(args.seed))
    recorder, obslog, _run_id, finish_obs = _obs_session(
        args, "arrivals", policy=args.policy, seed=str(args.seed),
        cycles=args.cycles)
    reporter, registry, recorder, obslog = _report_session(
        args, "arrivals", registry, recorder, obslog,
        policy=args.policy, seed=str(args.seed), cycles=args.cycles)
    factory = resolve_policy(args.policy)
    system = factory(initial, arrivals=schedule, max_slots=args.max_slots,
                     metrics=registry, tracer=recorder,
                     profiler=reporter.profiler if reporter else None)
    result = system.run(args.cycles, mix_name=label)
    print(f"{'job':<8} {'arrive':>12} {'admit':>12} {'depart':>12} "
          f"{'wait':>10} {'NP':>6}")
    for run in result.runs:
        depart = (f"{run.depart_cycle:>12,}" if run.depart_cycle is not None
                  else f"{'(resident)':>12}")
        print(f"{run.name:<8} {run.arrival_cycle:>12,} {run.admit_cycle:>12,} "
              f"{depart} {run.queueing_delay:>10,} "
              f"{run.normalized_progress(args.cycles):>6.2f}")
    print(f"\narrivals {result.arrivals}  admissions {result.admissions}  "
          f"departures {result.departures}  repartitions {result.repartitions}")
    if result.runs:
        print(f"interval STP {result.stp:.3f}  interval ANTT {result.antt:.2f}  "
              f"mean queueing delay {result.mean_queueing_delay:,.0f} cycles  "
              f"makespan {result.makespan:,} cycles")
    else:
        print("no job was admitted before the horizon")
    finish_obs()
    results_payload = {
        "policy": args.policy,
        "seed": args.seed,
        "arrivals": result.arrivals,
        "admissions": result.admissions,
        "departures": result.departures,
        "repartitions": result.repartitions,
    }
    if result.runs:
        results_payload.update(
            stp=round(result.stp, 6),
            antt=round(result.antt, 6),
            mean_queueing_delay=round(result.mean_queueing_delay, 3),
            makespan=result.makespan,
        )
    _finish_report(reporter, results=results_payload)
    finish_metrics()
    return 0


def cmd_fleet(args) -> int:
    """Fleet-scale placement shoot-out over one seeded arrival stream.

    Everything on stdout is deterministic (no wall times), so CI can
    ``diff`` a serial run against a sharded one; the ExecStats footer
    goes to stderr.
    """
    from repro.cluster import FleetShardResult, FleetSimulator

    schedule = poisson_arrivals(
        mean_interarrival_cycles=args.mean_interarrival,
        horizon_cycles=args.cycles,
        seed=args.seed,
        instructions_per_kernel=args.instructions_per_kernel,
    )
    capacity = args.nodes * args.tenants_per_node
    print(f"fleet: {args.nodes} nodes x {args.tenants_per_node} slots "
          f"({capacity} slots)  slicing: {args.slicing}  seed: {args.seed}")
    print(f"{len(schedule)} arrivals over {args.cycles:,} cycles "
          f"(mean inter-arrival {args.mean_interarrival:,}, "
          f"round {args.round_cycles:,})\n")
    registry, finish_metrics = _metrics_session(
        args, command="fleet", slicing=args.slicing, seed=str(args.seed))
    recorder, obslog, _run_id, finish_obs = _obs_session(
        args, "fleet", seed=str(args.seed), nodes=args.nodes,
        slicing=args.slicing, cycles=args.cycles)
    reporter, registry, recorder, obslog = _report_session(
        args, "fleet", registry, recorder, obslog,
        seed=str(args.seed), nodes=args.nodes,
        slicing=args.slicing, cycles=args.cycles)
    cache = None
    if not args.no_cache:
        # Fleet shards live in their own typed cache directory so the two
        # payload kinds (SystemResult vs FleetShardResult) never collide.
        base = args.cache_dir or default_cache_dir()
        cache = ResultCache(os.path.join(base, "fleet"),
                            result_types=(FleetShardResult,))
    print(f"{'policy':<18} {'STP':>8} {'ANTT':>8} {'q-delay':>12} "
          f"{'frag':>7} {'active':>7} {'adm':>6} {'dep':>6} {'mig':>5} "
          f"{'wait':>5}  energy(J)")
    health_reports = []
    placement_summaries = {}
    with SweepExecutor(jobs=args.jobs, cache=cache,
                       metrics=registry, log=obslog) as executor:
        for name in args.placement:
            monitor = None
            if args.health:
                from repro.cluster import FleetHealthMonitor

                monitor = FleetHealthMonitor(
                    metrics=registry, log=obslog, tracer=recorder)
            simulator = FleetSimulator(
                args.nodes,
                schedule,
                PlacementPolicy.parse(name),
                slicing=args.slicing,
                tenants_per_node=args.tenants_per_node,
                round_cycles=args.round_cycles,
                horizon_cycles=args.cycles,
                rebalance_every=args.rebalance_every,
                instructions_per_kernel=args.instructions_per_kernel,
                executor=executor,
                metrics=registry,
                # The recorder stays cycle-domain: the simulator (and its
                # absorbed worker node-physics spans) emits cycles, while
                # the executor's own job spans are wall seconds — mixing
                # the two on one timeline would be meaningless.
                tracer=recorder,
                log=obslog,
                health=monitor,
                profiler=reporter.profiler if reporter else None,
            )
            result = simulator.run()
            placement_summaries[name] = result.summary()
            if monitor is not None:
                health_reports.append((name, result.health))
            energy = (f"{result.energy.total:>10.3f}"
                      if result.energy is not None else f"{'-':>10}")
            print(f"{name:<18} {result.stp:>8.3f} {result.antt:>8.2f} "
                  f"{result.mean_queueing_delay:>12,.0f} "
                  f"{result.fragmentation:>7.3f} "
                  f"{result.mean_active_nodes:>7.1f} "
                  f"{result.admissions:>6} {result.departures:>6} "
                  f"{result.migrations:>5} {result.waiting_at_horizon:>5} "
                  f"{energy}")
    for name, report in health_reports:
        print(f"\n[{name}] {report.format()}")
    print(f"\n{executor.stats.format()}", file=sys.stderr)
    finish_obs()
    _finish_report(
        reporter,
        results={"placements": placement_summaries},
        exec_stats=executor.stats,
    )
    finish_metrics()
    return 0


def cmd_trace(args) -> int:
    """Run one traced simulation and export/summarize the timeline."""
    from repro.exec import resolve_policy
    from repro.trace import (
        TraceRecorder,
        summarize,
        write_chrome_trace,
        write_jsonl,
    )

    abbrs = [a.strip() for a in args.mix.split(",") if a.strip()]
    recorder = TraceRecorder(capacity=args.capacity, categories=args.categories)
    factory = resolve_policy(args.policy)
    system = factory(build_mix(abbrs).applications, tracer=recorder)
    result = system.run(args.cycles, mix_name="_".join(abbrs))
    print(f"{result.policy} on {result.mix_name}: STP {result.stp:.3f}  "
          f"ANTT {result.antt:.2f}  repartitions {result.repartitions}\n")

    events = recorder.events()
    if args.format in ("jsonl", "both"):
        path = f"{args.output}.jsonl"
        print(f"wrote {write_jsonl(events, path)} events to {path}")
    if args.format in ("chrome", "both"):
        path = f"{args.output}.chrome.json"
        count = write_chrome_trace(events, path, clock_ghz=args.clock_ghz)
        print(f"wrote {count} trace records to {path} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    if recorder.dropped:
        print(f"note: ring buffer dropped {recorder.dropped} oldest events "
              f"(--capacity {args.capacity})")
    print(f"\n{summarize(events, dropped_events=recorder.dropped).format()}")
    return 0


def cmd_metrics(args) -> int:
    """Fold a recorded trace into a registry and export it (offline bridge)."""
    from repro.telemetry import (
        registry_from_trace,
        stamp,
        to_prometheus,
        validate_prometheus_file,
        write_json,
        write_prometheus,
    )
    from repro.trace import read_jsonl

    events = read_jsonl(args.trace)
    registry = registry_from_trace(events, dropped_events=args.dropped)
    stamp(registry, None, source=os.path.basename(args.trace))
    if args.out:
        count = write_prometheus(registry, args.out)
        print(f"folded {len(events)} events into {count} metric samples "
              f"at {args.out}")
        if args.validate:
            validate_prometheus_file(args.out)
            print(f"{args.out}: exposition format OK")
    else:
        sys.stdout.write(to_prometheus(registry))
    if args.json:
        families = write_json(registry, args.json)
        print(f"wrote {families} metric families to {args.json}")
    return 0


def cmd_export(args) -> int:
    """Regenerate a motivation figure's series as CSV."""
    from repro import GPUConfig, PerformanceModel
    from repro.workloads import build_application

    model = PerformanceModel(GPUConfig())
    pvc = build_application("PVC").kernels[0]
    dxtc = build_application("DXTC").kernels[0]
    rows: List[List] = []
    if args.figure == "fig2":
        base = model.throughput(dxtc, 40, 16).ipc
        rows.append(["series", "x", "normalized_perf"])
        for m in range(2, 33, 2):
            rows.append(["vs_channels", m, model.throughput(dxtc, 40, m).ipc / base])
        for s in range(10, 81, 5):
            rows.append(["vs_sms", s, model.throughput(dxtc, s, 16).ipc / base])
    elif args.figure == "fig3":
        base = model.throughput(pvc, 40, 16).ipc
        rows.append(["series", "x", "normalized_perf"])
        for m in range(2, 33, 2):
            rows.append(["vs_channels", m, model.throughput(pvc, 40, m).ipc / base])
        for s in range(8, 81, 4):
            rows.append(["vs_sms", s, model.throughput(pvc, s, 16).ipc / base])
    else:  # fig4
        alone_p = model.throughput(pvc, 80, 32).ipc
        alone_d = model.throughput(dxtc, 80, 32).ipc
        rows.append(["pvc_sms", "pvc_channels", "stp"])
        for sms in range(4, 77, 4):
            for mcs in range(4, 29, 4):
                stp = (model.throughput(pvc, sms, mcs).ipc / alone_p
                       + model.throughput(dxtc, 80 - sms, 32 - mcs).ipc / alone_d)
                rows.append([sms, mcs, round(stp, 4)])

    text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(rows) - 1} rows to {args.output}")
    return 0


def cmd_profile(args) -> int:
    """Self-profile one bench scenario with the phase profiler attached."""
    from repro.profiling import PhaseProfiler, scenario_names, scenarios

    suite = scenarios()
    if args.scenario not in suite:
        print(f"unknown scenario {args.scenario!r}; known: "
              f"{', '.join(scenario_names())}", file=sys.stderr)
        return 2
    scenario = suite[args.scenario]
    print(f"profiling scenario {scenario.name}: {scenario.description}\n")
    profiler = PhaseProfiler()
    meta = scenario.fn(profiler) or {}
    print(profiler.format_table(top=args.top, sort=args.sort))
    if meta:
        print("\n" + "  ".join(f"{k}={v}" for k, v in meta.items()))
    path = f"{args.output}.chrome.json"
    count = profiler.write_chrome_trace(path)
    print(f"\nwrote {count} phase spans to {path} "
          "(open in chrome://tracing or https://ui.perfetto.dev)")
    reporter, _registry, _recorder, _obslog = _report_session(
        args, "profile", None, None, None, scenario=args.scenario)
    if reporter is not None:
        reporter.profiler.absorb(profiler.snapshot())
        # Phase spans are µs-stamped; clock_ghz=0.001 renders them 1:1
        # in the bundle's Chrome trace (same convention as
        # PhaseProfiler.write_chrome_trace).
        reporter.recorder.absorb(profiler.trace_events())
        _finish_report(
            reporter,
            results={"scenario": scenario.name, "meta": meta},
            clock_ghz=0.001,
        )
    return 0


def cmd_bench(args) -> int:
    """Run the pinned suite; write the artifact; optionally gate."""
    from repro.profiling import (
        bench_filename,
        compare_benchmarks,
        read_bench,
        run_bench,
        scenario_names,
        write_bench,
    )

    if args.list:
        for name in scenario_names():
            print(name)
        return 0
    doc = run_bench(names=args.scenarios, repeats=args.repeat,
                    progress=print, profile_phases=args.profile_phases)
    path = write_bench(doc, args.out)
    print(f"\nwrote {bench_filename(doc)} "
          f"({len(doc['scenarios'])} scenarios, {args.repeat}x each)")
    if args.compare is None:
        return 0
    baseline = read_bench(args.compare)
    comparison = compare_benchmarks(
        baseline, doc,
        fail_threshold=args.fail_threshold,
        warn_threshold=args.warn_threshold,
    )
    print(f"\n{comparison.format()}")
    if comparison.failed and args.warn_only:
        print("(--warn-only: exiting 0 despite the failure above)")
        return 0
    return 1 if comparison.failed else 0


def cmd_inspect(args) -> int:
    """Post-hoc analysis of one --report-dir run bundle."""
    from repro.inspect import analyze, load_bundle, render_html, render_text

    model = load_bundle(args.bundle)
    findings = analyze(model)
    sys.stdout.write(render_text(model, findings, top=args.top))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(model, findings, top=args.top))
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    return 0


def cmd_diff(args) -> int:
    """Run-vs-run comparison of two --report-dir run bundles."""
    from repro.inspect import diff_bundles, render_diff_html, render_diff_text

    diff = diff_bundles(args.bundle_a, args.bundle_b)
    sys.stdout.write(render_diff_text(diff, top=args.top))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_diff_html(diff))
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    if args.expect_identical and not diff.zero_divergence:
        print("--expect-identical: deterministic divergence found",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "catalog": cmd_catalog,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "qos": cmd_qos,
        "arrivals": cmd_arrivals,
        "fleet": cmd_fleet,
        "trace": cmd_trace,
        "metrics": cmd_metrics,
        "export": cmd_export,
        "profile": cmd_profile,
        "bench": cmd_bench,
        "inspect": cmd_inspect,
        "diff": cmd_diff,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
