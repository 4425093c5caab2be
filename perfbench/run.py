"""The repository benchmark: three workloads, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig6a-saturated --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond two marks (first dispatch, end of network start).  ``--trace 1``
runs the workload untraced and traced and reports the per-layer ledger.
Every run checks its outputs: each repetition's digest must equal the
first one's and, for a pinned seed, the digest in ``pins.json``; the
repository's identity contract (Fig. 6a 2 ms and the nine builtin
faultlab digests) is checked once per run.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

import probes
import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")
#: Scratch space for campaign artifacts and set-up probes, inside the checkout.
SCRATCH_PARENT = os.path.join(ROOT, ".perfbench_tmp")

#: Fewest timed repetitions a run reports a median over, however long.
MIN_REPS = 3
#: Fresh interpreters whose median set-up time is ``setup_s``.
SETUP_PROBES = 11
SETUP_PROBE_TIMEOUT_S = 120


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Checks:
    """Counts attempted and failed runs; a failure makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)


def _stats_of(networks) -> Dict[str, int]:
    beacons = jumps = rejects = 0
    for net in networks:
        for port in net.ports.values():
            stats = port.stats
            beacons += stats.received.get("BEACON", 0)
            jumps += stats.jumps
            rejects += (
                stats.rejected_out_of_range + stats.rejected_parity
                + stats.rejected_undecodable
            )
    return {"beacons_rx": beacons, "jumps": jumps, "rejects": rejects}


class Bench:
    def __init__(self, workload, seed: int, scratch: str) -> None:
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.checks = Checks()
        with open(PINS, "r", encoding="utf-8") as handle:
            self.pins = json.load(handle)
        self.pinned = self.pins["workloads"].get(workload.name, {}).get(str(seed))
        self.first_digest: Optional[str] = None

    # -- one repetition -------------------------------------------------
    def _one(self, run, ledger=None, on_started=None, clock=None):
        """Run ``run(seed, workdir)``; returns (raw, run_s, wall_s, workdir).

        With a :class:`refclock.RefClock`, ``run_s`` is in scaled seconds;
        otherwise it is the wall time ``wall_s``.
        """
        patcher = probes.Patcher()
        marks = probes.Marks()
        if ledger is not None:
            ledger.install(patcher)
        else:
            marks.install(patcher, on_started=on_started,
                          on_first_run=clock.begin if clock is not None else None)
        workdir = tempfile.mkdtemp(dir=self.scratch)
        gc.collect()
        try:
            if clock is not None:
                clock.arm()
            raw = run(self.seed, workdir)
            if clock is not None:
                clock.end()
            end = time.perf_counter_ns()
            if ledger is not None:
                ledger.finish()
        finally:
            if clock is not None:
                clock.disarm()
            patcher.restore()
        if clock is not None:
            wall_s, run_s = clock.times()
            return raw, run_s, wall_s, workdir
        start = ledger.root_start_ns if ledger is not None else marks.first_run_ns
        return raw, (end - start) / 1e9, (end - start) / 1e9, workdir

    def rep(self, run=None, ledger=None, label: str = "untraced", on_started=None,
            clock=None):
        """One workload repetition, checked; returns (outcome, run_s, wall_s) or None.

        ``run`` defaults to the workload; any other ``run`` must reproduce
        the workload's digest (the batched backend does).
        """
        workdir = None
        try:
            raw, run_s, wall_s, workdir = self._one(
                run or self.workload.run, ledger=ledger, on_started=on_started, clock=clock
            )
            outcome = self.workload.summarize(raw, workdir)
        except Exception:
            traceback.print_exc()
            self.checks.record(False, f"{label} repetition raised")
            return None
        finally:
            if workdir is not None:
                shutil.rmtree(workdir, ignore_errors=True)
        if self.first_digest is None:
            self.first_digest = outcome.digest
        ok = outcome.digest == self.first_digest and (
            self.pinned is None or outcome.digest == self.pinned
        )
        self.checks.record(
            ok, f"{label} digest {outcome.digest[:12]} differs from "
            f"{(self.pinned or self.first_digest)[:12]}",
        )
        return outcome, run_s, wall_s

    def timed_reps(self, seconds: float, run=None, ledger_factory=None, label="untraced",
                   minimum: int = MIN_REPS, on_started=None, between=None,
                   scaled: bool = False):
        """Repeat for ``seconds`` of repetitions and at least ``minimum`` of them.

        Each item is ``(outcome, run_s, ledger, wall_s)``; with ``scaled``
        each repetition runs under a fresh :class:`refclock.RefClock` and
        ``run_s`` is in scaled seconds.  ``between`` runs after each
        repetition; its time does not count.
        """
        done = []
        deadline = time.perf_counter() + seconds
        attempts = 0
        while attempts < minimum or time.perf_counter() < deadline:
            attempts += 1
            ledger = ledger_factory() if ledger_factory else None
            clock = refclock.RefClock() if scaled else None
            result = self.rep(run, ledger=ledger, label=label, on_started=on_started,
                              clock=clock)
            if result is not None:
                done.append((result[0], result[1], ledger, result[2]))
            if between is not None:
                start = time.perf_counter()
                between()
                deadline += time.perf_counter() - start
        return done

    def identity(self) -> None:
        """Check the repository's identity contract once."""
        try:
            digests = self.workloads.identity_digests()
        except Exception:
            traceback.print_exc()
            self.checks.record(False, "identity contract run raised")
            return
        expected = self.pins["identity"]
        wrong = sorted(k for k in expected if digests.get(k) != expected[k])
        self.checks.record(not wrong, f"identity contract digests differ: {wrong}")

    def setup_probe(self) -> Optional[Tuple[float, float]]:
        """One ``(setup_s, wall_s)`` from a fresh interpreter (``setup_probe.py``)."""
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"),
                 self.workload.name, str(self.seed), self.scratch],
                cwd=ROOT, capture_output=True, text=True,
                timeout=SETUP_PROBE_TIMEOUT_S,
            )
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            setup_s, wall_s = float(line["setup_s"]), float(line["wall_s"])
            ok = proc.returncode == 0
        except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError):
            ok = False
        self.checks.record(ok, "set-up probe failed")
        return (setup_s, wall_s) if ok else None

    # -- the two modes --------------------------------------------------
    def end_to_end(self, seconds: float) -> Dict[str, Tuple[float, str]]:
        # The first probe byte-compiles and warms the page cache; untimed.
        # The others interleave with the repetitions.
        self.setup_probe()
        setup: List[Tuple[float, float]] = []
        probes_left = SETUP_PROBES

        def between() -> None:
            nonlocal probes_left
            if probes_left > 0:
                probes_left -= 1
                value = self.setup_probe()
                if value is not None:
                    setup.append(value)

        reps = self.timed_reps(seconds, between=between, scaled=True)
        while probes_left > 0:
            between()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.identity()
        outcome = reps[0][0] if reps else None

        print(f"workload {self.workload.name}  seed {self.seed}"
              f"  pinned digest: {'yes' if self.pinned else 'no'}")
        for name, values, what in (
            ("run_s", [r[1] for r in reps], "scaled"),
            ("run_wall_s", [r[3] for r in reps], "host time"),
            ("setup_s", [v[0] for v in setup], "scaled"),
            ("setup_wall_s", [v[1] for v in setup], "host time"),
        ):
            if values:
                q1, med, q3 = _quartiles(values)
                print(f"  {name:<16} {med:10.4f} s     median of n={len(values)};"
                      f" p25 {q1:.4f}  p75 {q3:.4f}  {what}")
        print(f"  {'peak_rss_mb':<16} {peak_rss_mb:10.1f} MB    n=1  host memory")
        frac = self.checks.failed / max(1, self.checks.attempted)
        print(f"  {'failed_frac':<16} {frac:10.4f}       "
              f"{self.checks.failed} of {self.checks.attempted} runs")
        if outcome is not None:
            print(f"  {'precision_ticks':<16} {outcome.precision_ticks:10d} ticks "
                  f"n={len(reps)}  simulated: {self.workload.bound}")
            print(f"  {'violations':<16} {outcome.violations:10d}       "
                  f"n={len(reps)}  simulated: invariant violations recorded")
        if not reps or not setup:
            return {}
        return {
            "run_s": (statistics.median(r[1] for r in reps), "s"),
            "setup_s": (statistics.median(v[0] for v in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def per_layer(self, seconds: float) -> Dict[str, Tuple[float, str]]:
        untraced = self.timed_reps(seconds / 2)
        calibration = probes.Calibration()
        traced = self.timed_reps(seconds / 2, ledger_factory=lambda: probes.Ledger(calibration),
                                 label="traced", minimum=2)
        self.identity()
        if not untraced or not traced:
            return {}
        self.check_traced(traced)
        fastpath = (
            self.fastpath(seconds / 4, calibration)
            if self.workload.name == "fig6a-saturated" else None
        )
        return ledger_metrics(
            [r[2] for r in traced], traced[0][0], statistics.median(r[1] for r in untraced),
            fastpath,
        )

    def check_traced(self, traced) -> None:
        """Checks on the ``(outcome, run_s, ledger)`` of traced repetitions."""
        counts = [layer_counts(r[2], r[0]) for r in traced]
        self.checks.record(
            all(c == counts[0] for c in counts),
            "two traced runs gave different per-layer counts",
        )
        if "trace_records" in traced[0][0].counts:
            recorded = traced[0][2].span("TraceRecorder.record").calls
            self.checks.record(
                recorded == traced[0][0].counts["trace_records"],
                f"the ledger saw {recorded} trace records, the run recorded "
                f"{traced[0][0].counts['trace_records']}",
            )

    def fastpath(self, seconds: float, calibration) -> Dict[str, float]:
        """The fig6a-saturated input on ``--backend batched``."""
        batched = self.workloads.fig6a_batched
        started = []
        reps = self.timed_reps(seconds, run=batched, label="batched",
                               on_started=started.append)
        untraced = [net.fastpath.promotions for net in started]
        ledger = probes.Ledger(calibration)
        result = self.rep(batched, ledger=ledger, label="traced batched")
        traced = ledger.networks[0].fastpath.promotions if result else None
        self.checks.record(
            len(set(untraced)) == 1 and traced == untraced[0],
            f"tracing changed the executed backend: directions promoted "
            f"{traced} traced, {untraced} untraced",
        )
        return {"run_s": statistics.median(r[1] for r in reps) if reps else 0.0,
                "directions_promoted": untraced[0] if untraced else 0}


def layer_counts(ledger, outcome) -> Dict[str, int]:
    """The deterministic part of a traced run: counts that must repeat."""
    sim_calls = {n: ledger.span(f"Simulator.{n}").calls
                 for n in ("schedule", "schedule_at", "post_at", "cancel")}
    return {
        "dispatches": dict(ledger.dispatches),
        "layer_calls": dict(ledger.layer_calls),
        "sim_calls": sim_calls,
        "span_calls": {name: span.calls for name, span in ledger.spans.items()},
        "stats": _stats_of(ledger.networks),
        "records_indexed": ledger.records_indexed,
        "digest": outcome.digest,
    }


def ledger_metrics(ledgers, outcome, untraced_run_s: float,
                   fastpath: Optional[Dict[str, float]]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics: counts from the first traced run, times as medians."""
    first = ledgers[0]
    counts = layer_counts(first, outcome)
    fastpath = fastpath or {"run_s": 0.0, "directions_promoted": 0}
    stats = counts["stats"]
    beacons = stats["beacons_rx"]

    def med(fn) -> float:
        return statistics.median(fn(one) for one in ledgers)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def self_s(layer):
        return med(lambda ledger: ledger.self_s(layer))

    def total_s(*names):
        return med(lambda ledger: sum(ledger.span(n).total_ns for n in names) / 1e9)

    events = sum(counts["dispatches"].values())
    schedules = sum(v for k, v in counts["sim_calls"].items() if k != "cancel")
    c = outcome.counts
    wall_s = med(lambda ledger: ledger.wall_ns / 1e9)
    named = med(lambda ledger: sum(ledger.self_s(layer) for layer in probes.LAYERS))
    residual_s = med(lambda ledger: ledger.residual_ns() / 1e9)
    flush_bytes = first.bytes_by_span.get("SnapshotTap.flush", 0)
    return {
        "sim.events": (events, "count"),
        "sim.schedules": (schedules, "count"),
        "sim.cancel_frac": (ratio(counts["sim_calls"]["cancel"], schedules), "ratio"),
        "sim.events_per_beacon": (ratio(events, beacons), "ratio"),
        "sim.self_s": (self_s("sim"), "s"),
        "clocks.calls": (first.layer_calls.get("clocks", 0), "count"),
        "clocks.calls_per_beacon": (ratio(first.layer_calls.get("clocks", 0), beacons), "ratio"),
        "clocks.self_s": (self_s("clocks"), "s"),
        "dtp.beacons_rx": (beacons, "count"),
        "dtp.jump_frac": (ratio(stats["jumps"], beacons), "ratio"),
        "dtp.reject_frac": (ratio(stats["rejects"], beacons), "ratio"),
        "dtp.us_per_beacon": (ratio(self_s("dtp") * 1e6, beacons), "us"),
        "dtp.self_s": (self_s("dtp"), "s"),
        "ethernet.idle_queries": (first.layer_calls.get("ethernet", 0), "count"),
        "ethernet.self_s": (self_s("ethernet"), "s"),
        "faultlab.checks": (c.get("checks", 0), "count"),
        "faultlab.pairs_checked": (c.get("pairs_checked", 0), "count"),
        "faultlab.ns_per_pair": (ratio(self_s("faultlab") * 1e9, c.get("pairs_checked", 0)), "ns"),
        "faultlab.self_s": (self_s("faultlab"), "s"),
        "linkhealth.watchdog_ticks": (
            counts["dispatches"].get("LinkSupervisor._watchdog_tick", 0), "count"),
        "linkhealth.transitions": (first.span("LinkSupervisor._set_state").calls, "count"),
        "linkhealth.self_s": (self_s("linkhealth"), "s"),
        "telemetry.trace_records": (first.span("TraceRecorder.record").calls, "count"),
        "telemetry.record_self_s": (
            med(lambda ledger: ledger.span("TraceRecorder.record").self_ns / 1e9), "s"),
        "telemetry.export_s": (total_s("write_trace_jsonl", "write_metrics_json", "dump_flight",
                                       "Telemetry.render_prometheus"), "s"),
        "telemetry.bytes_written": (c.get("telemetry_bytes", 0), "bytes"),
        "telemetry.self_s": (self_s("telemetry"), "s"),
        "observe.samples": (c.get("observe_samples", 0), "count"),
        "observe.flush_s": (total_s("SnapshotTap.flush"), "s"),
        "observe.write_amplification": (ratio(flush_bytes, c.get("snapshot_bytes", 0)), "ratio"),
        "observe.self_s": (self_s("observe"), "s"),
        "insight.report_s": (total_s("write_insight_report"), "s"),
        "insight.records_indexed": (first.records_indexed, "count"),
        "insight.self_s": (self_s("insight"), "s"),
        "ioutil.fsyncs": (first.span("os.fsync").calls, "count"),
        "ioutil.fsync_s": (total_s("os.fsync"), "s"),
        "ioutil.self_s": (self_s("ioutil"), "s"),
        "setup.topology_s": (total_s("build_topology", "paper_testbed"), "s"),
        "setup.network_s": (total_s("DtpNetwork.__init__", "DtpNetwork.start"), "s"),
        "fastpath.run_s": (fastpath["run_s"], "s"),
        "fastpath.over_scalar": (ratio(fastpath["run_s"], untraced_run_s), "ratio"),
        "fastpath.directions_promoted": (fastpath["directions_promoted"], "count"),
        "ledger.wall_s": (wall_s, "s"),
        "ledger.residual_s": (residual_s, "s"),
        "ledger.overhead_s": (med(lambda ledger: ledger.overhead_ns / 1e9), "s"),
        "ledger.coverage": (ratio(named, wall_s), "ratio"),
        "ledger.self_over_run_s": (ratio(named, untraced_run_s), "ratio"),
        "trace.overhead_frac": (ratio(wall_s, untraced_run_s) - 1.0, "ratio"),
        "model.precision_ticks": (outcome.precision_ticks, "ticks"),
        "model.violations": (outcome.violations, "count"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time per run; at least 3 repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    seed = workload.default_seed if args.seed is None else args.seed

    os.makedirs(SCRATCH_PARENT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH_PARENT)
    try:
        bench = Bench(workload, seed, scratch)
        if args.trace:
            metrics = bench.per_layer(args.seconds)
        else:
            metrics = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_PARENT)
        except OSError:
            pass
    checks = bench.checks
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30} {value:>16.6g} {unit}")
    result = {
        "correct": checks.failed == 0 and bool(metrics),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
