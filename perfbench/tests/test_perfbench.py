"""Self-tests of the benchmark: the ledger is honest and observes only.

Each workload runs untraced once and traced twice through the benchmark's
own ``Bench`` (module-scoped, about a minute in all); the tests then check
the properties the per-layer ledger promises.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import probes
import refclock
import run as bench
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def calibration():
    return probes.Calibration()


def _bench(name, scratch):
    workload = workloads.WORKLOADS[name]
    return bench.Bench(workload, workload.default_seed, str(scratch))


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request, calibration, tmp_path_factory):
    """One untraced and two traced repetitions, as ``run.py --trace 1`` makes them."""
    b = _bench(request.param, tmp_path_factory.mktemp(request.param))
    untraced = b.rep()
    traced = b.timed_reps(0, ledger_factory=lambda: probes.Ledger(calibration),
                          label="traced", minimum=2)
    return b, untraced, traced


def test_two_traced_runs_give_identical_counts(runs):
    b, _, traced = runs
    assert len(traced) == 2
    b.check_traced(traced)
    assert b.checks.failures == []
    assert traced[0][2].dispatches


def test_ledger_closes(runs):
    _, _, traced = runs
    for ledger in (r[2] for r in traced):
        named = sum(ledger.layer_self_ns.get(layer, 0) for layer in probes.LAYERS)
        assert named + ledger.residual_ns() == ledger.wall_ns
        assert 0 < named < ledger.wall_ns
        assert ledger.overhead_ns >= 0


def test_traced_run_reproduces_untraced_digest(runs):
    b, untraced, traced = runs
    assert all(r[0].digest == untraced[0].digest for r in traced)
    with open(bench.PINS, encoding="utf-8") as handle:
        pinned = json.load(handle)["workloads"][b.workload.name]
    assert untraced[0].digest == pinned[str(b.seed)]


def test_every_layer_does_work_where_the_map_says(runs):
    b, _, traced = runs
    name = b.workload.name
    active = {layer for layer, ns in traced[0][2].layer_self_ns.items() if ns}
    assert {"sim", "clocks", "dtp"} <= active
    if name == "campaign-observed":
        assert {"telemetry", "observe", "insight", "ioutil", "linkhealth", "faultlab"} <= active
    else:
        assert not active & {"telemetry", "observe", "insight", "ioutil", "linkhealth"}
    assert ("faultlab" in active) == (name != "fig6a-saturated")


def test_setup_spans_cover_the_work_before_the_first_dispatch(runs):
    """Set-up ends before ``run_s`` starts, yet its spans see all of it."""
    b, untraced, traced = runs
    metrics = bench.ledger_metrics([t[2] for t in traced], traced[0][0], untraced[1], None)
    assert metrics["setup.topology_s"][0] > 0
    assert metrics["setup.network_s"][0] > 0
    ledger = traced[0][2]
    assert ledger.span("DtpNetwork.__init__").calls == ledger.span("DtpNetwork.start").calls
    assert ledger.span("DtpNetwork.start").calls == len(ledger.networks) >= 1


def test_tracing_leaves_the_executed_backend_unchanged(calibration, tmp_path):
    b = _bench("fig6a-saturated", tmp_path)
    fastpath = b.fastpath(0, calibration)
    assert fastpath["directions_promoted"] > 0
    assert b.checks.failures == []


def test_patches_are_undone(calibration):
    from repro.clocks.oscillator import Oscillator
    from repro.sim import engine

    before = (engine.heapq, vars(Oscillator)["ticks_at"], vars(engine.Simulator)["run_until"])
    patcher = probes.Patcher()
    probes.Ledger(calibration).install(patcher)
    patcher.restore()
    after = (engine.heapq, vars(Oscillator)["ticks_at"], vars(engine.Simulator)["run_until"])
    assert before == after


def test_refclock_scales_by_the_local_chunk_time():
    clock = refclock.RefClock()
    nominal = refclock.NOMINAL_CHUNK_NS
    # Chunks at twice the nominal time around 10 ms segments: the host runs
    # at half speed.  The thread is on the core for 6 ms of each segment,
    # so the 30 ms of wall time scale to 3 x (3 ms + 4 ms off the core).
    clock.chunks = [
        (t, t + 2 * nominal, c, c + 2 * nominal)
        for t, c in ((0, 0), (12_000_000, 8_000_000), (24_000_000, 16_000_000),
                     (36_000_000, 24_000_000))
    ]
    wall_s, scaled_s = clock.times()
    assert wall_s == pytest.approx(0.030)
    assert scaled_s == pytest.approx(0.021)


def test_refclock_times_a_scaled_run_and_restores_the_signal(tmp_path):
    import signal

    before = signal.getsignal(signal.SIGALRM)
    b = _bench("fig6a-saturated", tmp_path)
    clock = refclock.RefClock()
    outcome, run_s, wall_s = b.rep(clock=clock)
    assert b.checks.failures == []
    assert len(clock.chunks) >= 3
    assert 0 < wall_s and 0 < run_s
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6a-saturated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
