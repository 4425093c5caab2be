"""Declarative fault-injection campaigns.

A **scenario spec** is a plain dict (JSON-serializable) describing one run:

.. code-block:: python

    {
        "name": "link-flap",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": 2 * units.MS,
        "faults": [
            {"kind": "link-flap", "a": "n0", "b": "n1",
             "start_fs": 300 * units.US, "down_every_fs": 400 * units.US,
             "down_for_fs": 80 * units.US, "flaps": 3},
        ],
        # optional: "config", "checker", "skew_ppm", "sample_interval_fs"
    }

:func:`run_scenario` executes one spec with an always-on
:class:`~repro.faultlab.invariants.InvariantChecker` and returns a metrics
dict of ints and strings only — so the canonical-JSON sha256 from
:func:`metrics_digest` is byte-stable across runs and platforms for a given
seed.  :func:`run_campaign` fans a list of specs out over the parallel
experiment runner, deriving each scenario's seed from its *name* (not its
position), so reordering scenarios never changes any result.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional

from .. import metrics
from ..ioutil import atomic_write_text
from ..clocks.oscillator import ConstantSkew
from ..dtp.network import DtpNetwork
from ..dtp.port import DtpPortConfig
from ..experiments.parallel import ExperimentTask, derive_seed, run_named_tasks
from ..network import topology as topo
from ..observe.snapshots import ObserveProbe, make_tap
from ..sim.engine import MacroTickSimulator, Simulator
from ..sim.randomness import RandomStreams
from ..telemetry import Telemetry, dump_flight, write_metrics_json, write_trace_jsonl
from .faults import FAULT_KINDS, FaultContext, FaultModel
from .invariants import InvariantChecker, InvariantViolation


class CampaignError(ValueError):
    """A scenario spec is malformed."""


#: Top-level keys a scenario spec may carry.
_SPEC_KEYS = frozenset(
    {
        "name",
        "topology",
        "duration_fs",
        "faults",
        "config",
        "checker",
        "skew_ppm",
        "sample_interval_fs",
        "linkhealth",
    }
)


def build_topology(spec: Dict[str, object]) -> topo.Topology:
    """Build a topology from its spec: ``{"kind": ..., <parameters>}``."""
    params = dict(spec)
    kind = params.pop("kind", None)
    try:
        if kind == "chain":
            built = topo.chain(int(params.pop("hosts")))
        elif kind == "star":
            built = topo.star(int(params.pop("hosts")))
        elif kind == "two-level-tree":
            built = topo.two_level_tree(
                int(params.pop("branches")), int(params.pop("leaves"))
            )
        elif kind == "paper-testbed":
            built = topo.paper_testbed()
        elif kind == "fat-tree":
            built = topo.fat_tree(
                int(params.pop("k")), int(params.pop("hosts_per_edge", 0))
            )
        elif kind == "clos":
            built = topo.clos(
                int(params.pop("spines")),
                int(params.pop("leaves")),
                int(params.pop("hosts_per_leaf", 0)),
            )
        else:
            raise CampaignError(f"unknown topology kind {kind!r}")
    except KeyError as exc:
        raise CampaignError(
            f"topology {kind!r} is missing parameter {exc.args[0]!r}"
        ) from exc
    if params:
        raise CampaignError(
            f"unknown topology parameters for {kind!r}: {sorted(params)}"
        )
    return built


def build_fault(spec: Dict[str, object], index: int = 0) -> FaultModel:
    """Build (but do not arm) a fault model from its spec.

    ``kind`` selects the class from :data:`~repro.faultlab.faults.FAULT_KINDS`;
    every other key is passed to the constructor.  An omitted ``name``
    defaults to ``"<kind>-<index>"``.
    """
    params = dict(spec)
    kind = params.pop("kind", None)
    cls = FAULT_KINDS.get(kind)
    if cls is None:
        raise CampaignError(
            f"unknown fault kind {kind!r}; known: {sorted(FAULT_KINDS)}"
        )
    name = params.pop("name", f"{kind}-{index}")
    try:
        return cls(name=name, **params)
    except TypeError as exc:
        raise CampaignError(f"bad parameters for fault {name!r}: {exc}") from exc


def _artifact(directory: str, scenario: str, suffix: str) -> str:
    """``<directory>/<scenario>.<suffix>``, creating the directory."""
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{scenario}.{suffix}")


def _attach_insight(flight_dir: str, name: str, suffix: str, dump) -> None:
    """Write the insight post-mortem summary next to a flight artifact.

    Imported lazily (insight pulls in the experiment harness) and derived
    only from the dump itself, so the summary is as deterministic as the
    flight artifact.
    """
    from ..insight import flight_summary_markdown

    atomic_write_text(
        _artifact(flight_dir, name, suffix), flight_summary_markdown(dump)
    )


def run_scenario(
    spec: Dict[str, object],
    seed: int = 0,
    sim_factory: Callable[[], object] = Simulator,
    telemetry: Optional[Telemetry] = None,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    flight_dir: Optional[str] = None,
    profile_dispatch: bool = False,
    backend: str = "scalar",
    observers: Optional[List[Callable[..., object]]] = None,
    shards: Optional[int] = None,
    shard_transport: str = "process",
    snapshot_dir: Optional[str] = None,
    observe: bool = False,
    health_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run one scenario and return its (canonically JSON-able) metrics.

    ``sim_factory`` exists for the reference-vs-optimized equivalence
    tests, which substitute the verbatim seed engine.

    ``backend="batched"`` routes healthy DTP port directions through the
    :mod:`repro.fastpath` coordinator.  The metrics dict (and hence
    :func:`metrics_digest`) is byte-identical either way — the result
    deliberately records nothing about the backend; faults that mutate
    port internals mid-run declare their nodes via
    :meth:`~repro.faultlab.faults.FaultModel.tainted_nodes`, which pins
    those directions to the scalar path.

    Telemetry is opt-in: with everything at its default the run takes the
    exact pre-telemetry code paths.  Passing any artifact directory turns a
    default :class:`~repro.telemetry.Telemetry` on; artifacts are written
    as ``<scenario>.trace.jsonl`` / ``<scenario>.metrics.json`` +
    ``<scenario>.prom`` / ``<scenario>.flight.jsonl``.  The flight artifact
    is written whenever the invariant checker recorded or raised a
    violation (on a raise the artifact is written before re-raising).

    ``observers`` are callables attached after :meth:`DtpNetwork.start`
    with keyword arguments ``(sim, network, streams, checker, telemetry,
    duration_fs)``.  They may schedule their own events and draw from
    *new* name-keyed random streams, which — by the
    :class:`~repro.sim.randomness.RandomStreams` contract — leaves every
    existing stream, and therefore the scenario's behavior and metrics,
    byte-identical to an observer-free run (the racelab's fairness
    guarantee; pinned by the discipline equivalence tests).  Observers
    require the scalar backend: the batched fast path replays the scalar
    engine's event-sequence allocation, which observer events would skew.

    ``observe=True`` (implied by ``snapshot_dir``) rides the checker's
    existing sampler grid with a :class:`repro.observe.ObserveProbe` and
    adds a deterministic ``result["observe"]`` section; ``snapshot_dir``
    additionally streams ``<scenario>.snapshots.jsonl`` incrementally
    while the run executes.  Both are byte-identical across the scalar,
    batched and sharded backends.  ``health_dir`` enables the (explicitly
    nondeterministic) coordinator health channel on the sharded backend;
    the in-process backends have no coordinator, so it is a no-op here.
    """
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise CampaignError(f"unknown scenario keys: {sorted(unknown)}")
    if "topology" not in spec or "duration_fs" not in spec:
        raise CampaignError("scenario needs 'topology' and 'duration_fs'")
    name = str(spec.get("name", "scenario"))
    duration_fs = int(spec["duration_fs"])
    if duration_fs <= 0:
        raise CampaignError("duration_fs must be positive")

    if backend == "sharded":
        # Conservative parallel backend: partitions the topology across
        # worker shards and replays telemetry/checker events in serial
        # order.  Results and artifacts are byte-identical to scalar
        # (see docs/SHARDING.md); features that need one live process
        # (observers, profiling, custom engines) are rejected there.
        from ..shard import run_sharded_scenario

        return run_sharded_scenario(
            spec,
            seed=seed,
            sim_factory=sim_factory,
            telemetry=telemetry,
            trace_dir=trace_dir,
            metrics_dir=metrics_dir,
            flight_dir=flight_dir,
            profile_dispatch=profile_dispatch,
            observers=observers,
            shards=shards,
            transport=shard_transport,
            snapshot_dir=snapshot_dir,
            observe=observe,
            health_dir=health_dir,
        )

    if telemetry is None and (
        trace_dir or metrics_dir or flight_dir or snapshot_dir or profile_dispatch
    ):
        telemetry = Telemetry(profile_dispatch=profile_dispatch)

    if backend not in ("scalar", "batched"):
        raise CampaignError(f"unknown backend {backend!r}")
    if observers and backend != "scalar":
        raise CampaignError("observers require the scalar backend")
    if backend == "batched" and sim_factory is Simulator:
        sim_factory = MacroTickSimulator
    sim = sim_factory()
    if telemetry is not None:
        telemetry.attach_sim(sim)
    streams = RandomStreams(root_seed=seed)
    topology = build_topology(spec["topology"])
    config = DtpPortConfig(**spec.get("config", {}))
    skew_ppm = spec.get("skew_ppm")
    skews = (
        {node: ConstantSkew(float(ppm)) for node, ppm in skew_ppm.items()}
        if skew_ppm
        else None
    )
    # Faults are built (not armed) before the network so their taint sets
    # are known at promotion time; arming still happens afterwards, in
    # spec order, and draws from name-keyed streams either way.
    faults: List[FaultModel] = []
    seen_names = set()
    for index, fault_spec in enumerate(spec.get("faults", [])):
        fault = build_fault(fault_spec, index)
        if fault.name in seen_names:
            raise CampaignError(f"duplicate fault name {fault.name!r}")
        seen_names.add(fault.name)
        faults.append(fault)
    tainted = frozenset().union(*(f.tainted_nodes() for f in faults)) if faults else frozenset()
    network = DtpNetwork(
        sim, topology, streams, config=config, skews=skews, telemetry=telemetry,
        backend=backend, tainted_nodes=tainted,
        linkhealth=spec.get("linkhealth"),
    )
    checker = InvariantChecker(network, **spec.get("checker", {}))
    if network.linkhealth is not None:
        # Quarantine-release handshake: rejoining links are excluded from
        # the checker's sync subgraph until the FSM releases them.
        network.linkhealth.bind_checker(checker)

    context = FaultContext(network=network, streams=streams, checker=checker)
    for fault in faults:
        fault.arm(context)

    network.start()

    for observer in observers or ():
        observer(
            sim=sim,
            network=network,
            streams=streams,
            checker=checker,
            telemetry=telemetry,
            duration_fs=duration_fs,
        )

    sample_interval_fs = int(
        spec.get("sample_interval_fs", checker.interval_fs * 4)
    )
    sample_times: List[int] = []
    sample_values: List[int] = []
    probe: Optional[ObserveProbe] = None
    if observe or snapshot_dir is not None:
        tap = (
            make_tap(snapshot_dir, spec, seed, sample_interval_fs)
            if snapshot_dir is not None
            else None
        )
        probe = ObserveProbe(tap=tap)

    def _sample() -> None:
        worst = checker.worst_checkable_offset()
        if worst is not None:
            sample_times.append(sim.now)
            sample_values.append(worst)
        if probe is not None:
            probe.sample(
                sim.now,
                worst,
                checker,
                trace_recorded=(
                    telemetry.tracer.recorded
                    if telemetry is not None and telemetry.tracer is not None
                    else 0
                ),
            )
        sim.schedule(sample_interval_fs, _sample)

    sim.schedule_at(sim.now, _sample)
    profiling = telemetry is not None and telemetry.profile is not None
    wall_start = time.perf_counter_ns() if profiling else None
    try:
        sim.run_until(duration_fs)
    except InvariantViolation as exc:
        if telemetry is not None and flight_dir is not None:
            dump = dump_flight(
                _artifact(flight_dir, name, "flight.jsonl"),
                telemetry,
                name,
                seed,
                sim.now,
                context=dict(
                    exc.context, violation=exc.violation.as_dict()
                ),
            )
            _attach_insight(flight_dir, name, "insight.md", dump)
        if probe is not None and probe.tap is not None:
            # Leave the stream crash-consistent at the last sampled instant.
            probe.tap.flush()
        raise
    if wall_start is not None:
        telemetry.record_wallclock(
            f"scenario:{name}", time.perf_counter_ns() - wall_start
        )

    if telemetry is not None:
        if flight_dir is not None and checker.total_violations:
            dump = dump_flight(
                _artifact(flight_dir, name, "flight.jsonl"),
                telemetry,
                name,
                seed,
                sim.now,
                context=dict(
                    checker.snapshot_context(),
                    violation=checker.violations[0].as_dict()
                    if checker.violations
                    else {},
                ),
            )
            _attach_insight(flight_dir, name, "insight.md", dump)
        if trace_dir is not None and telemetry.tracer is not None:
            trace_digest = write_trace_jsonl(
                _artifact(trace_dir, name, "trace.jsonl"), telemetry.tracer
            )
        else:
            trace_digest = telemetry.trace_digest()
        if metrics_dir is not None:
            write_metrics_json(
                _artifact(metrics_dir, name, "metrics.json"), telemetry
            )
            atomic_write_text(
                _artifact(metrics_dir, name, "prom"),
                telemetry.render_prometheus(),
            )

    recovery = {
        reason: {
            "count": len(durations),
            "max_fs": max(durations),
            "mean_fs": sum(durations) // len(durations),
        }
        for reason, durations in sorted(checker.recovery_fs.items())
    }
    result: Dict[str, object] = {}
    if telemetry is not None:
        # Only present on telemetry runs so telemetry-off results (and
        # their digests) are byte-identical to the pre-telemetry code.
        result["telemetry"] = {
            "metrics_digest": telemetry.metrics_digest(),
            "trace_digest": trace_digest,
            "trace_recorded": (
                telemetry.tracer.recorded if telemetry.tracer is not None else 0
            ),
        }
    result.update({
        "scenario": name,
        "seed": seed,
        "duration_fs": duration_fs,
        "nodes": len(topology.nodes),
        "edges": len(topology.edges),
        "checks_run": checker.checks_run,
        "pairs_checked": checker.pairs_checked,
        "violations": dict(sorted(checker.counts.items())),
        "violations_total": checker.total_violations,
        "ticks_above_bound": checker.ticks_above_bound,
        "time_above_bound_fs": checker.ticks_above_bound * checker.interval_fs,
        "max_offset_excursion": int(metrics.max_abs_excursion(sample_values)),
        "samples": len(sample_values),
        "recovery": recovery,
        "reconnect_recoveries": len(checker.reconnect_recoveries),
        "faults": {
            fault.name: {"kind": fault.kind, **fault.summary()}
            for fault in faults
        },
        "all_synchronized": 1 if network.all_synchronized() else 0,
        "first_violations": [
            violation.as_dict() for violation in checker.violations[:5]
        ],
    })
    if network.linkhealth is not None:
        # Only present on supervised runs so unsupervised results (and
        # their digests) stay byte-identical to the pre-linkhealth code.
        result["linkhealth"] = network.linkhealth.summary()
    if probe is not None:
        # Only present on observed runs so observe-off results (and their
        # digests) stay byte-identical to the pre-observe code.
        result["observe"] = probe.summary()
        probe.finalize(result)
    return result


def metrics_digest(obj: object) -> str:
    """sha256 over the canonical JSON encoding of a metrics object."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _scenario_task(
    spec: Dict[str, object],
    seed: int,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    flight_dir: Optional[str] = None,
    profile_dispatch: bool = False,
    backend: str = "scalar",
    shards: Optional[int] = None,
    shard_transport: str = "process",
    snapshot_dir: Optional[str] = None,
    observe: bool = False,
    health_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Module-level (hence picklable) worker for the parallel runner."""
    if backend == "sharded" and shard_transport == "process":
        import multiprocessing

        # Pool workers are daemonic and cannot spawn shard hosts; the
        # inline transport is byte-identical, so fall back silently.
        if multiprocessing.current_process().daemon:
            shard_transport = "inline"
    return run_scenario(
        spec,
        seed=seed,
        trace_dir=trace_dir,
        metrics_dir=metrics_dir,
        flight_dir=flight_dir,
        profile_dispatch=profile_dispatch,
        backend=backend,
        shards=shards,
        shard_transport=shard_transport,
        snapshot_dir=snapshot_dir,
        observe=observe,
        health_dir=health_dir,
    )


def _campaign_tasks(
    specs: Iterable[Dict[str, object]],
    base_seed: int,
    trace_dir: Optional[str],
    metrics_dir: Optional[str],
    flight_dir: Optional[str],
    profile_dispatch: bool = False,
    backend: str = "scalar",
    shards: Optional[int] = None,
    shard_transport: str = "process",
    snapshot_dir: Optional[str] = None,
    observe: bool = False,
    health_dir: Optional[str] = None,
) -> List[ExperimentTask]:
    tasks = []
    for spec in specs:
        if "name" not in spec:
            raise CampaignError("campaign scenarios need a 'name'")
        name = str(spec["name"])
        tasks.append(
            ExperimentTask(
                name,
                _scenario_task,
                (spec, derive_seed(base_seed, name)),
                {
                    "trace_dir": trace_dir,
                    "metrics_dir": metrics_dir,
                    "flight_dir": flight_dir,
                    "profile_dispatch": profile_dispatch,
                    "backend": backend,
                    "shards": shards,
                    "shard_transport": shard_transport,
                    "snapshot_dir": snapshot_dir,
                    "observe": observe,
                    "health_dir": health_dir,
                },
                seed=derive_seed(base_seed, name),
            )
        )
    return tasks


def run_campaign(
    specs: Iterable[Dict[str, object]],
    base_seed: int = 0,
    jobs: Optional[int] = 1,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    flight_dir: Optional[str] = None,
    profile_dispatch: bool = False,
    backend: str = "scalar",
    shards: Optional[int] = None,
    shard_transport: str = "process",
    snapshot_dir: Optional[str] = None,
    observe: bool = False,
    health_dir: Optional[str] = None,
) -> Dict[str, Dict[str, object]]:
    """Run many scenarios, each seeded from ``(base_seed, scenario name)``.

    Returns an ordered ``{scenario name: metrics}`` dict.  ``jobs > 1``
    fans out over worker processes via the parallel experiment runner;
    results — and any telemetry artifacts written to the ``*_dir``
    directories — are byte-identical to the serial path.  For campaigns
    that must survive worker crashes, hangs, or a SIGKILL of the whole
    run, use :func:`run_resilient_campaign`.  ``backend`` selects the
    scalar oracle or the batched fast path; results are byte-identical.
    """
    tasks = _campaign_tasks(
        specs, base_seed, trace_dir, metrics_dir, flight_dir, profile_dispatch,
        backend, shards, shard_transport, snapshot_dir, observe, health_dir,
    )
    return run_named_tasks(tasks, jobs=jobs)


def run_resilient_campaign(
    specs: Iterable[Dict[str, object]],
    base_seed: int = 0,
    jobs: Optional[int] = 1,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    flight_dir: Optional[str] = None,
    journal_path: Optional[str] = None,
    policy=None,
    profile_dispatch: bool = False,
    backend: str = "scalar",
    shards: Optional[int] = None,
    shard_transport: str = "process",
    snapshot_dir: Optional[str] = None,
    observe: bool = False,
    health_dir: Optional[str] = None,
):
    """Run a campaign under the :mod:`repro.resilience` supervisor.

    Like :func:`run_campaign`, but each scenario runs in a supervised
    worker with per-task timeouts, bounded retries, pool respawn on worker
    death, and quarantine of poison scenarios.  With ``journal_path``,
    completed scenarios are checkpointed as they finish and a re-invoked
    campaign resumes by skipping them — results and artifacts are
    byte-identical to an uninterrupted run.

    Returns ``(results, report)``: the ordered ``{scenario: metrics}``
    dict for every scenario that completed, and the machine-readable
    failure report (:meth:`repro.resilience.SupervisedRun.report`).  When
    ``flight_dir`` is set, every quarantined scenario additionally gets a
    ``<scenario>.failure.flight.jsonl`` post-mortem artifact.
    """
    from ..resilience import CheckpointJournal, SupervisorPolicy, run_supervised

    tasks = _campaign_tasks(
        specs, base_seed, trace_dir, metrics_dir, flight_dir, profile_dispatch,
        backend, shards, shard_transport, snapshot_dir, observe, health_dir,
    )
    if policy is None:
        policy = SupervisorPolicy(base_seed=base_seed)
    # The meta deliberately omits the scenario list: every journal entry
    # is keyed by (name, seed, args digest), so resuming with a subset or
    # superset of scenarios is safe and useful (finish the rest later).
    journal = None
    if journal_path is not None:
        journal = CheckpointJournal(
            journal_path,
            meta={"campaign": "faultlab", "base_seed": base_seed},
        )
    health = None
    if health_dir is not None:
        from ..observe.health import HealthRecorder

        health = HealthRecorder(source="resilient-campaign")
    run = run_supervised(
        tasks, jobs=jobs, policy=policy, journal=journal, health=health
    )
    if health is not None:
        os.makedirs(health_dir, exist_ok=True)
        health.write(os.path.join(health_dir, "campaign.health.jsonl"))
    report = run.report()
    if flight_dir is not None and run.quarantined:
        failures = [failure.as_dict() for failure in run.failures]
        for name in run.quarantined:
            telemetry = Telemetry(trace=False)
            dump = dump_flight(
                _artifact(flight_dir, name, "failure.flight.jsonl"),
                telemetry,
                name,
                derive_seed(base_seed, name),
                0,
                context={
                    "reason": "supervisor-quarantine",
                    "failures": [f for f in failures if f["task"] == name],
                },
            )
            _attach_insight(flight_dir, name, "failure.insight.md", dump)
    return run.named_results(), report


def render_campaign(results: Dict[str, Dict[str, object]]) -> List[str]:
    """Human-readable campaign report, ending with the campaign digest."""
    lines = []
    for name, result in results.items():
        violations = result["violations_total"]
        recovery = result["recovery"]
        worst_recovery = max(
            (stats["max_fs"] for stats in recovery.values()), default=0
        )
        lines.append(
            f"{name:20s}  checks={result['checks_run']:4d}"
            f"  pairs={result['pairs_checked']:6d}"
            f"  violations={violations:3d}"
            f"  max_excursion={result['max_offset_excursion']:8d}"
            f"  above_bound_fs={result['time_above_bound_fs']:8d}"
            f"  worst_recovery_fs={worst_recovery:10d}"
            f"  synced={result['all_synchronized']}"
        )
    lines.append(f"campaign sha256: {metrics_digest(results)}")
    return lines
