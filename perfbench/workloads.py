"""The benchmark's three workloads and the repository's identity contract.

Each workload is batch work: one fixed input, simulated to a fixed
simulated span in this process, serially, on the default scalar backend.
:func:`run` does the work that is timed; :func:`summarize` reads its
output afterwards (digest, precision, violations, artifact sizes) and is
not timed.

* ``fig6a-saturated`` -- the paper's 12-node testbed (Fig. 6a: MTU
  frames saturating every link, 200-tick beacons) for 4 ms, past the
  2 ms warmup, so the LOG channel samples for 2 ms.
* ``fabric-k8`` -- a k=8 fat-tree with 8 hosts per edge switch on idle
  links, under the always-on invariant checker.  The beacon interval is
  5,000 ticks, inside the paper's precondition (at most 2 ticks of drift
  per interval at +/-100 ppm, so at most 10,000 ticks).  It is run by
  hand and not listed in ``BENCHMARK.json``: on a shared host its run
  time spreads too much to gate (see ``perfbench/README.md``).
* ``campaign-observed`` -- the nine builtin faultlab scenarios plus
  ``flap-storm``, ``signal-loss`` and ``ber-ramp`` in the full profile,
  writing trace, metrics, flight and snapshot artifacts, evaluating the
  ``default`` SLO, and rendering the insight report from the artifacts.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.bench import result_digest
from repro.experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp
from repro.faultlab import campaign
from repro.faultlab.scenarios import BUILTIN_SCENARIOS, builtin_specs
from repro.insight import report
from repro.observe import cli as observe_cli
from repro.observe import slo
from repro.sim import units

FIG6A_DURATION_FS = 4 * units.MS
FIG6A_WARMUP_FS = 2 * units.MS

FABRIC_K8_SPEC: Dict[str, object] = {
    "name": "fabric-k8",
    "topology": {"kind": "fat-tree", "k": 8, "hosts_per_edge": 8},
    "duration_fs": 1 * units.MS,
    "config": {"beacon_interval_ticks": 5_000},
    "faults": [],
}

CAMPAIGN_SCENARIOS = list(BUILTIN_SCENARIOS) + ["flap-storm", "signal-loss", "ber-ramp"]


@dataclass
class Outcome:
    """What one workload run produced, read after the timed region."""

    digest: str
    precision_ticks: int
    violations: int
    #: Simulated counts the per-layer metrics divide by (checks, pairs,
    #: trace records, snapshot samples, artifact bytes, ...).
    counts: Dict[str, int] = field(default_factory=dict)


def _fig6a(seed: int, workdir: str, backend: str = "scalar"):
    config = Fig6DtpConfig(
        frame_name="mtu", duration_fs=FIG6A_DURATION_FS,
        warmup_fs=FIG6A_WARMUP_FS, seed=seed,
    )
    return run_fig6_dtp(config, backend=backend)


def _fig6a_summary(result, workdir: str) -> Outcome:
    return Outcome(
        digest=result_digest(result),
        precision_ticks=int(result.summary["worst_logged_offset_ticks"]),
        violations=0,
    )


def _fabric(seed: int, workdir: str):
    return campaign.run_scenario(copy.deepcopy(FABRIC_K8_SPEC), seed=seed)


def _fabric_summary(result, workdir: str) -> Outcome:
    return Outcome(
        digest=campaign.metrics_digest(result),
        precision_ticks=int(result["max_offset_excursion"]),
        violations=int(result["violations_total"]),
        counts={
            "checks": int(result["checks_run"]),
            "pairs_checked": int(result["pairs_checked"]),
        },
    )


def _campaign(seed: int, workdir: str):
    results = campaign.run_campaign(
        builtin_specs(CAMPAIGN_SCENARIOS), base_seed=seed, jobs=1,
        trace_dir=workdir, metrics_dir=workdir, flight_dir=workdir,
        snapshot_dir=workdir, observe=True,
    )
    verdicts = observe_cli.evaluate_results(results, slo.load_slo("default"))
    observe_cli.write_verdicts(workdir, verdicts)
    report.write_insight_report(workdir, os.path.join(workdir, "insight.md"))
    return results


def _campaign_summary(results, workdir: str) -> Outcome:
    digest = hashlib.sha256(campaign.metrics_digest(results).encode())
    sizes: Dict[str, int] = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as handle:
            data = handle.read()
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
        for suffix in (".trace.jsonl", ".metrics.json", ".prom", ".flight.jsonl",
                       ".snapshots.jsonl"):
            if name.endswith(suffix):
                sizes[suffix] = sizes.get(suffix, 0) + len(data)
    counts = {
        "checks": sum(int(r["checks_run"]) for r in results.values()),
        "pairs_checked": sum(int(r["pairs_checked"]) for r in results.values()),
        "trace_records": sum(int(r["telemetry"]["trace_recorded"]) for r in results.values()),
        "observe_samples": sum(int(r["observe"]["samples"]) for r in results.values()),
        "telemetry_bytes": sum(
            v for k, v in sizes.items() if k != ".snapshots.jsonl"
        ),
        "snapshot_bytes": sizes.get(".snapshots.jsonl", 0),
    }
    return Outcome(
        digest=digest.hexdigest(),
        precision_ticks=max(int(r["max_offset_excursion"]) for r in results.values()),
        violations=sum(int(r["violations_total"]) for r in results.values()),
        counts=counts,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    run: Callable[[int, str], object]
    summarize: Callable[[object, str], Outcome]
    #: What ``precision_ticks`` is read against, for the printed scorecard.
    bound: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig6a-saturated", 1, _fig6a, _fig6a_summary,
                 "worst logged offset; paper bound 4 ticks (direct peers)"),
        Workload("fabric-k8", 0, _fabric, _fabric_summary,
                 "max offset excursion; paper bound 4TD = 24 ticks (D = 6)"),
        Workload("campaign-observed", 0, _campaign, _campaign_summary,
                 "worst max offset excursion over 12 fault scenarios"),
    )
}


#: The ``fig6a-saturated`` input on the batched backend.
fig6a_batched = functools.partial(_fig6a, backend="batched")


def identity_digests() -> Dict[str, str]:
    """The identity contract: Fig. 6a 2 ms (seed 1) and the nine builtins.

    The builtins run as ``repro faultlab`` runs them: full profile, base
    seed 0, serially.
    """
    fig6a = run_fig6_dtp(Fig6DtpConfig(frame_name="mtu", duration_fs=2 * units.MS, seed=1))
    digests = {"fig6a-2ms": result_digest(fig6a)}
    results = campaign.run_campaign(builtin_specs(), base_seed=0, jobs=1)
    for name, result in results.items():
        digests[name] = campaign.metrics_digest(result)
    return digests
