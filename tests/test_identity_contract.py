"""The repository's identity contract, checked on both backends.

The Fig. 6a 2 ms digest (seed 1) and the nine builtin faultlab scenario
digests (full profile, base seed 0, serial) must stay byte-identical
across refactors of the simulation core.  A change that reorders a
same-femtosecond tie or draws an engine sequence number at a different
point shows up here first.  The values are the ``identity`` block of
``perfbench/pins.json``, copied so the tier-1 suite does not depend on
the benchmark directory.

The untraced digests can survive a flipped tie when the flip happens not
to change a payload, so the traced Fig. 6a 2 ms run is pinned as well:
its trace records every TX and RX in dispatch order.
"""

import pytest

from repro.bench import result_digest
from repro.experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp
from repro.faultlab.campaign import metrics_digest, run_campaign
from repro.faultlab.scenarios import builtin_specs
from repro.sim import units
from repro.telemetry import Telemetry

FIG6A_2MS = "7c294cfabe094ae2a1ea26c94e0f69e5cf103c1a17cf3bc8e4428fedc2a30ff9"
FIG6A_2MS_TRACE = "70ddaf6cfde2f81ec4cead552c522564d2b1e2e16e808d11fa9216214ef8ffe3"

BUILTIN_DIGESTS = {
    "baseline": "5ecdb2e456fa1ab4e8e8e29c23c87e4e6ee655f192e02a17c5f38b416f2013fe",
    "link-flap": "21327760d19fffdd6458790e04854d0ddbcef742c8277a0fbca7bba0d01af13f",
    "ber-burst": "0e848193f8b5768c14bb93372e856e979b609d59b5a6f70f5b08921a33747b81",
    "partition-heal": "42e0ac39899b9cf1e42889d39c9191b85218f255278512beff00073439aabb48",
    "node-crash": "ce8600a3a5828f3e0fc0282f090bfece9336d3a4a9ada287bc13b78395319afc",
    "beacon-suppression": "e060d11b880ac0ffe184a99ab21fc2badab0df958b664e7bd0a024eb291dba3e",
    "two-faced": "ace29cbc8ce96d4ce59cf69fb10e04558517df8fb913601fef08079725a3c0a2",
    "oscillator-glitch": "98aecd716d24cc4525599e4c3fbf57a768c303c8d9d339681e7e291820f122bc",
    "runaway": "c635e615b3bedaef1e313af424528a46119a73fa6904a06255ac966ecfccb48c",
}

BACKENDS = ("scalar", "batched")


@pytest.mark.parametrize("backend", BACKENDS)
def test_fig6a_2ms_digest(backend):
    config = Fig6DtpConfig(frame_name="mtu", duration_fs=2 * units.MS, seed=1)
    assert result_digest(run_fig6_dtp(config, backend=backend)) == FIG6A_2MS


@pytest.mark.parametrize("backend", BACKENDS)
def test_fig6a_2ms_trace_digest(backend):
    config = Fig6DtpConfig(frame_name="mtu", duration_fs=2 * units.MS, seed=1)
    telemetry = Telemetry()
    run_fig6_dtp(config, telemetry=telemetry, backend=backend)
    assert telemetry.trace_digest() == FIG6A_2MS_TRACE


@pytest.mark.parametrize("backend", BACKENDS)
def test_builtin_scenario_digests(backend):
    results = run_campaign(builtin_specs(), base_seed=0, jobs=1, backend=backend)
    digests = {name: metrics_digest(result) for name, result in results.items()}
    assert digests == BUILTIN_DIGESTS
