"""Beacon-timeout re-arm by generation counter instead of heap cancel.

Each beacon timeout is posted carrying the port's beacon generation, and
``link_down`` bumps the generation, so the timeout still in the heap
fires as a no-op.  A link that goes down and comes back up inside one
beacon interval must therefore end up with exactly one beacon chain per
direction, on the scalar backend and on the batched backend (whose
demotion re-posts the pending timeout under the old generation).
"""

import pytest

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPort, DtpPortConfig
from repro.experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp
from repro.network.topology import chain
from repro.sim import units
from repro.sim.engine import MacroTickSimulator, Simulator
from repro.sim.randomness import RandomStreams

#: 32 us at 10 GbE: long enough that the INIT exchange after a link_up
#: completes well before the retired timeout's firing time.
INTERVAL_TICKS = 5_000
INTERVAL_FS = INTERVAL_TICKS * units.TICK_10G_FS
WINDOW_INTERVALS = 20


def _network(backend):
    sim = MacroTickSimulator() if backend == "batched" else Simulator()
    net = DtpNetwork(
        sim, chain(2), RandomStreams(5),
        config=DtpPortConfig(beacon_interval_ticks=INTERVAL_TICKS),
        # Zero skew: beacons are exactly INTERVAL_FS apart, so a window
        # of k intervals holds exactly k beacons per direction.
        skews={"n0": ConstantSkew(0.0), "n1": ConstantSkew(0.0)},
        backend=backend,
    )
    net.start()
    return sim, net


def _beacons_sent(net):
    return {
        key: port.stats.sent.get("BEACON", 0) for key, port in net.ports.items()
    }


@pytest.mark.parametrize("backend", ["scalar", "batched"])
def test_flap_within_one_interval_leaves_one_beacon_chain(backend):
    sim, net = _network(backend)
    sim.run_until(400 * units.US)
    assert net.all_synchronized()
    if backend == "batched":
        assert net.fastpath.batched_directions() == ["n0->n1", "n1->n0"]

    # Down and up again inside one beacon interval: the timeouts armed
    # before the down are still in the heap when the link re-syncs.
    down_at = sim.now + INTERVAL_FS // 10
    sim.run_until(down_at)
    net.down_link("n0", "n1")
    sim.run_until(down_at + 2 * units.US)
    net.up_link("n0", "n1")
    sim.run_until(down_at + INTERVAL_FS // 2)
    assert net.all_synchronized()

    # The retired timeouts fire inside the next interval; every later
    # window must hold exactly one beacon per interval per direction.
    sim.run_until(down_at + 2 * INTERVAL_FS)
    start = _beacons_sent(net)
    sim.run_until(sim.now + WINDOW_INTERVALS * INTERVAL_FS)
    end = _beacons_sent(net)
    assert {key: end[key] - start[key] for key in end} == {
        key: WINDOW_INTERVALS for key in end
    }
    if backend == "batched":
        assert net.fastpath.demotions == 2
        # The new chains re-promote at their first timeout.
        assert net.fastpath.batched_directions() == ["n0->n1", "n1->n0"]


def test_scalar_and_batched_agree_through_the_flap():
    states = []
    for backend in ("scalar", "batched"):
        sim, net = _network(backend)
        sim.run_until(400 * units.US)
        net.down_link("n0", "n1")
        sim.run_until(sim.now + 2 * units.US)
        net.up_link("n0", "n1")
        sim.run_until(sim.now + 10 * INTERVAL_FS)
        states.append(
            [
                (p.lc.offset, p.lc.adjustments, p.stats.sent, p.stats.received)
                for p in net.ports.values()
            ]
        )
    assert states[0] == states[1]


def test_fault_free_fig6a_cancels_no_beacon_event(monkeypatch):
    cancelled = []
    original = Simulator.cancel

    def recording_cancel(self, event):
        if event is not None:
            cancelled.append(event.fn)
        original(self, event)

    monkeypatch.setattr(Simulator, "cancel", recording_cancel)
    run_fig6_dtp(
        Fig6DtpConfig(
            frame_name="mtu", duration_fs=300 * units.US, warmup_fs=200 * units.US,
        )
    )
    # Only the INIT retry timers are ever cancelled (once per port, at T2).
    assert cancelled
    assert {fn.__func__ for fn in cancelled} == {DtpPort._send_init}
