"""Golden pins for the beacon path's method-call fallbacks.

The port's beacon handlers do their counter math inline when the clocks
are plain :class:`~repro.clocks.clock.TickClock` objects and the TX
counter is the port's own.  Three configurations take the other
branches, and none of them is covered by the Fig. 6a or builtin
faultlab digests:

* spanning-tree mode, which swaps ``port.lc`` and ``device.gc`` for
  ``FollowerClock``/``_InertClock`` after the network is built;
* parity-protected beacons (``DtpPortConfig(parity=True)``) under bit
  errors, so parity and range rejects both occur;
* a port whose ``_tx_counter`` is replaced mid-run (a two-faced lie).

Each scenario is pinned twice: a state fingerprint of an untraced run
(every counter, adjustment count, stats cell, logged offset and the
number of engine sequence numbers drawn) and the trace digest of a
traced run.  The values were recorded before the handlers were inlined.
"""

import hashlib
import json

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.dtp.spanning_tree import configure_spanning_tree
from repro.network.topology import chain
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry import Telemetry

DURATION_FS = 1 * units.MS
LOG_EVERY_FS = 20 * units.US


def _fingerprint(sim, net) -> str:
    now = sim.now
    ports = {}
    for port in net.ports.values():
        stats = port.stats
        ports[port.name] = [
            port.lc.counter_at(now),
            port.lc.adjustments,
            stats.sent,
            stats.received,
            stats.jumps,
            stats.rejected_out_of_range,
            stats.rejected_parity,
            stats.rejected_undecodable,
            stats.lost_on_wire,
            port.d,
            port.peer_faulty,
            port.remote_msb,
        ]
    devices = {
        name: [
            device.gc.counter_at(now),
            device.gc.adjustments,
            getattr(device.gc, "stalls", None),
        ]
        for name, device in net.devices.items()
    }
    logged = [(s.time_fs, s.link, s.offset_ticks) for s in net.logged]
    blob = json.dumps(
        {"ports": ports, "devices": devices, "logged": logged, "seqs": sim._seq},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _log_forever(sim, net, a, b):
    def tick():
        net.send_log(a, b)
        sim.schedule(LOG_EVERY_FS, tick)

    sim.schedule(LOG_EVERY_FS, tick)


def _spanning_tree(sim, telemetry):
    skews = {
        "n0": ConstantSkew(0.0),
        "n1": ConstantSkew(800.0),
        "n2": ConstantSkew(-30.0),
        "n3": ConstantSkew(45.0),
    }
    net = DtpNetwork(sim, chain(4), RandomStreams(4), skews=skews, telemetry=telemetry)
    configure_spanning_tree(net, master="n1")
    net.attach_logger("n0", "n1")
    net.attach_logger("n3", "n2")
    net.start()
    _log_forever(sim, net, "n0", "n1")
    _log_forever(sim, net, "n3", "n2")
    return net


def _parity(sim, telemetry):
    config = DtpPortConfig(parity=True, msb_interval_beacons=50)
    net = DtpNetwork(
        sim, chain(3), RandomStreams(11), config=config, ber=3e-4,
        telemetry=telemetry,
    )
    net.attach_logger("n0", "n1")
    net.start()
    _log_forever(sim, net, "n0", "n1")
    return net


def _patched_tx_counter(sim, telemetry):
    net = DtpNetwork(
        sim, chain(3), RandomStreams(77), telemetry=telemetry,
        config=DtpPortConfig(msb_interval_beacons=40),
    )
    port = net.ports[("n1", "n2")]
    device = net.devices["n1"]

    def install():
        def lying_counter(t_fs):
            return device.global_counter(t_fs) + 5

        port._tx_counter = lying_counter

    sim.schedule_at(300 * units.US, install)
    net.attach_logger("n1", "n2")
    net.start()
    _log_forever(sim, net, "n1", "n2")
    return net


def _pins(build):
    sim = Simulator()
    net = build(sim, None)
    sim.run_until(DURATION_FS)
    state = _fingerprint(sim, net)
    telemetry = Telemetry()
    traced_sim = Simulator()
    build(traced_sim, telemetry)
    traced_sim.run_until(DURATION_FS)
    return state, telemetry.trace_digest()


def test_spanning_tree_golden():
    assert _pins(_spanning_tree) == (
        "62d73bd4ad7922ce7fba3312e4182f7cf2633137374eb5cd760c0b40885e84b6",
        "1467796ad652628ce24638dd2c78d8b46c62a0317520681b151465841d56b776",
    )


def test_parity_golden():
    assert _pins(_parity) == (
        "33c91582b68d048c7d3ec4092502352c581eaaed3de3226a3e56423dd25fbe5d",
        "78ced3c0dd626d0d32aa8e7205a2cb891eacab1fed818e851b35fee2ca12f806",
    )


def test_patched_tx_counter_golden():
    assert _pins(_patched_tx_counter) == (
        "f3748f3d40e25d3c4bf525dcb885a229f2c9fb99567e417265048ae9069b7c34",
        "ca21a8d297faffd730cdbf81d30089b6b61dcc75a29e070ff87ffb7dd881a128",
    )
