"""The broadcast medium: delivery, channels, sniffing, collisions."""

import pytest

from repro.dot11.frames import make_beacon
from repro.dot11.mac import MacAddress
from repro.radio.medium import Medium, RadioPort
from repro.radio.propagation import FrameLossModel, Position
from repro.sim.errors import ConfigurationError
from repro.sim.kernel import Simulator

AP = MacAddress("aa:bb:cc:dd:00:01")


def _port(medium, name, x, channel=1, **kw):
    port = RadioPort(name=name, position=Position(x, 0.0), channel=channel, **kw)
    medium.attach(port)
    return port


def _rx_recorder(port):
    received = []
    port.on_receive = lambda frame, rssi, ch: received.append((frame, rssi, ch))
    return received


def test_broadcast_reaches_all_in_range():
    sim = Simulator(seed=1)
    medium = Medium(sim)
    tx = _port(medium, "tx", 0.0)
    rx1, rx2 = _port(medium, "rx1", 10.0), _port(medium, "rx2", 20.0)
    got1, got2 = _rx_recorder(rx1), _rx_recorder(rx2)
    tx.transmit(make_beacon(AP, "NET", 1))
    sim.run()
    assert len(got1) == 1 and len(got2) == 1
    # Closer receiver sees stronger signal.
    assert got1[0][1] > got2[0][1]


def test_sender_does_not_hear_itself():
    sim = Simulator(seed=1)
    medium = Medium(sim)
    tx = _port(medium, "tx", 0.0)
    got = _rx_recorder(tx)
    tx.transmit(make_beacon(AP, "NET", 1))
    sim.run()
    assert got == []


def test_out_of_range_receiver_silent():
    sim = Simulator(seed=1)
    medium = Medium(sim)
    tx = _port(medium, "tx", 0.0)
    far = _port(medium, "far", 100000.0)
    got = _rx_recorder(far)
    tx.transmit(make_beacon(AP, "NET", 1))
    sim.run()
    assert got == []


def test_nonoverlapping_channel_deaf():
    sim = Simulator(seed=1)
    medium = Medium(sim)
    tx = _port(medium, "tx", 0.0, channel=1)
    other = _port(medium, "other", 5.0, channel=6)
    got = _rx_recorder(other)
    tx.transmit(make_beacon(AP, "NET", 1))
    sim.run()
    assert got == []


def test_monitor_hears_all_channels():
    sim = Simulator(seed=1)
    medium = Medium(sim)
    tx1 = _port(medium, "tx1", 0.0, channel=1)
    tx6 = _port(medium, "tx6", 1.0, channel=6)
    monitor = _port(medium, "mon", 5.0, channel=1,
                    promiscuous=True, any_channel=True)
    got = _rx_recorder(monitor)
    tx1.transmit(make_beacon(AP, "A", 1))
    tx6.transmit(make_beacon(AP, "B", 6))
    sim.run()
    assert len(got) == 2
    assert {ch for _, _, ch in got} == {1, 6}


def test_adjacent_channel_attenuated_but_audible_nearby():
    sim = Simulator(seed=1)
    medium = Medium(sim)
    tx = _port(medium, "tx", 0.0, channel=1)
    co = _port(medium, "co", 5.0, channel=1)
    adj = _port(medium, "adj", 5.0, channel=2)
    got_co, got_adj = _rx_recorder(co), _rx_recorder(adj)
    tx.transmit(make_beacon(AP, "NET", 1))
    sim.run()
    assert got_co and got_adj
    assert got_co[0][1] > got_adj[0][1]  # rejection applied


def test_carrier_sense_serializes_same_channel():
    """Two immediate transmissions defer instead of colliding."""
    sim = Simulator(seed=1)
    medium = Medium(sim)
    a = _port(medium, "a", 0.0)
    b = _port(medium, "b", 1.0)
    rx = _port(medium, "rx", 2.0)
    got = _rx_recorder(rx)
    a.transmit(make_beacon(AP, "A", 1))
    b.transmit(make_beacon(AP, "B", 1))
    sim.run()
    assert len(got) == 2
    assert rx.rx_dropped_collision == 0


def test_no_carrier_sense_collides():
    sim = Simulator(seed=1)
    medium = Medium(sim)
    a = _port(medium, "a", 0.0)
    b = _port(medium, "b", 1.0)
    rx = _port(medium, "rx", 2.0)
    got = _rx_recorder(rx)
    medium.transmit(a, make_beacon(AP, "A", 1), 11e6, carrier_sense=False)
    medium.transmit(b, make_beacon(AP, "B", 1), 11e6, carrier_sense=False)
    sim.run()
    assert rx.rx_dropped_collision == 2
    assert got == []


def test_extra_loss_drops_frames():
    sim = Simulator(seed=1)
    medium = Medium(sim, loss_model=FrameLossModel(extra_loss=0.5))
    tx = _port(medium, "tx", 0.0)
    rx = _port(medium, "rx", 5.0)
    got = _rx_recorder(rx)
    for _ in range(200):
        tx.transmit(make_beacon(AP, "NET", 1))
    sim.run()
    assert 60 < len(got) < 140  # ~50% delivery
    assert rx.rx_dropped_loss == 200 - len(got)


def test_detached_port_cannot_transmit():
    port = RadioPort(name="lost", position=Position(0, 0), channel=1)
    with pytest.raises(ConfigurationError):
        port.transmit(make_beacon(AP, "NET", 1))


def test_double_attach_rejected():
    sim = Simulator(seed=1)
    medium = Medium(sim)
    port = _port(medium, "p", 0.0)
    with pytest.raises(ConfigurationError):
        medium.attach(port)


def test_disabled_port_neither_sends_nor_receives():
    sim = Simulator(seed=1)
    medium = Medium(sim)
    tx = _port(medium, "tx", 0.0)
    rx = _port(medium, "rx", 5.0)
    got = _rx_recorder(rx)
    rx.enabled = False
    tx.transmit(make_beacon(AP, "NET", 1))
    sim.run()
    assert got == []


def test_back_to_back_beacons_all_reach_every_receiver():
    """500 immediate transmissions defer, none collides: each of the 10
    receivers hears every one."""
    sim = Simulator(seed=2)
    medium = Medium(sim)
    tx = _port(medium, "tx", 0.0)
    received = []
    for i in range(10):
        _port(medium, f"rx{i}", 5.0 + i).on_receive = \
            lambda frame, rssi, ch: received.append(1)
    beacon = make_beacon(AP, "NET", 1)
    for _ in range(500):
        tx.transmit(beacon)
    sim.run()
    assert len(received) == 5000


def test_10k_station_world_fans_every_beacon_out_to_the_stations_in_range():
    """A 10,000-station field around one AP, 50 beacons, 20 stations
    walking toward the AP: the few hundred in hearing range receive
    every beacon while the walkers keep invalidating the cached plan."""
    import math

    sim = Simulator(seed=11)
    medium = Medium(sim)
    ap = _port(medium, "ap", 0.0, channel=6)
    heard = []
    rng = sim.rng.substream("stadium.layout")
    ports = []
    for i in range(10_000):
        port = RadioPort(f"sta{i}", Position(rng.uniform(-1000.0, 1000.0),
                                             rng.uniform(-1000.0, 1000.0)), 6)
        port.on_receive = lambda frame, rssi, ch: heard.append(1)
        medium.attach(port)
        ports.append(port)

    def walk():  # 1.5 m every 50 ms toward the AP, stopping there
        for port in ports[:20]:
            pos = port.position
            remaining = math.hypot(pos.x, pos.y)
            if remaining > 0.0:
                keep = max(0.0, 1.0 - 1.5 / remaining)
                port.position = Position(pos.x * keep, pos.y * keep)

    sim.every(0.05, walk)
    beacon = make_beacon(MacAddress("aa:bb:cc:dd:00:06"), "STADIUM", 6)
    for k in range(50):
        sim.schedule_at(k * 0.1, ap.transmit, beacon)
    sim.run_for(5.0)
    hearable_radius = 10.0 ** (
        (ap.tx_power_dbm - medium.loss_model.hearing_floor_dbm
         - medium.path_loss.pl_d0_db) / (10.0 * medium.path_loss.exponent))
    in_range = sum(1 for p in ports
                   if math.hypot(p.position.x, p.position.y) <= hearable_radius)
    assert len(ports) == 10_000
    assert in_range >= 100
    assert len(heard) >= in_range * 10
