"""Property tests for the radio kernel's plan cache.

The cache's contract: after *any* interleaving of moves, attaches,
detaches and transmissions, every frame a transmission delivers carries
exactly the RSSI a fresh ``LogDistancePathLoss`` computation gives for
the geometry of that moment — invalidation never serves a stale plan,
and caching never changes a single bit.  Plus the regression for the
silent stale-position hazard: a plain ``port.position = ...`` assignment
must behave exactly like ``move_to()`` (invalidate, and be visible on
the very next transmission).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dot11.frames import make_beacon
from repro.dot11.mac import MacAddress
from repro.radio.medium import Medium, RadioPort
from repro.radio.propagation import Position
from repro.sim.kernel import Simulator
from tests.radio.scalar_oracle import ScalarKernel

AP = MacAddress("aa:bb:cc:dd:00:01")

_coord = st.floats(min_value=-60.0, max_value=60.0,
                   allow_nan=False, allow_infinity=False, width=64)

_op = st.fixed_dictionaries({
    "kind": st.sampled_from(["move", "move_raw", "detach", "attach",
                             "transmit"]),
    "i": st.integers(min_value=0, max_value=7),
    "x": _coord,
    "y": _coord,
})


def _fresh_rssi(medium: Medium, tx: RadioPort, rx: RadioPort) -> float:
    """The uncached reference: recompute path loss from scratch."""
    distance = tx.position.distance_to(rx.position)
    return tx.tx_power_dbm - medium.path_loss.path_loss_db(distance)


def _listen(ports) -> list:
    """Record every delivery as ``(receiver, rssi)``."""
    heard = []
    for rx in ports:
        rx.on_receive = (lambda frame, rssi, ch, rx=rx:
                         heard.append((rx, rssi)))
    return heard


def _delivered(medium: Medium, tx: RadioPort, heard: list) -> dict:
    """Transmit one beacon from ``tx`` and run it out: the RSSI each
    receiver that heard it was handed, by receiver."""
    heard.clear()
    tx.transmit(make_beacon(AP, "CACHE", 1))
    medium.sim.run()
    got = dict(heard)
    assert len(got) == len(heard)  # one delivery per receiver
    return got


def _check_transmission(medium: Medium, tx: RadioPort, heard: list) -> int:
    """Every delivered RSSI equals a from-scratch computation; every
    receiver sure to hear (success probability 1, no RNG draw) heard.
    Returns the number of deliveries."""
    got = _delivered(medium, tx, heard)
    for rx, rssi in got.items():
        assert rx is not tx and rx in medium.ports
        assert rssi == _fresh_rssi(medium, tx, rx)
    for rx in medium.ports:
        if rx is not tx and medium.loss_model.success_probability(
                _fresh_rssi(medium, tx, rx)) >= 1.0:
            assert rx in got
    return len(got)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    positions=st.lists(st.tuples(_coord, _coord), min_size=2, max_size=6),
    ops=st.lists(_op, min_size=0, max_size=20),
)
def test_cached_rssi_equals_fresh_computation_after_any_interleaving(
        positions, ops):
    sim = Simulator(seed=7)
    medium = Medium(sim)
    ports = [RadioPort(f"p{i}", Position(x, y), 1)
             for i, (x, y) in enumerate(positions)]
    for p in ports:
        medium.attach(p)
    heard = _listen(ports)
    for op in ops:
        port = ports[op["i"] % len(ports)]
        kind = op["kind"]
        if kind == "move":
            port.move_to(Position(op["x"], op["y"]))
        elif kind == "move_raw":
            port.position = Position(op["x"], op["y"])
        elif kind == "detach" and port._medium is not None:
            medium.detach(port)
        elif kind == "attach" and port._medium is None:
            medium.attach(port)
        elif kind == "transmit" and port._medium is not None:
            _check_transmission(medium, port, heard)
    # After the dust settles every attached port's transmission — from
    # a cached plan or a fresh one — delivers the fresh RSSI, exactly.
    for tx in list(medium.ports):
        _check_transmission(medium, tx, heard)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(ax=_coord, ay=_coord, bx=_coord, by=_coord,
       power=st.floats(min_value=1.0, max_value=30.0, allow_nan=False))
def test_rssi_is_symmetric_for_equal_powers(ax, ay, bx, by, power):
    """``math.hypot`` of negated deltas is bit-identical, so with equal
    tx powers the delivered RSSI must be *exactly* symmetric."""
    sim = Simulator(seed=7)
    medium = Medium(sim)
    a = RadioPort("a", Position(ax, ay), 1, tx_power_dbm=power)
    b = RadioPort("b", Position(bx, by), 1, tx_power_dbm=power)
    medium.attach(a)
    medium.attach(b)
    heard = _listen([a, b])
    a_to_b = _delivered(medium, a, heard).get(b)
    b_to_a = _delivered(medium, b, heard).get(a)
    for rssi in (a_to_b, b_to_a):
        assert rssi is None or rssi == _fresh_rssi(medium, a, b)
    if a_to_b is not None and b_to_a is not None:
        assert a_to_b == b_to_a


def test_sub_decimetre_distances_clamp_to_point_one_metre():
    """Coincident and near-coincident ports hit the 0.1 m clamp — the
    plan must reproduce it, not divide by a tiny distance."""
    sim = Simulator(seed=7)
    medium = Medium(sim)
    a = RadioPort("a", Position(0.0, 0.0), 1)
    coincident = RadioPort("b", Position(0.0, 0.0), 1)
    near = RadioPort("c", Position(0.05, 0.0), 1)
    for p in (a, coincident, near):
        medium.attach(p)
    heard = _listen([coincident, near])
    clamped = a.tx_power_dbm - medium.path_loss.path_loss_db(0.1)
    assert _delivered(medium, a, heard) == {coincident: clamped,
                                            near: clamped}


class _Recorder:
    def __init__(self, port):
        self.rssi = []
        port.on_receive = lambda frame, rssi, ch: self.rssi.append(rssi)


def test_direct_position_write_is_visible_on_next_transmission():
    """The stale-position hazard, closed: a plain assignment routes
    through move_to(), so the very next transmission uses the new
    geometry — no warm-up transmission, no manual invalidation."""
    sim = Simulator(seed=7)
    medium = Medium(sim)
    tx = RadioPort("tx", Position(0.0, 0.0), 1)
    rx = RadioPort("rx", Position(10.0, 0.0), 1)
    medium.attach(tx)
    medium.attach(rx)
    got = _Recorder(rx)
    beacon = make_beacon(AP, "NET", 1)

    tx.transmit(beacon)
    sim.run()
    tx.position = Position(40.0, 0.0)          # plain write, not move_to()
    tx.transmit(beacon)
    sim.run()

    assert len(got.rssi) == 2
    expected_near = tx.tx_power_dbm - medium.path_loss.path_loss_db(10.0)
    expected_far = tx.tx_power_dbm - medium.path_loss.path_loss_db(30.0)
    assert got.rssi[0] == expected_near
    assert got.rssi[1] == expected_far
    assert got.rssi[1] < got.rssi[0]


def test_receiver_move_invalidates_delivery_plans_too():
    """Plans cache per-receiver RSSI; a *receiver* moving must
    invalidate the transmitter's plan, not just the mover's own."""
    sim = Simulator(seed=7)
    medium = Medium(sim)
    tx = RadioPort("tx", Position(0.0, 0.0), 1)
    rx = RadioPort("rx", Position(5.0, 0.0), 1)
    medium.attach(tx)
    medium.attach(rx)
    got = _Recorder(rx)
    beacon = make_beacon(AP, "NET", 1)
    tx.transmit(beacon)
    sim.run()
    rx.position = Position(25.0, 0.0)
    tx.transmit(beacon)
    sim.run()
    assert got.rssi[0] == tx.tx_power_dbm - medium.path_loss.path_loss_db(5.0)
    assert got.rssi[1] == tx.tx_power_dbm - medium.path_loss.path_loss_db(25.0)


def test_detach_mid_flight_leaves_no_stale_row():
    """A transmitter that detaches while its frame is still in the air
    gets a plan that is served but never cached: a plan keyed by a
    detached port's id could be inherited by whatever object recycles
    the address."""
    sim = Simulator(seed=7)
    medium = Medium(sim)
    tx = RadioPort("tx", Position(0.0, 0.0), 1, tx_power_dbm=5.0)
    rx = RadioPort("rx", Position(0.0, 0.0), 1, tx_power_dbm=5.0)
    heard = _Recorder(rx)
    medium.attach(tx)
    medium.attach(rx)
    beacon = make_beacon(AP, "CACHE", 1)
    sim.schedule_at(0.001, lambda: tx.transmit(beacon))
    sim.schedule_at(0.001 + 1e-5, lambda: medium.detach(tx))  # mid-flight
    sim.schedule_at(0.01, lambda: rx.move_to(Position(1.0, 2.0)))
    sim.run()
    assert heard.rssi  # the in-flight frame still delivered
    assert id(tx) not in medium.kernel._plans


def test_detach_mid_flight_delivery_matches_scalar_kernel():
    """The uncached fan-out for a detached transmitter is bit-identical
    to the per-pair scalar oracle."""
    def run(kernel):
        sim = Simulator(seed=11)
        medium = Medium(sim)
        if kernel == "scalar":
            medium._kernel = ScalarKernel(medium)
        tx = RadioPort("tx", Position(0.0, 0.0), 1, tx_power_dbm=5.0)
        rx = RadioPort("rx", Position(4.0, 3.0), 1, tx_power_dbm=5.0)
        heard = _Recorder(rx)
        medium.attach(tx)
        medium.attach(rx)
        beacon = make_beacon(AP, "CACHE", 1)
        sim.schedule_at(0.001, lambda: tx.transmit(beacon))
        sim.schedule_at(0.001 + 1e-5, lambda: medium.detach(tx))
        sim.run()
        return heard.rssi
    assert run("vector") == run("scalar")


def test_retune_mid_flight_delivers_on_the_channel_it_was_sent_on():
    """A transmitter that retunes while its frame is in the air: the
    frame stays on the channel it went out on, as in the scalar oracle,
    so the plan is matched against the frame's channel, not the
    transmitter's current one."""
    def run(kernel):
        sim = Simulator(seed=11)
        medium = Medium(sim)
        if kernel == "scalar":
            medium._kernel = ScalarKernel(medium)
        tx = RadioPort("tx", Position(0.0, 0.0), 1)
        rx = RadioPort("rx", Position(3.0, 0.0), 1)
        heard = _Recorder(rx)
        medium.attach(tx)
        medium.attach(rx)
        beacon = make_beacon(AP, "CACHE", 1)
        sim.schedule_at(0.001, lambda: tx.transmit(beacon))
        sim.schedule_at(0.001 + 1e-5, lambda: setattr(tx, "channel", 11))
        sim.run()
        return heard.rssi
    vector = run("vector")
    assert len(vector) == 1
    assert vector == run("scalar")
