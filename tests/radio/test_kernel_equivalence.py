"""Differential harness: the vectorized kernel is *bit-identical* to
the per-pair scalar oracle.

Every hypothesis-generated world — random positions, channels, tx
powers, frame loss, collisions from carrier-sense-off injectors, moves
mid-run (through ``move_to`` and plain ``port.position =``), attach/
detach, retuning, ``enabled`` toggles, ``tx_power_dbm`` writes and
``loss_model.extra_loss`` writes mid-run — is executed twice with the
same seed, once with the medium's kernel swapped for
:class:`~tests.radio.scalar_oracle.ScalarKernel` and once under the
kernel ``Medium`` builds.  The runs must agree on:

* the full delivery sequence, **including exact RSSI floats** (a 1-ULP
  drift would fail — this is why the kernel builds its plans with the
  oracle's scalar ``math`` calls in the oracle's op order);
* every per-port counter (tx/rx/drop-by-loss/drop-by-collision);
* the final RNG stream positions of both the medium substream and the
  root simulator stream — equal results with a diverged stream would
  still be a caching bug waiting to perturb the next subsystem;
* the ``radio.*`` metrics snapshot (minus the kernel's own
  ``radio.kernel.*`` cache telemetry, which intentionally differs).

Each mid-run write takes a different path to a fresh plan: a notifying
``RadioPort`` setter (moves, ``channel``, ``enabled``), the plan's own
power check (``tx_power_dbm``) or the per-fan-out parameter snapshot
(``extra_loss``, which E-VPNOH sets after its world is built).

CI runs this file as a dedicated step with a
fixed profile (``derandomize=True`` keeps the corpus stable across
runs, so a red build is always reproducible locally).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dot11.frames import make_beacon
from repro.dot11.mac import MacAddress
from repro.obs.runtime import collecting
from repro.radio.medium import Medium, RadioPort
from repro.radio.propagation import FrameLossModel, Position
from repro.sim.kernel import Simulator
from tests.radio.scalar_oracle import ScalarKernel

AP = MacAddress("aa:bb:cc:dd:00:01")

# Deterministic differential profile: 200+ worlds, stable corpus.
DIFF_SETTINGS = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_coord = st.floats(min_value=-40.0, max_value=40.0,
                   allow_nan=False, allow_infinity=False, width=64)

_port_spec = st.fixed_dictionaries({
    "x": _coord,
    "y": _coord,
    "channel": st.integers(min_value=1, max_value=11),
    "power": st.floats(min_value=5.0, max_value=25.0,
                       allow_nan=False, allow_infinity=False),
    "any": st.booleans(),
})

_action = st.fixed_dictionaries({
    "kind": st.sampled_from(
        ["tx", "tx", "tx", "tx_nocs", "move", "move_raw",
         "detach", "attach", "channel", "enabled", "power",
         "extra_loss"]),
    "i": st.integers(min_value=0, max_value=7),
    "dt": st.floats(min_value=1e-5, max_value=2e-3,
                    allow_nan=False, allow_infinity=False),
    "x": _coord,
    "y": _coord,
    "channel": st.integers(min_value=1, max_value=11),
    "power": st.floats(min_value=5.0, max_value=25.0,
                       allow_nan=False, allow_infinity=False),
    "extra_loss": st.sampled_from([0.0, 0.2, 0.5]),
})

_world = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
    "extra_loss": st.sampled_from([0.0, 0.0, 0.2]),
    "ports": st.lists(_port_spec, min_size=2, max_size=6),
    "actions": st.lists(_action, min_size=1, max_size=14),
})

_WRITES = ["move", "move_raw", "detach", "attach", "channel", "enabled",
           "power", "extra_loss"]
# Every attached port transmits, well after the previous action.
_TX_ALL = {"kind": "tx_all", "i": 0, "dt": 0.01}


def _bracket_writes(spec: dict) -> dict:
    """Put a round in which every port transmits before and after each
    write, so every write meets warm plans and its effect is read by
    the next round.  Drawn freely, worlds hold about three actions and
    a write seldom lands between two transmissions of one port."""
    actions = [_TX_ALL]
    for a in spec["actions"]:
        if a["kind"] in _WRITES:
            actions += [a, _TX_ALL]
    return {**spec, "actions": actions}


_bracketed_world = _world.map(_bracket_writes)


def _run_world(kernel: str, spec: dict) -> dict:
    """Execute one drawn world under ``kernel`` ("scalar" swaps in the
    oracle, "vector" keeps the medium's own) and return everything
    observable: delivery log, counters, RNG states, radio metrics."""
    with collecting() as col:
        sim = Simulator(seed=spec["seed"])
        medium = Medium(
            sim, loss_model=FrameLossModel(extra_loss=spec["extra_loss"]))
        if kernel == "scalar":
            medium._kernel = ScalarKernel(medium)
        log: list = []
        ports = []
        for i, p in enumerate(spec["ports"]):
            port = RadioPort(
                f"p{i}", Position(p["x"], p["y"]), p["channel"],
                tx_power_dbm=p["power"], any_channel=p["any"],
            )

            def receiver(frame, rssi, ch, _name=port.name):
                log.append((_name, frame.subtype.name, rssi, ch))

            port.on_receive = receiver
            medium.attach(port)
            ports.append(port)
        beacon = make_beacon(AP, "DIFF", 1)

        def act(a: dict) -> None:
            port = ports[a["i"] % len(ports)]
            kind = a["kind"]
            if kind == "tx":
                if port._medium is not None:
                    port.transmit(beacon)
            elif kind == "tx_all":
                for p in ports:
                    if p._medium is not None:
                        p.transmit(beacon)
            elif kind == "tx_nocs":
                # Carrier-sense-off injector: transmits immediately,
                # provoking time-overlap collisions.
                if port._medium is not None:
                    medium.transmit(port, beacon, 11e6, carrier_sense=False)
            elif kind == "move":
                port.move_to(Position(a["x"], a["y"]))
            elif kind == "move_raw":
                # The stale-position hazard path: plain assignment must
                # behave exactly like move_to().
                port.position = Position(a["x"], a["y"])
            elif kind == "detach":
                if port._medium is not None:
                    medium.detach(port)
            elif kind == "attach":
                if port._medium is None:
                    medium.attach(port)
            elif kind == "channel":
                port.channel = a["channel"]
            elif kind == "enabled":
                port.enabled = not port.enabled
            elif kind == "power":
                port.tx_power_dbm = a["power"]
            elif kind == "extra_loss":
                medium.loss_model.extra_loss = a["extra_loss"]

        t = 0.0
        for a in spec["actions"]:
            t += a["dt"]
            sim.schedule_at(t, act, a)
        sim.run()

        return {
            "log": log,
            "counters": [
                (p.name, p.tx_frames, p.rx_frames,
                 p.rx_dropped_loss, p.rx_dropped_collision)
                for p in ports
            ],
            "medium_rng": medium._rng.getstate(),
            "sim_rng": sim.rng.getstate(),
            "metrics": {
                k: v for k, v in col.snapshot().items()
                if k.startswith("radio.")
                and not k.startswith("radio.kernel.")
            },
        }


def _assert_kernels_agree(spec: dict) -> None:
    scalar = _run_world("scalar", spec)
    vector = _run_world("vector", spec)
    assert vector["log"] == scalar["log"]
    assert vector["counters"] == scalar["counters"]
    assert vector["medium_rng"] == scalar["medium_rng"]
    assert vector["sim_rng"] == scalar["sim_rng"]
    assert vector["metrics"] == scalar["metrics"]


@DIFF_SETTINGS
@given(spec=_world)
def test_vector_kernel_matches_scalar_reference(spec):
    _assert_kernels_agree(spec)


@DIFF_SETTINGS
@given(spec=_bracketed_world)
def test_every_mid_run_write_matches_scalar_reference(spec):
    _assert_kernels_agree(spec)


@DIFF_SETTINGS
@given(spec=_world)
def test_scalar_reference_is_self_deterministic(spec):
    """Anchor for the differential: the reference itself must be a pure
    function of the world spec, or the comparison above proves nothing."""
    assert _run_world("scalar", spec) == _run_world("scalar", spec)
