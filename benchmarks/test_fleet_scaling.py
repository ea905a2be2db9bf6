"""Fleet engine scaling: serial vs parallel campaign throughput.

Engineering telemetry for :mod:`repro.fleet`, not paper reproduction.
One CPU-bound trial (an RC4 keystream grind seeded per-trial) is swept
serially and with 4 workers; the table records trials/second for each
configuration plus the achieved speedup, and the test asserts the
determinism contract (aggregates bit-identical across worker counts).

The >=2x speedup assertion only applies when the machine actually has
>=4 usable cores — on smaller boxes (CI runners, containers pinned to
one CPU) the numbers are recorded but process-level parallelism cannot
beat the hardware, so only the determinism half is enforced.

    pytest benchmarks/test_fleet_scaling.py --benchmark-only -s
"""

import os
import time

from conftest import record_rows, run_once

from repro.crypto.rc4 import rc4_keystream
from repro.fleet import run_campaign

TRIALS = 32
WORKERS = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def cpu_bound_trial(seed: int) -> float:
    """A trial dominated by pure-Python compute, deterministic per seed."""
    key = seed.to_bytes(8, "big") + b"fleet-scaling"
    stream = rc4_keystream(key, 120_000)  # ~tens of ms: dwarfs fork/IPC costs
    return float(sum(stream) % 1009)


def stadium_smoke_trial(seed: int) -> dict:
    """A 10k-station dense world: one AP beaconing over a 2 km square.

    Stations within the ~272 m hearable radius (a few hundred of the
    10,000) receive every beacon; a handful of walkers exercise the
    kernel's per-station move invalidation at full population.  Returns
    deterministic totals so the wall-time bound below is checked
    against a world that verifiably did the work.
    """
    import math

    from repro.dot11.frames import make_beacon
    from repro.dot11.mac import MacAddress
    from repro.radio.medium import Medium, RadioPort
    from repro.radio.propagation import Position
    from repro.sim.kernel import Simulator

    stations = 10_000
    beacons = 50
    sim = Simulator(seed=seed)
    medium = Medium(sim)
    ap = RadioPort("ap", Position(0.0, 0.0), 6)
    medium.attach(ap)
    heard = [0]
    sink = lambda frame, rssi, channel: heard.__setitem__(0, heard[0] + 1)
    rng = sim.rng.substream("stadium.layout")
    ports = []
    for i in range(stations):
        port = RadioPort(f"sta{i}",
                         Position(rng.uniform(-1000.0, 1000.0),
                                  rng.uniform(-1000.0, 1000.0)), 6)
        port.on_receive = sink
        medium.attach(port)
        ports.append(port)
    # Walkers crossing the field toward the AP keep geometry churn in
    # the picture: 1.5 m every 50 ms (30 m/s), stopping at the AP.
    walkers = ports[:20]

    def walk() -> None:
        for port in walkers:
            pos = port.position
            remaining = math.hypot(pos.x, pos.y)
            if remaining > 0.0:
                keep = max(0.0, 1.0 - 1.5 / remaining)
                port.position = Position(pos.x * keep, pos.y * keep)

    sim.every(0.05, walk)
    beacon = make_beacon(MacAddress("aa:bb:cc:dd:00:06"), "STADIUM", 6)
    for k in range(beacons):
        sim.schedule_at(k * 0.1, ap.transmit, beacon)
    sim.run_for(beacons * 0.1)
    hearable_radius = 10.0 ** (
        (ap.tx_power_dbm - medium.loss_model.hearing_floor_dbm
         - medium.path_loss.pl_d0_db) / (10.0 * medium.path_loss.exponent))
    in_range = sum(
        1 for p in ports
        if math.hypot(p.position.x, p.position.y) <= hearable_radius)
    return {"stations": stations, "beacons": beacons,
            "deliveries": heard[0], "in_range_at_end": in_range}


def test_stadium_smoke_10k_stations(benchmark):
    """PR 7's tractability claim: a 10k-station trial fits a smoke bound.

    Before the vectorized kernel each beacon cost 10,000 hypot/log10
    pairs (~50 s of per-pair scalar math for this world); with cached
    rows + delivery plans the whole trial — build, 50 beacons, walker
    churn — must finish in seconds.  The bound is deliberately loose
    (CI containers are slow and shared); the point is the complexity
    class, not the constant.
    """
    # Timed here, not read from ``benchmark.stats``, which is absent
    # under ``--benchmark-disable``.
    t0 = time.perf_counter()
    result = run_once(benchmark, stadium_smoke_trial, 11)
    elapsed = time.perf_counter() - t0
    assert result["stations"] == 10_000
    # the world did real work: hundreds of in-range stations, every
    # beacon fanned out to each of them
    assert result["in_range_at_end"] >= 100
    assert result["deliveries"] >= result["in_range_at_end"] * 10
    record_rows(
        "Stadium smoke: 10k stations, 50 beacons, 20 walkers",
        [{"stations": result["stations"], "beacons": result["beacons"],
          "deliveries": result["deliveries"],
          "in_range_at_end": result["in_range_at_end"],
          "elapsed_s": round(elapsed, 3)}], area="radio")
    assert elapsed < 10.0, (
        f"10k-station smoke trial took {elapsed:.1f}s; the vectorized "
        f"kernel should keep it well under the 10s bound")


def test_fleet_scaling_throughput(benchmark):
    serial = run_campaign(TRIALS, cpu_bound_trial, workers=1)
    parallel = run_once(benchmark, run_campaign, TRIALS, cpu_bound_trial,
                        workers=WORKERS)

    # Determinism is non-negotiable regardless of core count.
    assert serial.failures == [] and parallel.failures == []
    assert serial.stats.values == parallel.stats.values  # bit-for-bit

    speedup = (parallel.throughput / serial.throughput
               if serial.throughput else float("nan"))
    cores = _usable_cores()
    record_rows(
        f"Fleet scaling: {TRIALS} CPU-bound trials ({cores} usable core(s))",
        [
            {"workers": 1, "elapsed_s": round(serial.elapsed_s, 3),
             "trials_per_s": round(serial.throughput, 1), "speedup": 1.0},
            {"workers": WORKERS, "elapsed_s": round(parallel.elapsed_s, 3),
             "trials_per_s": round(parallel.throughput, 1),
             "speedup": round(speedup, 2)},
        ], area="fleet")
    if cores >= WORKERS:
        assert speedup >= 2.0, (
            f"expected >=2x throughput at {WORKERS} workers on {cores} "
            f"cores, measured {speedup:.2f}x")
