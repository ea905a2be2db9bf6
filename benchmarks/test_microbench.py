"""Microbenchmarks for the hot primitives.

Not paper reproduction — engineering telemetry, following the HPC
guides' measure-first discipline: these are the inner loops every
experiment above spends its time in, so regressions here show up as
wall-clock regressions everywhere.  Run with real repetition (unlike
the single-shot experiment benches):

    pytest benchmarks/test_microbench.py --benchmark-only
"""

import pytest

from conftest import record_fields

from repro.crypto.fms import FmsAttack, weak_iv_for
from repro.crypto.rc4 import RC4, rc4_keystream
from repro.crypto.wep import WepKey, wep_decrypt, wep_encrypt
from repro.dot11.frames import Dot11Frame, make_beacon, make_data
from repro.dot11.mac import MacAddress
from repro.sim.kernel import Simulator

BLOB_4K = bytes(range(256)) * 16
AP = MacAddress("aa:bb:cc:dd:00:01")
STA = MacAddress("00:02:2d:00:00:07")


def test_rc4_throughput_4k(benchmark):
    benchmark(lambda: RC4(b"benchmark-key").crypt(BLOB_4K))


def test_wep_encrypt_decrypt_frame(benchmark):
    key = WepKey.from_passphrase("SECRET")
    payload = b"\xaa" * 256

    def roundtrip():
        wep_decrypt(key, wep_encrypt(key, b"\x01\x02\x03", payload))

    benchmark(roundtrip)


def test_fms_vote_accumulation(benchmark):
    key = WepKey.from_passphrase("SECRET")
    samples = [(weak_iv_for(0, x), rc4_keystream(key.per_packet_key(weak_iv_for(0, x)), 1)[0])
               for x in range(256)]

    def votes():
        attack = FmsAttack(key_length=5)
        attack.extend(samples)
        return attack.votes_for_byte(0, b"")

    benchmark(votes)


def test_frame_serialize_parse(benchmark):
    frame = make_data(STA, AP, AP, b"x" * 200, to_ds=True, seq=100)

    def roundtrip():
        Dot11Frame.from_bytes(frame.to_bytes())

    benchmark(roundtrip)


def test_event_kernel_dispatch_rate(benchmark):
    """Events/second through the simulator core (10k-event batch)."""

    def run_batch():
        sim = Simulator(seed=1)
        sink = []
        for i in range(10_000):
            sim.schedule(i * 1e-6, sink.append, i)
        sim.run()
        return len(sink)

    assert benchmark(run_batch) == 10_000
    record_fields("micro", "event_kernel_dispatch", events=10_000)


def test_radio_medium_delivery_rate(benchmark):
    """Beacon fan-out to 10 receivers, 500 transmissions per round."""
    from repro.radio.medium import Medium, RadioPort
    from repro.radio.propagation import Position

    def run_round():
        sim = Simulator(seed=2)
        medium = Medium(sim)
        tx = RadioPort("tx", Position(0, 0), 1)
        medium.attach(tx)
        received = []
        for i in range(10):
            rx = RadioPort(f"rx{i}", Position(5 + i, 0), 1)
            rx.on_receive = lambda f, r, c: received.append(1)
            medium.attach(rx)
        beacon = make_beacon(AP, "NET", 1)
        for _ in range(500):
            tx.transmit(beacon)
        sim.run()
        return len(received)

    assert benchmark(run_round) == 5000
    record_fields("micro", "radio_medium_delivery", receivers=10,
                  transmissions=500, deliveries=5000)
