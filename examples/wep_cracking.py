#!/usr/bin/env python3
"""Airsnort in action: passive WEP key recovery from monitor-mode capture.

A victim station chats over the WEP-protected CORP WLAN; a sniffer in
the parking lot collects frames; the FMS attack recovers the root key
from the weak-IV subset; the recovered key then decrypts the victim's
traffic — §2.1's "provides no protection" and §4's "retrieved the WEP
key via Airsnort" in one script.

(Time compression: the victim's IV counter is steered through the
weak-IV classes so the demo collects in seconds what a real sequential
card spreads over ~10M frames; ``python -m repro run E-FMS`` quantifies
that economics honestly.)

Run:  python examples/wep_cracking.py
"""

from repro.attacks.airsnort import AirsnortAttack
from repro.attacks.sniffer import MonitorSniffer
from repro.core.scenario import build_corp_scenario
from repro.radio.propagation import Position
from repro.workloads.traffic import WeakIvSweep, WepTrafficPump


def main() -> None:
    scenario = build_corp_scenario(seed=5, with_rogue=False)
    sim = scenario.sim
    print(f"CORP runs {scenario.wep.bits}-bit WEP; the key is not ours to know.")

    sniffer = MonitorSniffer(sim, scenario.medium, Position(25.0, 10.0))
    victim = scenario.add_victim()
    sim.run_for(5.0)
    victim.wlan.iv_gen = WeakIvSweep()
    pump = WepTrafficPump(victim, "10.0.0.1", rate_pps=400.0)
    pump.start()

    attack = AirsnortAttack(sniffer)
    cracked = None
    while cracked is None:
        sim.run_for(20.0)
        fed = attack.ingest()
        cracked = attack.crack()
        print(f"  t={sim.now:6.1f}s  captured {len(sniffer.capture):6d} frames, "
              f"{attack.weak_iv_count:5d} weak IVs -> "
              f"{'KEY RECOVERED' if cracked else 'not yet'}")
    pump.stop()

    print(f"\nrecovered key: {cracked.key!r} "
          f"(truth: {scenario.wep.key!r}, match: {cracked.key == scenario.wep.key})")

    payloads = list(sniffer.decrypted_payloads(cracked))
    print(f"decrypting the capture with it: {len(payloads)} frames readable")
    sample = next(p for _, _, p in payloads if b"background traffic" in p)
    print(f"sample plaintext from the air: ...{sample[-30:]!r}")


if __name__ == "__main__":
    main()
