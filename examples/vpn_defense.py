#!/usr/bin/env python3
"""The paper's §5 solution: VPN all traffic to a trusted wired endpoint.

Same rogue, same netsed rules as examples/rogue_ap_mitm.py — but the
victim tunnels everything through PPP-over-SSH to a pre-arranged
endpoint.  The attack sees only ciphertext on port 22.  The run ends
with the registered FIG3 experiment: the bare and the VPN'd client
side by side behind the same rogue.

Run:  python examples/vpn_defense.py
"""

from repro.core.registry import get_experiment, render_result
from repro.core.scenario import build_corp_scenario


def main() -> None:
    scenario = build_corp_scenario(seed=2)
    scenario.arm_download_mitm()
    sim = scenario.sim

    victim = scenario.add_victim()
    sim.run_for(5.0)
    print(f"victim captured by the rogue (channel {victim.associated_channel})")

    print("\n== connecting the VPN (credentials pre-established out of band) ==")
    vpn = scenario.connect_vpn(victim)
    sim.run_for(5.0)
    print(f"  tunnel up: {vpn.connected}  inner ip: {vpn.tun.ip}")
    print("  victim routing table now:")
    for line in str(victim.routing).splitlines():
        print(f"    {line}")

    print("\n== the same download, through the same rogue ==")
    outcome = scenario.run_download_experiment(victim, settle_s=90.0)
    print(f"  link followed    : {outcome.link}")
    print(f"  integrity check  : {'passed' if outcome.md5_ok else 'FAILED'}")
    print(f"  trojaned         : {outcome.trojaned}")
    print(f"  compromised      : {outcome.compromised}")
    print(f"  netsed saw       : {scenario.rogue.netsed.connections_proxied} "
          f"port-80 flows (everything rode port 22, encrypted)")
    print(f"  packets tunnelled: {vpn.packets_tunnelled}")

    print("\n== FIG3: the bare and the VPN'd client behind the same rogue ==")
    print(render_result(get_experiment("FIG3").runner(seed=2)))


if __name__ == "__main__":
    main()
