"""A Linux-flavoured configuration front-end.

Appendix A of the paper is a shell script; §4.1 prints literal
``iptables`` and ``netsed`` commands.  :class:`LinuxBox` lets scenario
code (and the FIG2 experiment) run those *same command strings* against
a simulated host, so a reader can diff our setup against the paper's
line by line::

    box = LinuxBox(gateway_host)
    box.sh("echo 1 > /proc/sys/net/ipv4/ip_forward")
    box.sh("ifconfig wlan0 10.0.0.24 netmask 255.255.255.0")
    box.sh("route add -host 10.0.0.23 dev wlan0")
    box.sh("route add default gw 10.0.0.1")
    box.sh("iptables -t nat -A PREROUTING -p tcp -d 198.51.100.80 "
           "--dport 80 -j DNAT --to 10.0.0.24:10101")
"""

from __future__ import annotations

import shlex
from typing import Optional

from repro.hosts.host import Host
from repro.netstack.addressing import IPv4Address, Network
from repro.netstack.netfilter import (
    Chain,
    Rule,
    TargetAccept,
    TargetDnat,
    TargetDrop,
    TargetRedirect,
    TargetSnat,
)
from repro.sim.errors import ConfigurationError

__all__ = ["LinuxBox"]


class LinuxBox:
    """Command-string configuration wrapper around a :class:`Host`."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.history: list[str] = []

    def sh(self, command: str) -> None:
        """Execute one supported shell-style configuration command."""
        self.history.append(command)
        argv = shlex.split(command)
        if not argv:
            return
        if argv[0] == "echo" and len(argv) >= 4 and argv[2] == ">":
            self._echo(argv[1], argv[3])
        elif argv[0] == "ifconfig":
            self._ifconfig(argv[1:])
        elif argv[0] == "route":
            self._route(argv[1:])
        elif argv[0] == "iptables":
            self._iptables(argv[1:])
        else:
            raise ConfigurationError(f"unsupported command: {command!r}")

    # ------------------------------------------------------------------
    # echo (sysctl via /proc)
    # ------------------------------------------------------------------
    def _echo(self, value: str, path: str) -> None:
        if path == "/proc/sys/net/ipv4/ip_forward":
            self.host.ip_forward = value.strip() == "1"
        else:
            raise ConfigurationError(f"unsupported /proc path {path!r}")

    # ------------------------------------------------------------------
    # ifconfig
    # ------------------------------------------------------------------
    def _ifconfig(self, args: list[str]) -> None:
        if len(args) < 2:
            raise ConfigurationError("ifconfig needs: IFACE IP [netmask MASK]")
        iface_name, ip = args[0], args[1]
        netmask = "255.255.255.0"
        i = 2
        while i < len(args) - 1:
            if args[i] == "netmask":
                netmask = args[i + 1]
            i += 2
        iface = self.host.interfaces.get(iface_name)
        if iface is None:
            raise ConfigurationError(f"no such interface {iface_name!r}")
        iface.configure_ip(ip, netmask)

    # ------------------------------------------------------------------
    # route
    # ------------------------------------------------------------------
    def _route(self, args: list[str]) -> None:
        if not args or args[0] != "add":
            raise ConfigurationError("only 'route add' is supported")
        args = args[1:]
        if args and args[0] == "-host":
            # route add -host IP [gw GW] dev IFACE
            ip = IPv4Address(args[1])
            gateway: Optional[IPv4Address] = None
            iface: Optional[str] = None
            i = 2
            while i < len(args) - 1:
                if args[i] == "gw":
                    gateway = IPv4Address(args[i + 1])
                elif args[i] == "dev":
                    iface = args[i + 1]
                i += 2
            if iface is None:
                raise ConfigurationError("route add -host requires dev IFACE")
            self.host.routing.add_host(ip, iface, gateway)
        elif args and args[0] == "default":
            # route add default gw GW [dev IFACE]
            if len(args) < 3 or args[1] != "gw":
                raise ConfigurationError("route add default gw GW")
            gateway = IPv4Address(args[2])
            iface = None
            if len(args) >= 5 and args[3] == "dev":
                iface = args[4]
            if iface is None:
                route = self.host.routing.lookup(gateway)
                if route is None:
                    raise ConfigurationError(f"gateway {gateway} unreachable; no connected route")
                iface = route.interface
            self.host.routing.add_default(gateway, iface)
        else:
            raise ConfigurationError(f"unsupported route syntax: {' '.join(args)}")

    # ------------------------------------------------------------------
    # iptables
    # ------------------------------------------------------------------
    def _iptables(self, args: list[str]) -> None:
        chain: Optional[Chain] = None
        proto = src = dst = None
        sport = dport = None
        in_iface = out_iface = None
        target = None
        i = 0
        while i < len(args):
            flag = args[i]
            if flag == "-t":
                i += 2  # the table name adds nothing in this model
                continue
            if flag == "-A":
                chain = Chain(args[i + 1])
            elif flag == "-p":
                proto = args[i + 1]
            elif flag == "-s":
                src = self._as_network(args[i + 1])
            elif flag == "-d":
                dst = self._as_network(args[i + 1])
            elif flag == "--sport":
                sport = int(args[i + 1])
            elif flag == "--dport":
                dport = int(args[i + 1])
            elif flag == "-i":
                in_iface = args[i + 1]
            elif flag == "-o":
                out_iface = args[i + 1]
            elif flag == "-j":
                target_name = args[i + 1]
                if target_name == "ACCEPT":
                    target = TargetAccept()
                elif target_name == "DROP":
                    target = TargetDrop()
                elif target_name == "DNAT":
                    # expect --to IP[:PORT] after
                    if i + 3 >= len(args) + 1 or args[i + 2] != "--to":
                        raise ConfigurationError("DNAT requires --to IP[:PORT]")
                    to = args[i + 3]
                    ip_text, _, port_text = to.partition(":")
                    target = TargetDnat(IPv4Address(ip_text),
                                        int(port_text) if port_text else None)
                    i += 2
                elif target_name == "REDIRECT":
                    if args[i + 2] != "--to-port":
                        raise ConfigurationError("REDIRECT requires --to-port PORT")
                    target = TargetRedirect(int(args[i + 3]))
                    i += 2
                elif target_name == "SNAT":
                    if args[i + 2] != "--to":
                        raise ConfigurationError("SNAT requires --to IP")
                    target = TargetSnat(IPv4Address(args[i + 3]))
                    i += 2
                else:
                    raise ConfigurationError(f"unsupported target {target_name!r}")
            i += 2
        if chain is None or target is None:
            raise ConfigurationError("iptables needs -A CHAIN and -j TARGET")
        self.host.netfilter.append(chain, Rule(
            target=target, proto=proto, src=src, dst=dst,
            sport=sport, dport=dport, in_iface=in_iface, out_iface=out_iface,
        ))

    @staticmethod
    def _as_network(text: str) -> Network:
        if "/" in text:
            return Network(text)
        return Network(text, 32)
