"""Workload generators: traffic sources and roaming behaviour."""

from repro.workloads.roaming import RoamingOutcome, simulate_roaming_client
from repro.workloads.traffic import BulkTcpTransfer, CbrUdpStream, WepTrafficPump

__all__ = [
    "BulkTcpTransfer",
    "CbrUdpStream",
    "RoamingOutcome",
    "WepTrafficPump",
    "simulate_roaming_client",
]
