"""Workload generators: traffic sources and roaming behaviour."""

from repro.workloads.roaming import RoamingOutcome, simulate_roaming_client
from repro.workloads.traffic import CbrUdpStream, WeakIvSweep, WepTrafficPump

__all__ = [
    "CbrUdpStream",
    "RoamingOutcome",
    "WeakIvSweep",
    "WepTrafficPump",
    "simulate_roaming_client",
]
