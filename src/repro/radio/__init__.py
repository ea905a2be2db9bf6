"""Radio-layer substrate: the broadcast medium the paper's risks flow from.

"The difference begins at the Data Link Layer and the inherent
broadcast nature of the wireless physical layer, which doesn't benefit
from the restricted physical access of traditional wired networks"
(§3).  This package models exactly that difference: every transmission
is delivered to every radio in range on an overlapping channel, with
RSSI from a log-distance path-loss model, optional frame loss and
collisions.  One propagation kernel,
:class:`VectorKernel`, resolves every transmission from a per-
transmitter delivery plan that any PHY change drops.
"""

from repro.radio.kernel import VectorKernel
from repro.radio.medium import Medium, RadioPort
from repro.radio.propagation import FrameLossModel, LogDistancePathLoss, Position

__all__ = [
    "FrameLossModel",
    "LogDistancePathLoss",
    "Medium",
    "Position",
    "RadioPort",
    "VectorKernel",
]
