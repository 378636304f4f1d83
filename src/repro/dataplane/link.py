"""Links between attachment points.

A link connects two endpoints (switch ports or hosts), has a propagation
latency and a capacity, and tracks how many bytes it carried inside the
current accounting window so utilisation features and the NAE/LFA scenarios
can observe congestion.  Delivery is scheduled on the simulator with the
link latency; packets beyond capacity within a window are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.types import ConnectPoint


@dataclass
class LinkEndpoint:
    """One side of a link: either a switch connect-point or a host name."""

    switch_point: Optional[ConnectPoint] = None
    host_name: Optional[str] = None

    @property
    def is_host(self) -> bool:
        return self.host_name is not None

    def __str__(self) -> str:
        return self.host_name if self.is_host else str(self.switch_point)


class Link:
    """A bidirectional link with latency, capacity and utilisation tracking."""

    def __init__(
        self,
        a: LinkEndpoint,
        b: LinkEndpoint,
        latency: float = 0.001,
        capacity_bps: float = 1e9,
        window: float = 1.0,
    ) -> None:
        self.a = a
        self.b = b
        self.latency = latency
        self.capacity_bps = capacity_bps
        self.window = window
        self.up = True
        # Per-direction byte accounting for the current window; direction
        # 0 is a→b traffic, 1 is b→a.
        self._window_start = 0.0
        self._window_bytes = {0: 0, 1: 0}
        self.total_bytes = {0: 0, 1: 0}
        self.total_packets = {0: 0, 1: 0}
        self.dropped_packets = {0: 0, 1: 0}

    def endpoints(self) -> Tuple[LinkEndpoint, LinkEndpoint]:
        return (self.a, self.b)

    def _roll_window(self, now: float) -> None:
        if now - self._window_start >= self.window:
            self._window_start = now - ((now - self._window_start) % self.window)
            self._window_bytes = {0: 0, 1: 0}

    def try_send(self, direction: int, size: int, now: float) -> bool:
        """Account a packet; returns False (drop) if the window is saturated."""
        if not self.up:
            self.dropped_packets[direction] += 1
            return False
        self._roll_window(now)
        budget = self.capacity_bps * self.window / 8.0
        if self._window_bytes[direction] + size > budget:
            self.dropped_packets[direction] += 1
            return False
        self._window_bytes[direction] += size
        self.total_bytes[direction] += size
        self.total_packets[direction] += 1
        return True

    def utilization(self, direction: int, now: float) -> float:
        """Fraction of capacity used in the current window (0..1)."""
        self._roll_window(now)
        budget = self.capacity_bps * self.window / 8.0
        if budget <= 0:
            return 0.0
        return min(1.0, self._window_bytes[direction] / budget)

    def __str__(self) -> str:
        return f"Link({self.a} <-> {self.b}, {self.capacity_bps / 1e6:.0f}Mbps)"
