"""The FlowRule subsystem.

Tracks every rule the control plane believes is installed, attributed to the
application that requested it — the paper's Athena prototype leverages
exactly this subsystem to extract per-application flow information for the
NAE scenario.  Installation goes through a send function supplied by the
cluster so rules always reach a switch via its master instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.openflow.actions import Action
from repro.openflow.constants import FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, OpenFlowMessage
from repro.types import Dpid

SendFn = Callable[[Dpid, OpenFlowMessage], None]


@dataclass
class FlowRuleRecord:
    """Control-plane record of an installed rule."""

    dpid: Dpid
    match: Match
    priority: int
    actions: List[Action]
    app_id: str
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    installed_at: float = 0.0
    cookie: int = 0


class FlowRuleService:
    """Cluster-wide rule bookkeeping with per-application attribution."""

    def __init__(self, send: SendFn) -> None:
        self._send = send
        self._rules: Dict[Dpid, List[FlowRuleRecord]] = {}
        self._cookie_counter = 1
        self.installed_count = 0
        self.removed_count = 0

    def install(
        self,
        dpid: Dpid,
        match: Match,
        actions: List[Action],
        priority: int = 10,
        app_id: str = "default",
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        now: float = 0.0,
        buffer_id: int = -1,
    ) -> FlowRuleRecord:
        """Install a rule on ``dpid`` and record it."""
        cookie = self._cookie_counter
        self._cookie_counter += 1
        record = FlowRuleRecord(
            dpid=dpid,
            match=match,
            priority=priority,
            actions=list(actions),
            app_id=app_id,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            installed_at=now,
            cookie=cookie,
        )
        self._rules.setdefault(dpid, []).append(record)
        self.installed_count += 1
        self._send(
            dpid,
            FlowMod(
                command=FlowModCommand.ADD,
                match=match,
                priority=priority,
                actions=list(actions),
                idle_timeout=idle_timeout,
                hard_timeout=hard_timeout,
                cookie=cookie,
                app_id=app_id,
                buffer_id=buffer_id,
            ),
        )
        return record

    def remove(
        self,
        dpid: Dpid,
        match: Match,
        priority: Optional[int] = None,
        app_id: Optional[str] = None,
    ) -> int:
        """Remove matching rules from the switch and the bookkeeping."""
        kept: List[FlowRuleRecord] = []
        removed = 0
        for record in self._rules.get(dpid, []):
            hit = record.match == match and (
                priority is None or record.priority == priority
            )
            if hit and app_id is not None:
                hit = record.app_id == app_id
            if hit:
                removed += 1
            else:
                kept.append(record)
        self._rules[dpid] = kept
        self.removed_count += removed
        if removed:
            self._send(
                dpid,
                FlowMod(
                    command=FlowModCommand.DELETE_STRICT
                    if priority is not None
                    else FlowModCommand.DELETE,
                    match=match,
                    priority=priority or 0,
                ),
            )
        return removed

    def remove_by_app(self, app_id: str) -> int:
        """Withdraw every rule an application installed (app shutdown)."""
        removed = 0
        for dpid in list(self._rules):
            for record in [r for r in self._rules[dpid] if r.app_id == app_id]:
                removed += self.remove(
                    dpid, record.match, record.priority, app_id=app_id
                )
        return removed

    def on_flow_removed(self, dpid: Dpid, match: Match, priority: int) -> None:
        """Sync bookkeeping when the data plane reports an eviction."""
        # Runs per FLOW_REMOVED over every rule of the switch, so it
        # compares the matches' cached value tuples: Match's dataclass
        # ``==`` builds both field tuples on every call.
        key = match.key_tuple()
        rules = self._rules.get(dpid, [])
        self._rules[dpid] = [
            r for r in rules if not (r.priority == priority and r.match.key_tuple() == key)
        ]

    def rules_of(self, dpid: Dpid, app_id: Optional[str] = None) -> List[FlowRuleRecord]:
        rules = list(self._rules.get(dpid, []))
        if app_id is not None:
            rules = [r for r in rules if r.app_id == app_id]
        return rules

    def app_of_flow(self, dpid: Dpid, match: Match) -> Optional[str]:
        """Attribute a data-plane flow to the app that installed it.

        Exact match first; otherwise the most specific covering rule wins —
        mirroring how Athena extracts application information per flow.
        """
        best: Optional[FlowRuleRecord] = None
        for record in self._rules.get(dpid, []):
            if record.match == match:
                return record.app_id
            if match.is_subset_of(record.match):
                if best is None or record.match.specificity() > best.match.specificity():
                    best = record
        return best.app_id if best else None

    def total_rules(self) -> int:
        return sum(len(rules) for rules in self._rules.values())
