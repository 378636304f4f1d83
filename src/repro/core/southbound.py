"""The Athena Southbound element (Figure 3, components 1A-1D).

One :class:`SouthboundElement` attaches to each controller instance:

* :class:`AthenaProxy` (within 1A) — the small controller-side stub through
  which Athena issues flow rules and statistics requests, so the controller
  updates its internal state consistently; statistics requests get their
  XIDs marked so replies are attributed to Athena's polling;
* the SB Interface (1A) — subscribes the instance's message taps and event
  bus and routes everything into the Feature Generator (1B);
* :class:`AttackDetector` (1C) — executes training/validation jobs, on a
  single instance for small datasets or on the compute cluster otherwise;
* :class:`AttackReactor` (1D) — translates Block/Quarantine requests into
  flow rules issued through the proxy.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.chaos.retry import RetryPolicy
from repro.compute import ComputeCluster, PartitionedDataset
from repro.controller.events import FlowRemovedEvent, PacketInEvent, StatsEvent
from repro.controller.instance import ControllerInstance
from repro.core.generator import FeatureGenerator
from repro.errors import ControllerError, ReactionError
from repro.ml.base import Estimator
from repro.openflow.actions import ActionDrop, ActionOutput, ActionSetIpDst
from repro.openflow.match import Match
from repro.openflow.messages import (
    AggregateStatsRequest,
    FlowStatsRequest,
    PortStatsRequest,
    TableStatsRequest,
)
from repro.telemetry import get_telemetry

#: App id attached to every rule Athena itself installs.
ATHENA_APP_ID = "athena"


class AthenaProxy:
    """The controller-side code stub Athena drives the network through."""

    def __init__(self, instance: ControllerInstance, flow_rules) -> None:
        self._instance = instance
        self._flow_rules = flow_rules
        self.rules_issued = 0
        self.stats_requests_issued = 0
        registry = get_telemetry().registry
        self._metric_rules = registry.counter(
            "athena_southbound_rules_issued_total",
            "Flow rules installed through the Athena proxy.",
        )
        self._metric_stats_requests = registry.counter(
            "athena_southbound_stats_requests_total",
            "Athena-marked statistics polling rounds issued.",
        )

    def issue_flow_rule(
        self,
        dpid: int,
        match: Match,
        actions,
        priority: int,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
    ) -> None:
        """Install a rule through the FlowRule subsystem (state-consistent)."""
        self._flow_rules.install(
            dpid,
            match,
            list(actions),
            priority=priority,
            app_id=ATHENA_APP_ID,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            now=self._instance.sim.now,
        )
        self.rules_issued += 1
        self._metric_rules.inc()

    def remove_flow_rule(self, dpid: int, match: Match, priority: int) -> int:
        return self._flow_rules.remove(dpid, match, priority, app_id=ATHENA_APP_ID)

    def issue_stats_requests(
        self, dpid: int, include_switch_scope: bool = True
    ) -> List[int]:
        """Poll one switch with Athena-marked XIDs.

        Flow and port statistics always; aggregate and table statistics
        (the switch-scope feature sources) unless the Resource Manager has
        dialled fidelity down via ``include_switch_scope``.
        """
        requests = [FlowStatsRequest(match=Match()), PortStatsRequest()]
        if include_switch_scope:
            requests.append(AggregateStatsRequest(match=Match()))
            requests.append(TableStatsRequest())
        xids = []
        for request in requests:
            self._instance.mark_athena_xid(request.xid)
            xids.append(request.xid)
            self._instance.send(dpid, request)
        self.stats_requests_issued += 1
        self._metric_stats_requests.inc()
        return xids


class AttackDetector:
    """Job execution: single-instance for small data, distributed otherwise."""

    def __init__(
        self,
        compute: Optional[ComputeCluster] = None,
        distributed_threshold: int = 50_000,
        partitions_per_worker: int = 2,
    ) -> None:
        self.compute = compute
        self.distributed_threshold = distributed_threshold
        self.partitions_per_worker = partitions_per_worker
        self.jobs_local = 0
        self.jobs_distributed = 0
        jobs = get_telemetry().registry.counter(
            "athena_detector_jobs_total",
            "Detection jobs executed, by execution mode.",
            labelnames=("mode",),
        )
        self._metric_jobs_local = jobs.labels(mode="local")
        self._metric_jobs_distributed = jobs.labels(mode="distributed")

    def _should_distribute(self, n_rows: int) -> bool:
        return self.compute is not None and n_rows >= self.distributed_threshold

    def _partitions(self) -> int:
        return max(1, self.compute.n_workers * self.partitions_per_worker)

    def run_training(
        self,
        estimator: Estimator,
        matrix: np.ndarray,
        labels: Optional[np.ndarray],
        algorithm,
    ):
        """Fit ``estimator``; returns a JobReport when run distributed.

        Any estimator exposing ``fit_distributed(compute, dataset)``
        (K-Means, Gaussian naive Bayes) trains on the
        compute cluster once the dataset crosses the distribution
        threshold; everything else fits in-process.
        """
        if self._should_distribute(matrix.shape[0]) and hasattr(
            estimator, "fit_distributed"
        ):
            dataset = PartitionedDataset.from_matrix(
                matrix, self._partitions(), labels=labels
            )
            estimator.fit_distributed(self.compute, dataset)
            self.jobs_distributed += 1
            self._metric_jobs_distributed.inc()
            return estimator.last_job_report
        estimator.fit(matrix, labels)
        self.jobs_local += 1
        self._metric_jobs_local.inc()
        return None

    def run_validation(
        self, estimator: Estimator, matrix: np.ndarray
    ) -> Tuple[np.ndarray, object]:
        """Predict over ``matrix``; distributed when the dataset is large."""
        if not self._should_distribute(matrix.shape[0]):
            self.jobs_local += 1
            self._metric_jobs_local.inc()
            return estimator.predict(matrix), None
        dataset = PartitionedDataset.from_matrix(matrix, self._partitions())
        report = self.compute.run_map(
            dataset,
            map_fn=estimator.predict,
            reduce_fn=lambda partials: np.concatenate(partials),
        )
        self.jobs_distributed += 1
        self._metric_jobs_distributed.inc()
        return report.result, report


class AttackReactor:
    """Mitigation enforcement through the Athena Proxy (1D)."""

    def __init__(self, proxy: AthenaProxy, owned_dpids, mac_resolver=None) -> None:
        self._proxy = proxy
        self._owned_dpids = owned_dpids
        #: Optional ip -> mac lookup so quarantine rewrites L2 and L3
        #: consistently (set by the deployment from the host service).
        self._mac_resolver = mac_resolver
        self.blocks_installed = 0
        self.quarantines_installed = 0
        registry = get_telemetry().registry
        self._metric_blocks = registry.counter(
            "athena_reaction_blocks_total",
            "Block rules installed by the attack reactor.",
        )
        self._metric_quarantines = registry.counter(
            "athena_reaction_quarantines_total",
            "Quarantine rules installed by the attack reactor.",
        )

    def _require_owned(self, dpid: int) -> None:
        if dpid not in self._owned_dpids():
            raise ReactionError(f"switch {dpid} is not managed by this instance")

    def block(self, ip_src: str, dpid: Optional[int] = None, priority: int = 1000) -> int:
        """Drop all traffic from ``ip_src`` (on one switch or all owned)."""
        dpids = [dpid] if dpid is not None else self._owned_dpids()
        for target in dpids:
            self._require_owned(target)
            self._proxy.issue_flow_rule(
                target,
                Match(eth_type=0x0800, ip_src=ip_src),
                [ActionDrop()],
                priority=priority,
            )
            self.blocks_installed += 1
            self._metric_blocks.inc()
        return len(dpids)

    def quarantine(
        self,
        ip_src: str,
        honeypot_ip: str,
        dpid: Optional[int] = None,
        priority: int = 1000,
        honeypot_port: Optional[int] = None,
    ) -> int:
        """Redirect ``ip_src`` traffic to the honeynet destination."""
        dpids = [dpid] if dpid is not None else self._owned_dpids()
        for target in dpids:
            self._require_owned(target)
            actions = [ActionSetIpDst(ip=honeypot_ip)]
            honeypot_mac = (
                self._mac_resolver(honeypot_ip) if self._mac_resolver else None
            )
            if honeypot_mac is not None:
                from repro.openflow.actions import ActionSetEthDst

                actions.append(ActionSetEthDst(mac=honeypot_mac))
            if honeypot_port is not None:
                actions.append(ActionOutput(port=honeypot_port))
            else:
                # Rewritten packets re-enter forwarding via the controller.
                from repro.openflow.actions import ActionController

                actions.append(ActionController())
            self._proxy.issue_flow_rule(
                target,
                Match(eth_type=0x0800, ip_src=ip_src),
                actions,
                priority=priority,
            )
            self.quarantines_installed += 1
            self._metric_quarantines.inc()
        return len(dpids)

    def undo(self, ip_src: str) -> int:
        """Withdraw mitigation rules previously installed for ``ip_src``."""
        removed = 0
        for dpid in self._owned_dpids():
            removed += self._proxy.remove_flow_rule(
                dpid, Match(eth_type=0x0800, ip_src=ip_src), 1000
            )
        return removed


class SouthboundElement:
    """Wiring of components 1A-1D onto one controller instance."""

    def __init__(
        self,
        instance: ControllerInstance,
        flow_rules,
        generator: FeatureGenerator,
        compute: Optional[ComputeCluster] = None,
        distributed_threshold: int = 50_000,
        mac_resolver=None,
        poll_retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.instance = instance
        self.generator = generator
        self.proxy = AthenaProxy(instance, flow_rules)
        self.detector = AttackDetector(compute, distributed_threshold)
        self.reactor = AttackReactor(
            self.proxy, instance.owned_dpids, mac_resolver=mac_resolver
        )
        self._attached = False
        self.poll_retry_policy = poll_retry_policy or RetryPolicy(
            max_attempts=3, base_delay=0.25, max_delay=1.0
        )
        self.polls_retried = 0
        self.polls_skipped = 0
        registry = get_telemetry().registry
        self._metric_table_entries = registry.gauge(
            "athena_dataplane_flow_table_entries",
            "Flow-table occupancy per switch at the last Athena poll.",
            labelnames=("switch",),
        )
        self._metric_polls_retried = registry.counter(
            "athena_southbound_polls_retried_total",
            "Per-switch stats polls re-armed after a controller error.",
        )
        self._metric_polls_skipped = registry.counter(
            "athena_southbound_polls_skipped_total",
            "Per-switch stats polls abandoned (mastership moved or budget "
            "exhausted).",
        )

    def attach(self) -> None:
        """Subscribe the SB interface to the instance's taps and events."""
        if self._attached:
            return
        self._attached = True
        self.instance.add_message_tap(self.generator.on_message_tap)
        self.instance.bus.subscribe(StatsEvent, self._on_stats)
        self.instance.bus.subscribe(FlowRemovedEvent, self.generator.on_flow_removed)
        self.instance.bus.subscribe(PacketInEvent, self.generator.on_packet_in)

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        self.instance.remove_message_tap(self.generator.on_message_tap)
        self.instance.bus.unsubscribe(StatsEvent, self._on_stats)
        self.instance.bus.unsubscribe(
            FlowRemovedEvent, self.generator.on_flow_removed
        )
        self.instance.bus.unsubscribe(PacketInEvent, self.generator.on_packet_in)

    def _on_stats(self, event: StatsEvent) -> None:
        # Variation features are computed over Athena-marked samples only;
        # the controller's own background polls still update raw counters.
        if event.athena_marked:
            self.generator.on_stats_event(event)

    def poll_now(self) -> None:
        """One Athena-marked statistics round over the owned switches."""
        from repro.core.feature_format import FeatureScope

        include_switch = FeatureScope.SWITCH in self.generator.enabled_scopes
        for dpid in self.instance.owned_dpids():
            self._poll_one(dpid, include_switch, attempt=1)

    def _poll_one(self, dpid: int, include_switch: bool, attempt: int) -> None:
        """Poll one switch; on controller errors retry with sim-clock
        backoff, skipping once the budget runs out or mastership moves."""
        if dpid not in self.instance.switches:
            # Mastership moved since this poll (or its retry) was armed.
            self.polls_skipped += 1
            self._metric_polls_skipped.inc()
            return
        try:
            self.proxy.issue_stats_requests(
                dpid, include_switch_scope=include_switch
            )
        except ControllerError:
            if attempt >= self.poll_retry_policy.max_attempts:
                self.polls_skipped += 1
                self._metric_polls_skipped.inc()
                return
            self.polls_retried += 1
            self._metric_polls_retried.inc()
            self.instance.sim.after(
                self.poll_retry_policy.delay_for(attempt),
                lambda: self._poll_one(dpid, include_switch, attempt + 1),
            )
            return
        switch = self.instance.switches.get(dpid)
        if switch is not None:
            self._metric_table_entries.labels(switch=switch.name).set(
                switch.flow_count()
            )
