"""Deploying Athena over a controller cluster.

An :class:`AthenaInstance` is hosted above each controller instance (the
paper's fully-distributed hosting model): it owns that instance's Feature
Generator and southbound element and runs its own statistics polling and
garbage collection on the simulator.

:class:`AthenaDeployment` wires the whole framework: one Athena instance
per controller instance, the shared database and compute clusters, the
northbound manager layer, and the :class:`~repro.core.northbound.AthenaNorthbound`
facade applications use.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import config as _config
from repro.compute import ComputeCluster
from repro.config import RuntimeConfig
from repro.controller.cluster import ControllerCluster
from repro.controller.instance import ControllerInstance
from repro.core.detector_manager import DetectorManager
from repro.core.feature_manager import FeatureManager
from repro.core.generator import FeatureGenerator
from repro.core.northbound import AthenaNorthbound
from repro.core.reaction_manager import ReactionManager
from repro.core.resource_manager import ResourceManager
from repro.core.southbound import SouthboundElement
from repro.core.ui_manager import UIManager
from repro.distdb import DatabaseCluster
from repro.errors import AthenaError, ControllerError
from repro.telemetry import configure as configure_telemetry
from repro.telemetry import get_telemetry


class AthenaInstance:
    """One Athena instance hosted above one controller instance."""

    def __init__(
        self,
        controller: ControllerInstance,
        southbound: SouthboundElement,
        athena_poll_interval: float = 5.0,
        gc_interval: float = 30.0,
    ) -> None:
        self.controller = controller
        self.southbound = southbound
        self.athena_poll_interval = athena_poll_interval
        self.gc_interval = gc_interval
        self._started = False

    @property
    def instance_id(self) -> int:
        return self.controller.instance_id

    @property
    def generator(self) -> FeatureGenerator:
        return self.southbound.generator

    @property
    def reactor(self):
        return self.southbound.reactor

    def start(self, poll: bool = True) -> None:
        """Attach the SB interface and arm periodic polling + GC."""
        if self._started:
            return
        self._started = True
        self.southbound.attach()
        sim = self.controller.sim
        if poll:
            sim.every(self.athena_poll_interval, self.southbound.poll_now)
        sim.every(
            self.gc_interval,
            lambda: self.generator.collect_garbage(sim.now),
        )

    def stop(self) -> None:
        self.southbound.detach()
        self._started = False


class AthenaDeployment:
    """The full Athena framework over a controller cluster.

    ``config`` pins a :class:`~repro.config.RuntimeConfig` for this
    deployment's lifetime (its generators, default compute cluster and
    telemetry); left out, the deployment follows
    :func:`repro.config.current` on every use.
    """

    def __init__(
        self,
        cluster: ControllerCluster,
        database: Optional[DatabaseCluster] = None,
        compute: Optional[ComputeCluster] = None,
        store_features: bool = True,
        athena_poll_interval: float = 5.0,
        gc_interval: float = 30.0,
        distributed_threshold: int = 50_000,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.cluster = cluster
        #: The pinned runtime config, or None to follow the current one.
        self._config = config
        if config is not None and get_telemetry().enabled != config.telemetry:
            # Instruments bind at construction; honour the pinned switch
            # before anything below binds one.
            configure_telemetry(enabled=config.telemetry)
        self.database = database or DatabaseCluster(n_shards=3)
        self.compute = compute or ComputeCluster(
            n_workers=4, backend=self.config.compute_backend
        )
        # Spans record deterministic sim-clock durations alongside wall time.
        sim = cluster.network.sim
        get_telemetry().set_sim_time_source(lambda: sim.now)
        # The sim scheduler arms the feature manager's retry queue, so DB
        # outages buffer feature writes instead of failing the pipeline.
        self.feature_manager = FeatureManager(
            self.database, store_features=store_features, scheduler=sim
        )
        self.instances: List[AthenaInstance] = []
        for controller in cluster.instances:
            generator = FeatureGenerator(
                instance_id=controller.instance_id,
                sink=self.feature_manager.publish,
                flow_rule_lookup=cluster.flow_rules.app_of_flow,
                port_speed_lookup=self._port_speed,
                config=config,
            )
            southbound = SouthboundElement(
                controller,
                cluster.flow_rules,
                generator,
                compute=self.compute,
                distributed_threshold=distributed_threshold,
                mac_resolver=self._mac_of_ip,
            )
            self.instances.append(
                AthenaInstance(
                    controller,
                    southbound,
                    athena_poll_interval=athena_poll_interval,
                    gc_interval=gc_interval,
                )
            )
        self.detector_manager = DetectorManager(
            self.feature_manager,
            self.instances[0].southbound.detector,
        )
        self.reaction_manager = ReactionManager(
            self.feature_manager,
            reactor_lookup=self._reactor_for,
            host_locator=cluster.hosts.locate_ip,
            all_dpids=lambda: list(cluster.network.switches),
        )
        self.resource_manager = ResourceManager(lambda: list(self.instances))
        self.ui_manager = UIManager()
        self.northbound = AthenaNorthbound(
            self.feature_manager,
            self.detector_manager,
            self.reaction_manager,
            self.resource_manager,
            self.ui_manager,
            all_dpids=lambda: list(cluster.network.switches),
        )
        self._apps: Dict[str, object] = {}
        #: The streaming runtime, once enable_streaming() has been called.
        self.streaming = None

    @property
    def config(self) -> RuntimeConfig:
        """The runtime config this deployment runs under right now."""
        return self._config or _config.current()

    def _mac_of_ip(self, ip: str):
        location = self.cluster.hosts.locate_ip(ip)
        return location.mac if location is not None else None

    def _port_speed(self, dpid: int, port: int) -> float:
        switch = self.cluster.network.switches.get(dpid)
        if switch is None:
            return 1e9
        if port in switch.ports:
            return switch.ports[port].speed_bps
        speeds = [p.speed_bps for p in switch.ports.values()]
        return max(speeds) if speeds else 1e9

    def _reactor_for(self, dpid: int):
        try:
            master = self.cluster.mastership.master_of(dpid)
        except ControllerError:
            # No master (never adopted, or mid-failover with no standby):
            # the reaction manager turns None into a typed ReactionError.
            return None
        for instance in self.instances:
            if instance.instance_id == master:
                return instance.reactor
        return None

    # -- lifecycle ------------------------------------------------------------

    def start(self, poll: bool = True) -> None:
        """Start every Athena instance (polling, GC)."""
        for instance in self.instances:
            instance.start(poll=poll)

    def stop(self) -> None:
        for instance in self.instances:
            instance.stop()

    # -- streaming ------------------------------------------------------------

    def enable_streaming(
        self,
        refresh_interval: float = 5.0,
        gc_interval: float = 30.0,
        stale_after: float = 60.0,
    ):
        """Wire the event-driven detection pipeline (docs/STREAMING.md).

        Subscribes a :class:`~repro.streaming.StreamingPipeline` to every
        controller instance's bus, routes its stream events into a
        :class:`~repro.streaming.StreamingDetectorManager`, and arms the
        periodic off-path model refresh + state GC on the sim clock.
        Idempotent: repeated calls return the same runtime.
        """
        if self.streaming is not None:
            return self.streaming
        from repro.streaming import (
            StreamingDetectorManager,
            StreamingPipeline,
            StreamingRuntime,
        )

        pipeline = StreamingPipeline(
            stale_after=stale_after, port_speed_lookup=self._port_speed
        )
        detectors = StreamingDetectorManager()
        pipeline.add_sink(detectors.on_event)
        pipeline.attach(self)
        sim = self.cluster.network.sim
        sim.every(refresh_interval, detectors.refresh)
        sim.every(gc_interval, lambda: pipeline.collect_garbage(sim.now))
        self.streaming = StreamingRuntime(pipeline=pipeline, detectors=detectors)
        return self.streaming

    # -- applications -------------------------------------------------------------

    def register_app(self, app) -> None:
        """Attach an Athena application to this deployment."""
        if app.name in self._apps:
            raise AthenaError(f"app {app.name!r} already registered")
        self._apps[app.name] = app
        app.attach(self)

    def unregister_app(self, name: str) -> None:
        app = self._apps.pop(name, None)
        if app is not None:
            app.detach()

    def app(self, name: str):
        return self._apps.get(name)

    # -- stats ------------------------------------------------------------------------

    def total_features_generated(self) -> int:
        return sum(i.generator.features_generated for i in self.instances)

    def sketch_stats(self) -> Dict[str, float]:
        """Sketch fill/error stats aggregated across instance generators.

        Sums the additive fields (switch count, observations, resident
        bytes) and takes the worst case of the error bounds, so the
        northbound view stays meaningful however many instances carry
        sketch state.  All-zero when no generator has sketched yet.
        """
        totals: Dict[str, float] = {
            "switches": 0,
            "observations": 0,
            "nbytes": 0,
            "cms_fill_ratio": 0.0,
            "cms_error_bound": 0.0,
            "hll_fill_ratio": 0.0,
            "hll_relative_error": 0.0,
            "bloom_fill_ratio": 0.0,
            "bloom_fp_bound": 0.0,
        }
        active = 0
        for instance in self.instances:
            stats = instance.generator.sketch_stats()
            if stats is None:
                continue
            active += 1
            for key in ("switches", "observations", "nbytes"):
                totals[key] += stats[key]
            for key in ("cms_error_bound", "bloom_fp_bound", "hll_relative_error"):
                totals[key] = max(totals[key], stats[key])
            for key in ("cms_fill_ratio", "hll_fill_ratio", "bloom_fill_ratio"):
                totals[key] += stats[key]
        if active:
            for key in ("cms_fill_ratio", "hll_fill_ratio", "bloom_fill_ratio"):
                totals[key] /= active
        return totals

    def summary(self) -> Dict[str, int]:
        return {
            "athena_instances": len(self.instances),
            "features_generated": self.total_features_generated(),
            "features_published": self.feature_manager.features_published,
            "features_stored": self.feature_manager.count_features(),
            "models_generated": self.detector_manager.models_generated,
            "reactions_enforced": self.reaction_manager.reactions_enforced,
        }
