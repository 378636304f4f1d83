#!/usr/bin/env python3
"""Distributed deployment: 3 controller domains, LLDP discovery, failover.

Shows the parts of the stack the paper's scalability story rests on:

* the 18-switch / 48-link enterprise topology split into three controller
  domains (Table VI's environment),
* topology learned by real LLDP probing instead of omniscient sync,
* one Athena instance per controller, publishing into the shared DB,
* a controller-instance failure mid-run — mastership fails over and both
  forwarding and feature generation continue,
* a distributed training job on the compute cluster, with its measured
  wall clock and modeled makespan at 1 and N workers.

Run:  python examples/distributed_deployment.py [--workers 4]
"""

import argparse

from repro.controller import (
    ControllerCluster,
    LinkDiscoveryService,
    ReactiveForwarding,
)
from repro.controller.topology import TopologyService
from repro.controller.hosts import HostService
from repro.core import AthenaDeployment, GenerateQuery
from repro.dataplane.topologies import enterprise_topology
from repro.workloads.flows import FlowSpec, TrafficSchedule


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4,
                        help="compute workers for the training comparison")
    return parser.parse_args()


def training_makespan(n_workers: int) -> None:
    """Train one distributed K-Means job at 1 and N workers."""
    import numpy as np

    from repro.compute import ComputeCluster, PartitionedDataset
    from repro.ml.kmeans import KMeans

    matrix = np.random.default_rng(7).normal(size=(60_000, 8))
    print(f"\ndistributed training: K-Means over {matrix.shape[0]:,} rows")
    print(f"{'workers':>8s} {'wall_s':>8s} {'modeled_s':>10s}")
    for workers in (1, n_workers):
        cluster = ComputeCluster(workers)
        dataset = PartitionedDataset.from_matrix(matrix, max(4, 2 * workers))
        model = KMeans(k=6, max_iterations=5, epsilon=0.0, seed=2)
        model.fit_distributed(cluster, dataset)
        report = model.last_job_report
        print(f"{workers:>8d} {report.wall_seconds:>8.3f} "
              f"{report.makespan_seconds:>10.3f}")
    print("(tasks run in the driver process, so wall time does not fall "
          "with workers; docs/COMPUTE.md)")


def main() -> None:
    args = parse_args()
    topo = enterprise_topology(hosts_per_edge=1)
    network = topo.network
    cluster = ControllerCluster(network, n_instances=3)
    cluster.adopt_domains(topo.domains)
    cluster.start(poll=False)
    print("domains:", {i.instance_id: i.owned_dpids() for i in cluster.instances})

    # Learn the topology the real way: LLDP probing, not omniscient sync.
    cluster.topology = TopologyService()
    cluster.hosts = HostService(cluster.topology)
    discovery = LinkDiscoveryService(cluster)
    discovery.probe_all()
    network.sim.run(until=0.5)
    print(f"LLDP discovered {cluster.topology.link_count()} links "
          f"across {cluster.topology.switch_count()} switches "
          f"({discovery.probes_sent} probes)")

    forwarding = ReactiveForwarding()
    forwarding.activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=2.0)
    athena.start()

    schedule = TrafficSchedule(network)
    schedule.prime_arp(network.sim.now)
    hosts = sorted(network.hosts)
    # Cross-domain flows: first host to last, second to second-last, ...
    for idx in range(3):
        schedule.add_flow(
            FlowSpec(src_host=hosts[idx], dst_host=hosts[-1 - idx],
                     sport=40000 + idx, rate_pps=25.0, start=1.0,
                     duration=20.0, bidirectional=True)
        )

    # Fail controller instance 1 mid-run.
    def fail():
        moved = cluster.fail_instance(1)
        print(f"t={network.sim.now:.0f}s: instance 1 failed; "
              f"{len(moved)} switches failed over")

    network.sim.at(10.0, fail)
    network.sim.run(until=25.0)

    per_instance = {
        i.instance_id: i.generator.features_generated for i in athena.instances
    }
    print("features generated per Athena instance:", per_instance)
    docs = athena.northbound.request_features(
        GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0")
    )
    print(f"flow feature records in the shared DB: {len(docs)}")
    delivered = sum(network.hosts[h].rx_packets for h in hosts)
    print(f"packets delivered end-to-end: {delivered}")
    print("summary:", athena.summary())

    training_makespan(args.workers)


if __name__ == "__main__":
    main()
