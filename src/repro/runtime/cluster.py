"""The simulated deployment, realized from a declarative :class:`Topology`.

Historically this module hardcoded the paper's testbed shape (one device, N
identical edge nodes, one cloud, three tier-pair wires).  The deployment is
now described by a :class:`~repro.network.topology.Topology` — arbitrary named
nodes and links — and the :class:`Cluster` is its live realization: one
:class:`~repro.runtime.node.ComputeNode` per compute node, one stateful
:class:`~repro.network.link.SharedLink` per declared wire (keyed by link id,
not tier pair), plus routing and per-hop pricing for the engines.

:meth:`Cluster.build` keeps the original fixed-shape constructor as a shim
over :meth:`Topology.three_tier`, bit-identical to the pre-topology runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.placement import Tier
from repro.network.conditions import BandwidthTrace, NetworkCondition, get_condition
from repro.network.link import MBPS_TO_BYTES_PER_SECOND, SharedLink, transfer_seconds
from repro.network.topology import NodeSpec, Topology, canonical_links
from repro.profiling.hardware import CLOUD_SERVER, EDGE_DESKTOP, HardwareSpec, RASPBERRY_PI_4
from repro.runtime.node import ComputeNode


def _condition_divisor(condition: NetworkCondition, tier_a, tier_b) -> float:
    """Bytes-per-second divisor of ``condition.transfer_seconds`` for a tier pair.

    ``0.0`` is the "always zero seconds" sentinel (same-tier with negligible
    intra-tier delay).  Ops mirror :meth:`NetworkCondition.transfer_seconds`
    exactly so precomputed pricing stays bit-identical.
    """
    src = getattr(tier_a, "value", tier_a)
    dst = getattr(tier_b, "value", tier_b)
    if src == dst:
        if condition.intra_tier_mbps > 0:
            return condition.intra_tier_mbps * 1e6 / 8.0
        return 0.0
    return condition.bandwidth_mbps(src, dst) * 1e6 / 8.0


@dataclass
class Cluster:
    """A live deployment: compute nodes, stateful links, and routing.

    Attributes
    ----------
    device:
        The *primary* device node (the default origin of requests).
    edge_nodes:
        The edge nodes, in topology declaration order; VSM spreads fused tile
        stacks across all of them.
    cloud:
        The primary cloud node.
    network:
        The planning-view network condition (tier-pair effective bandwidths
        derived from the topology's links).
    shared_links:
        The stateful contention wires, keyed by the topology's link ids.
    extra_devices, extra_clouds:
        Further device/cloud nodes of multi-device / multi-region topologies.
    topology:
        The declarative description this cluster realizes; synthesized from
        the node lists (canonical three-tier wires) when not given.
    """

    device: ComputeNode
    edge_nodes: List[ComputeNode]
    cloud: ComputeNode
    network: NetworkCondition
    shared_links: Dict[str, SharedLink] = field(default_factory=dict)
    extra_devices: List[ComputeNode] = field(default_factory=list)
    extra_clouds: List[ComputeNode] = field(default_factory=list)
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        if not self.edge_nodes:
            raise ValueError("a cluster needs at least one edge node")
        if self.device.tier != Tier.DEVICE or self.cloud.tier != Tier.CLOUD:
            raise ValueError("device/cloud nodes must carry the matching tier")
        if any(node.tier != Tier.EDGE for node in self.edge_nodes):
            raise ValueError("edge nodes must carry the edge tier")
        if any(node.tier != Tier.DEVICE for node in self.extra_devices):
            raise ValueError("extra device nodes must carry the device tier")
        if any(node.tier != Tier.CLOUD for node in self.extra_clouds):
            raise ValueError("extra cloud nodes must carry the cloud tier")
        if self.topology is None:
            self.topology = self._synthesize_topology()
        if not self.shared_links:
            self.shared_links = {
                name: SharedLink(source=spec.a, destination=spec.b, link_id=name)
                for name, spec in self.topology.links.items()
            }
        self._nodes_by_name = {node.name: node for node in self.all_nodes}
        self._routes: Dict[tuple, List[SharedLink]] = {}
        #: Lazily built per-link pricing table (see :meth:`hop_seconds`):
        #: topology link specs never change, so the classification and the
        #: static/inherited divisors are computed once per link instead of
        #: once per hop.  Inherited entries memoize one divisor per network
        #: condition (id-keyed; the ref list pins the conditions so a
        #: recycled id can never alias a different one).
        self._hop_pricing: Dict[str, tuple] = {}
        #: Failure state: names of currently-down topology nodes and links.
        #: Mutated by the serving engine while it consumes a fault schedule;
        #: :meth:`reset` restores full health.
        self._down_nodes: set = set()
        self._down_links: set = set()
        self._apply_speed_factors()

    def _synthesize_topology(self) -> Topology:
        """Canonical three-wire topology over this cluster's actual nodes."""
        nodes = [
            NodeSpec(node.name, node.tier.value, node.hardware) for node in self.all_nodes
        ]
        return Topology("three_tier", nodes, canonical_links(), base_network=self.network)

    def _apply_speed_factors(self) -> None:
        """Throughput of every node relative to its tier's primary node."""
        for group in (self.devices, self.edge_nodes, self.cloud_nodes):
            reference = group[0].hardware.effective_gflops
            for node in group:
                node.speed_factor = node.hardware.effective_gflops / reference

    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        network: NetworkCondition | str = "wifi",
        num_edge_nodes: int = 1,
        device_hardware: HardwareSpec = RASPBERRY_PI_4,
        edge_hardware: HardwareSpec = EDGE_DESKTOP,
        cloud_hardware: HardwareSpec = CLOUD_SERVER,
    ) -> "Cluster":
        """Build the paper's testbed of section IV: a Raspberry Pi 4 device,
        i7-8700 edge nodes and a 2080 Ti cloud server (Table II instead uses a
        Jetson Nano device; pass ``device_hardware=JETSON_NANO`` for that)."""
        if num_edge_nodes <= 0:
            raise ValueError("num_edge_nodes must be positive")
        topology = Topology.three_tier(
            num_edge_nodes=num_edge_nodes,
            network=network,
            device_hardware=device_hardware,
            edge_hardware=edge_hardware,
            cloud_hardware=cloud_hardware,
        )
        return cls.from_topology(topology)

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        network: Optional[NetworkCondition | str] = None,
    ) -> "Cluster":
        """Realize a declarative topology as a live cluster.

        ``network`` overrides the topology's base condition; inherited links
        price against it and the planning view is derived from it.
        """
        if isinstance(network, str):
            network = get_condition(network)
        base = network or topology.base_network
        condition = topology.planning_condition(base=base)
        by_tier: Dict[str, List[ComputeNode]] = {"device": [], "edge": [], "cloud": []}
        for spec in topology.nodes.values():
            if not spec.is_compute:
                continue
            by_tier[spec.tier].append(
                ComputeNode(
                    spec.name,
                    Tier(spec.tier),
                    spec.hardware,
                    price_per_s=spec.resolved_price_per_s,
                )
            )
        # Pin the topology's base so with_network()/scratch clusters keep
        # pricing inherited links consistently.  __post_init__ builds the
        # shared links from the realized topology.
        realized = Topology(
            topology.name,
            list(topology.nodes.values()),
            list(topology.links.values()),
            base_network=base,
        )
        return cls(
            device=by_tier["device"][0],
            edge_nodes=by_tier["edge"],
            cloud=by_tier["cloud"][0],
            network=condition,
            extra_devices=by_tier["device"][1:],
            extra_clouds=by_tier["cloud"][1:],
            topology=realized,
        )

    # ------------------------------------------------------------------ #
    @property
    def devices(self) -> List[ComputeNode]:
        """All device nodes (the primary first)."""
        return [self.device, *self.extra_devices]

    @property
    def cloud_nodes(self) -> List[ComputeNode]:
        """All cloud nodes (the primary first)."""
        return [self.cloud, *self.extra_clouds]

    @property
    def all_nodes(self) -> List[ComputeNode]:
        return [*self.devices, *self.edge_nodes, *self.cloud_nodes]

    @property
    def num_edge_nodes(self) -> int:
        return len(self.edge_nodes)

    def node(self, name: str) -> ComputeNode:
        """Look a compute node up by its topology name."""
        try:
            return self._nodes_by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown node {name!r}; cluster nodes: {sorted(self._nodes_by_name)}"
            ) from None

    def tier_hardware(self) -> Dict[str, HardwareSpec]:
        """Tier-name -> hardware mapping used by the profiler.

        Heterogeneous tiers are profiled against their *primary* node; other
        nodes' speed factors stretch task durations at simulation time.
        """
        return {
            Tier.DEVICE.value: self.device.hardware,
            Tier.EDGE.value: self.edge_nodes[0].hardware,
            Tier.CLOUD.value: self.cloud.hardware,
        }

    def primary_node(self, tier: Tier) -> ComputeNode:
        """The node that executes non-tiled work of a tier."""
        if tier == Tier.DEVICE:
            return self.device
        if tier == Tier.CLOUD:
            return self.cloud
        return self.edge_nodes[0]

    # ------------------------------------------------------------------ #
    # Failure state
    # ------------------------------------------------------------------ #
    @property
    def down_nodes(self) -> frozenset:
        """Names of currently-failed topology nodes."""
        return frozenset(self._down_nodes)

    @property
    def down_nodes_live(self) -> set:
        """The live down-node name set itself, mutated in place by
        ``fail_node``/``recover_node``/``reset``.

        The serving engine aliases it once per run so that per-dispatch
        liveness tests reduce to a membership test that short-circuits on
        the (usually empty) set.  Callers must not mutate it.
        """
        return self._down_nodes

    @property
    def down_links(self) -> frozenset:
        """Ids of currently-failed topology links."""
        return frozenset(self._down_links)

    def node_is_up(self, name: str) -> bool:
        return name not in self._down_nodes

    def link_is_up(self, link_id: str) -> bool:
        return link_id not in self._down_links

    def fail_node(self, name: str) -> None:
        """Mark a topology node (compute or relay) as down; idempotent."""
        if name not in self.topology.nodes:
            raise KeyError(f"unknown node {name!r} in topology {self.topology.name!r}")
        self._down_nodes.add(name)

    def recover_node(self, name: str) -> None:
        """Bring a failed node back; a no-op for healthy or unknown names."""
        self._down_nodes.discard(name)

    def fail_link(self, link_id: str) -> None:
        """Mark a topology link as dark; idempotent."""
        if link_id not in self.topology.links:
            raise KeyError(f"unknown link {link_id!r} in topology {self.topology.name!r}")
        self._down_links.add(link_id)

    def recover_link(self, link_id: str) -> None:
        """Relight a failed link; a no-op for healthy or unknown ids."""
        self._down_links.discard(link_id)

    def active_nodes(self, tier: Tier) -> List[ComputeNode]:
        """The *up* compute nodes of a tier, in topology declaration order."""
        if tier == Tier.DEVICE:
            group = self.devices
        elif tier == Tier.CLOUD:
            group = self.cloud_nodes
        else:
            group = self.edge_nodes
        return [node for node in group if node.name not in self._down_nodes]

    # ------------------------------------------------------------------ #
    # Routing and per-hop pricing
    # ------------------------------------------------------------------ #
    def route(self, source_node: str, destination_node: str) -> List[SharedLink]:
        """The stateful wires a transfer crosses between two nodes, in order.

        Failure-aware: with down nodes/links the path avoids them (possibly
        taking a longer detour) and raises
        :class:`~repro.network.topology.RouteUnavailableError` when the
        failures sever every path.  The healthy route cache key is unchanged,
        so fault-free simulations route exactly as before.
        """
        if self._down_nodes or self._down_links:
            key: tuple = (
                source_node,
                destination_node,
                tuple(sorted(self._down_nodes)),
                tuple(sorted(self._down_links)),
            )
            if key not in self._routes:
                hops = self.topology.route(
                    source_node,
                    destination_node,
                    down_nodes=frozenset(self._down_nodes),
                    down_links=frozenset(self._down_links),
                )
                self._routes[key] = [self.shared_links[name] for name in hops]
            return self._routes[key]
        key = (source_node, destination_node)
        if key not in self._routes:
            hops = self.topology.route(source_node, destination_node)
            self._routes[key] = [self.shared_links[name] for name in hops]
        return self._routes[key]

    def hop_seconds(
        self,
        link: SharedLink,
        payload_bytes: int,
        condition: NetworkCondition,
        time_s: float,
    ) -> float:
        """Transmission time of one payload over one wire at ``time_s``.

        Inherited links price against ``condition`` (the per-request network
        condition, exactly the pre-topology semantics); static and traced
        links price against their own rate.
        """
        entry = self._hop_pricing.get(link.link_id)
        if entry is None:
            entry = self._hop_pricing[link.link_id] = self._hop_pricing_for(link)
        kind = entry[0]
        if kind == "static":
            if payload_bytes < 0:
                raise ValueError("payload_bytes cannot be negative")
            if payload_bytes == 0:
                return 0.0
            return payload_bytes / entry[1] + 0.0
        if kind == "inherited":
            _, tier_a, tier_b, memo, refs = entry
            divisor = memo.get(id(condition))
            if divisor is None:
                divisor = _condition_divisor(condition, tier_a, tier_b)
                memo[id(condition)] = divisor
                refs.append(condition)
            if divisor:
                return payload_bytes / divisor
            return 0.0
        return transfer_seconds(payload_bytes, entry[1].mbps_at(time_s))

    def _hop_pricing_for(self, link: SharedLink) -> tuple:
        """Classify one wire's pricing once (its topology spec never changes)."""
        spec = self.topology.links[link.link_id]
        bandwidth = spec.bandwidth
        if bandwidth is None:
            tier_a, tier_b = self.topology.link_tier_pair(spec)
            return ("inherited", tier_a, tier_b, {}, [])
        if isinstance(bandwidth, BandwidthTrace):
            return ("traced", spec)
        own = float(bandwidth)
        if own <= 0:
            # Non-positive static rate: defer to transfer_seconds so the
            # "bandwidth must be positive" error surfaces unchanged.
            return ("traced", spec)
        return ("static", own * MBPS_TO_BYTES_PER_SECOND)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Reset the scheduling state of every node and link, and heal faults."""
        for node in self.all_nodes:
            node.reset()
        for link in self.shared_links.values():
            link.reset()
        self._down_nodes.clear()
        self._down_links.clear()

    def with_network(self, network: NetworkCondition) -> "Cluster":
        """The same topology under a different network condition (fresh state)."""
        return Cluster.from_topology(self.topology, network=network)
