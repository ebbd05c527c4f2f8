"""Declarative deployment topologies: arbitrary nodes-and-links clusters.

The paper evaluates D3 on exactly one testbed shape — a single device, a rack
of identical edge desktops, one cloud server and the three tier-pair
bandwidths of Table III — and the original ``Cluster``/``NetworkCondition``
API baked that shape in.  This module makes the deployment description itself
a first-class, serializable artifact:

* :class:`NodeSpec` — one named machine: a computing tier (``device``,
  ``edge``, ``cloud``, or a non-computing ``relay`` such as a gateway) plus a
  :class:`~repro.profiling.hardware.HardwareSpec`, so devices can be plural
  and edge racks heterogeneous;
* :class:`LinkSpec` — one named physical wire between two endpoints (node
  names, or tier aliases meaning "every node of that tier shares this wire"),
  whose bandwidth is a static Mbps value, a
  :class:`~repro.network.conditions.BandwidthTrace` of absolute Mbps samples
  (so any link — not just the backbone — can drift), or ``None`` meaning
  "inherit the tier-pair rate of the active NetworkCondition" (how the
  canonical testbed stays bit-identical to the original fixed-shape API);
* :class:`Topology` — the validated graph of both, with routing (transfers
  between nodes follow the fewest-hop path over the declared links), a
  planning view (:meth:`Topology.planning_condition` reduces any shape to the
  effective tier-pair bandwidths HPA and the baselines plan against), a
  :meth:`Topology.fingerprint` for plan-cache keys, and JSON round-tripping.

:meth:`Topology.three_tier` reproduces the paper's testbed exactly;
:func:`get_topology` serves the preset fleet shapes (``multi_device``,
``hetero_edge``, ``device_gateway``) and :func:`load_topology` additionally
accepts a path to a topology JSON file.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import astuple, dataclass, field, fields
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from repro.network.conditions import BandwidthTrace, NetworkCondition, get_condition
from repro.profiling.hardware import (
    CLOUD_SERVER,
    EDGE_DESKTOP,
    EnergyModel,
    HardwareSpec,
    RASPBERRY_PI_4,
    get_hardware,
    hardware_preset_name,
)

#: Tiers that carry computation (placement plans only ever target these).
COMPUTE_TIERS = ("device", "edge", "cloud")

#: All tiers a node may declare; relays forward traffic but run no layers.
NODE_TIERS = COMPUTE_TIERS + ("relay",)

#: The bandwidth of a link: inherit from the NetworkCondition (``None``),
#: a static Mbps value, or an absolute-Mbps trace.
Bandwidth = Union[None, float, BandwidthTrace]

#: Default $/s billed for keeping one node of each tier up, used when a
#: :class:`NodeSpec` does not declare its own ``price_per_s``.  Devices are
#: user-owned (no bill), an edge box runs ~$0.07/h and the GPU cloud server
#: ~$3.20/h — on-demand cloud-GPU territory.  Relays forward for free.
DEFAULT_TIER_PRICES: Dict[str, float] = {
    "device": 0.0,
    "edge": 2.0e-5,
    "cloud": 8.9e-4,
    "relay": 0.0,
}


class TopologyError(ValueError):
    """Raised when a topology description is structurally invalid."""


class RouteUnavailableError(TopologyError):
    """Raised when no route exists between two nodes over the usable links.

    Subclasses :class:`TopologyError` so pre-failure callers that caught the
    broad error keep working; the serving engine catches this *typed* error to
    distinguish "the deployment is mis-wired" from "a failure severed the
    path" and trigger failover replanning for the latter.
    """


class InsufficientMemoryError(TopologyError):
    """Raised when no compute node can hold even the cheapest model placement.

    The cheapest single-model placement packs all of one model's stages onto
    the deployment's roomiest compute node; when its
    :attr:`~repro.profiling.hardware.HardwareSpec.memory_gb` cannot hold that
    model's weights + peak activation, every partition of every model in the
    workload is infeasible and serving would only thrash cold starts that can
    never be admitted.  Subclasses :class:`TopologyError` so existing broad
    handlers keep working.
    """


def hardware_to_json(spec: HardwareSpec) -> Dict[str, object]:
    """Field-driven JSON form of a :class:`HardwareSpec`.

    Walks ``dataclasses.fields`` instead of an explicit field list, so a
    field added to the spec (or its nested :class:`EnergyModel`) can never be
    silently dropped — the bug that previously lost ``per_layer_overhead_s``
    class additions on round-trip.  The unmetered default energy model is
    omitted, keeping pre-energy documents byte-stable.
    """
    payload: Dict[str, object] = {}
    for spec_field in fields(HardwareSpec):
        value = getattr(spec, spec_field.name)
        if isinstance(value, EnergyModel):
            if value == EnergyModel():
                continue  # the default: implied, keeps old documents stable
            payload[spec_field.name] = {
                energy_field.name: getattr(value, energy_field.name)
                for energy_field in fields(EnergyModel)
            }
        else:
            payload[spec_field.name] = value
    return payload


def hardware_from_json(mapping: Mapping) -> HardwareSpec:
    """Parse the mapping form of a :class:`HardwareSpec` losslessly.

    The exact inverse of :func:`hardware_to_json`: every declared dataclass
    field is read back (absent optional fields take the dataclass default),
    and unknown keys are rejected so typos do not silently vanish.
    """
    known = {spec_field.name for spec_field in fields(HardwareSpec)}
    unknown = set(mapping) - known
    if unknown:
        raise TopologyError(
            f"unknown hardware field(s) {sorted(unknown)}; expected a subset of "
            f"{sorted(known)}"
        )
    kwargs: Dict[str, object] = {}
    try:
        for spec_field in fields(HardwareSpec):
            if spec_field.name not in mapping:
                continue
            value = mapping[spec_field.name]
            if spec_field.name == "energy":
                if isinstance(value, EnergyModel):
                    kwargs[spec_field.name] = value
                    continue
                energy_known = {f.name for f in fields(EnergyModel)}
                energy_unknown = set(value) - energy_known
                if energy_unknown:
                    raise TopologyError(
                        f"unknown energy field(s) {sorted(energy_unknown)}; "
                        f"expected a subset of {sorted(energy_known)}"
                    )
                kwargs[spec_field.name] = EnergyModel(
                    **{key: float(item) for key, item in value.items()}
                )
            elif spec_field.name == "name":
                kwargs[spec_field.name] = str(value)
            else:
                kwargs[spec_field.name] = float(value)
        kwargs.setdefault("name", "custom")
        return HardwareSpec(**kwargs)
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, TopologyError):
            raise
        raise TopologyError(f"invalid hardware spec: {error}") from None


def canonical_links() -> List["LinkSpec"]:
    """The paper's three inherited wires (one shared medium per tier pair).

    Single source of truth for the canonical wiring: the three_tier and
    hetero_edge presets and the topology a hand-built ``Cluster`` synthesizes
    all share these link ids, which plan caches and ``link_busy_s`` reports
    key on.
    """
    return [
        LinkSpec("device-edge", "device", "edge"),
        LinkSpec("edge-cloud", "edge", "cloud"),
        LinkSpec("device-cloud", "device", "cloud"),
    ]


@dataclass(frozen=True)
class NodeSpec:
    """One named machine of a deployment.

    ``price_per_s`` is what keeping this node up costs in $/s; ``None``
    inherits the tier default from :data:`DEFAULT_TIER_PRICES`, so existing
    topology documents price themselves sensibly without edits.
    """

    name: str
    tier: str
    hardware: Optional[HardwareSpec] = None
    price_per_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("node needs a non-empty name")
        if self.tier not in NODE_TIERS:
            raise TopologyError(
                f"node {self.name!r} has unknown tier {self.tier!r}; "
                f"expected one of {NODE_TIERS}"
            )
        if self.tier in COMPUTE_TIERS and self.hardware is None:
            raise TopologyError(f"compute node {self.name!r} needs a hardware spec")
        if self.price_per_s is not None and self.price_per_s < 0:
            raise TopologyError(f"node {self.name!r} has a negative price_per_s")

    @property
    def is_compute(self) -> bool:
        return self.tier in COMPUTE_TIERS

    @property
    def resolved_price_per_s(self) -> float:
        """The node's $/s, falling back to its tier's default price."""
        if self.price_per_s is not None:
            return self.price_per_s
        return DEFAULT_TIER_PRICES[self.tier]


@dataclass(frozen=True)
class LinkSpec:
    """One named physical wire between two endpoints.

    Endpoints are node names or tier aliases; a tier alias means every node of
    that tier shares this one wire (the paper's LAN: one Wi-Fi medium between
    the device and all edge nodes).  ``bandwidth`` is ``None`` (inherit the
    tier-pair rate from the active :class:`NetworkCondition`), a static Mbps
    float, or a :class:`BandwidthTrace` of absolute Mbps samples.
    """

    name: str
    a: str
    b: str
    bandwidth: Bandwidth = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("link needs a non-empty name")
        if self.a == self.b:
            raise TopologyError(f"link {self.name!r} connects {self.a!r} to itself")
        if isinstance(self.bandwidth, (int, float)) and self.bandwidth <= 0:
            raise TopologyError(f"link {self.name!r} has non-positive bandwidth")

    @property
    def is_inherited(self) -> bool:
        return self.bandwidth is None

    def mbps_at(self, time_s: float = 0.0) -> Optional[float]:
        """The link's own rate at ``time_s``; ``None`` for inherited links."""
        if self.bandwidth is None:
            return None
        if isinstance(self.bandwidth, BandwidthTrace):
            return self.bandwidth.sample_at(time_s)
        return float(self.bandwidth)


class Topology:
    """A validated nodes-and-links deployment description.

    Parameters
    ----------
    name:
        Short identifier; goes into fingerprints and derived condition names.
    nodes, links:
        The machines and wires, in declaration order (order matters: the first
        node of a tier is that tier's *primary* node — the one that runs
        non-tiled work and anchors the planning view).
    base_network:
        The :class:`NetworkCondition` that inherited links price against when
        the caller does not supply one.
    """

    def __init__(
        self,
        name: str,
        nodes: Sequence[NodeSpec],
        links: Sequence[LinkSpec],
        base_network: Optional[NetworkCondition] = None,
    ) -> None:
        self.name = name
        self.nodes: Dict[str, NodeSpec] = {}
        for node in nodes:
            if node.name in self.nodes:
                raise TopologyError(f"duplicate node name {node.name!r}")
            self.nodes[node.name] = node
        self.links: Dict[str, LinkSpec] = {}
        for link in links:
            if link.name in self.links:
                raise TopologyError(f"duplicate link name {link.name!r}")
            self.links[link.name] = link
        self.base_network = base_network
        self._routes: Dict[Tuple[str, str], List[str]] = {}
        self._adjacency_cache: Optional[Dict[str, List[Tuple[str, str]]]] = None
        self._fingerprint: Optional[Tuple] = None
        self._traced = any(
            isinstance(link.bandwidth, BandwidthTrace) for link in self.links.values()
        )
        self._conditions: Dict[Optional[str], NetworkCondition] = {}
        self.validate()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def nodes_of_tier(self, tier: str) -> List[NodeSpec]:
        return [node for node in self.nodes.values() if node.tier == tier]

    def primary(self, tier: str) -> NodeSpec:
        """The first-declared node of a tier (runs non-tiled work)."""
        for node in self.nodes.values():
            if node.tier == tier:
                return node
        raise TopologyError(f"topology {self.name!r} has no {tier!r} node")

    def tier_price_per_s(self, tier: str) -> float:
        """The $/s of a tier's primary node (the planning view of pricing)."""
        return self.primary(tier).resolved_price_per_s

    @property
    def has_traced_links(self) -> bool:
        """True when any link's bandwidth drifts on its own trace (decided at
        construction: links are immutable afterwards)."""
        return self._traced

    def endpoint_nodes(self, endpoint: str) -> List[str]:
        """The node names an endpoint label resolves to (name or tier alias)."""
        if endpoint in self.nodes:
            return [endpoint]
        if endpoint in NODE_TIERS:
            return [node.name for node in self.nodes.values() if node.tier == endpoint]
        return []

    def link_tier_pair(self, link: LinkSpec) -> Tuple[str, str]:
        """The tiers of a link's two endpoints (alias endpoints are their tier)."""
        tiers = []
        for endpoint in (link.a, link.b):
            if endpoint in self.nodes:
                tiers.append(self.nodes[endpoint].tier)
            else:
                tiers.append(endpoint)
        return tiers[0], tiers[1]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self, min_model_bytes: Optional[int] = None) -> None:
        """Check structural soundness; optionally check memory feasibility.

        ``min_model_bytes`` — the full footprint (weights + peak activation)
        of the *smallest* model a deployment must serve — turns the dormant
        :attr:`HardwareSpec.memory_gb` into a hard constraint: if even the
        roomiest compute node cannot hold that model whole, the deployment
        is rejected with :class:`InsufficientMemoryError` before any request
        is planned.
        """
        if not self.name:
            raise TopologyError("topology needs a non-empty name")
        for tier in COMPUTE_TIERS:
            if not self.nodes_of_tier(tier):
                raise TopologyError(f"topology {self.name!r} needs at least one {tier} node")
        for link in self.links.values():
            side_a = self.endpoint_nodes(link.a)
            side_b = self.endpoint_nodes(link.b)
            if not side_a:
                raise TopologyError(f"link {link.name!r} has dangling endpoint {link.a!r}")
            if not side_b:
                raise TopologyError(f"link {link.name!r} has dangling endpoint {link.b!r}")
            if set(side_a) & set(side_b):
                raise TopologyError(f"link {link.name!r} connects a node set to itself")
            if link.is_inherited:
                tier_a, tier_b = self.link_tier_pair(link)
                pair = {tier_a, tier_b}
                if not (pair <= set(COMPUTE_TIERS)) or len(pair) != 2:
                    raise TopologyError(
                        f"link {link.name!r} inherits its bandwidth but does not "
                        f"connect two distinct compute tiers ({tier_a!r}, {tier_b!r})"
                    )
        # Reachability: planning and execution both need device -> edge,
        # edge -> cloud and device -> cloud paths over the declared wires.
        for device in self.nodes_of_tier("device"):
            reachable = self._reachable_from(device.name)
            if not any(self.nodes[n].tier == "cloud" for n in reachable):
                raise TopologyError(f"cloud is unreachable from {device.name!r}")
            if not any(self.nodes[n].tier == "edge" for n in reachable):
                raise TopologyError(f"edge is unreachable from {device.name!r}")
        edge_primary = self.primary("edge")
        reachable = self._reachable_from(edge_primary.name)
        if not any(self.nodes[n].tier == "cloud" for n in reachable):
            raise TopologyError(f"cloud is unreachable from {edge_primary.name!r}")
        if min_model_bytes is not None:
            roomiest = max(
                (
                    node
                    for tier in COMPUTE_TIERS
                    for node in self.nodes_of_tier(tier)
                    if node.hardware is not None
                ),
                key=lambda node: node.hardware.memory_gb,
            )
            capacity = int(roomiest.hardware.memory_gb * (1024**3))
            if capacity < min_model_bytes:
                raise InsufficientMemoryError(
                    f"topology {self.name!r} cannot serve the workload: its "
                    f"roomiest compute node {roomiest.name!r} holds "
                    f"{roomiest.hardware.memory_gb:.3f} GiB but the cheapest "
                    f"single-model placement needs "
                    f"{min_model_bytes / (1024**3):.3f} GiB"
                )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _adjacency(self) -> Dict[str, List[Tuple[str, str]]]:
        # Nodes and links are immutable after construction, so the expanded
        # adjacency (tier aliases fanned out to node pairs) is built once.
        if self._adjacency_cache is not None:
            return self._adjacency_cache
        adjacency: Dict[str, List[Tuple[str, str]]] = {name: [] for name in self.nodes}
        for link in self.links.values():
            for src in self.endpoint_nodes(link.a):
                for dst in self.endpoint_nodes(link.b):
                    adjacency[src].append((dst, link.name))
                    adjacency[dst].append((src, link.name))
        self._adjacency_cache = adjacency
        return adjacency

    def _reachable_from(self, start: str) -> List[str]:
        adjacency = self._adjacency()
        seen = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbor, _ in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return sorted(seen)

    def route(
        self,
        src: str,
        dst: str,
        down_nodes: FrozenSet[str] = frozenset(),
        down_links: FrozenSet[str] = frozenset(),
    ) -> List[str]:
        """Fewest-hop path of link names from node ``src`` to node ``dst``.

        Deterministic: ties are broken by link/node declaration order.
        ``down_nodes``/``down_links`` mask failed components: the search never
        crosses a down link nor routes *through* a down node (relays
        included), and raises :class:`RouteUnavailableError` when the masked
        graph leaves the destination unreachable.
        """
        masked = bool(down_nodes) or bool(down_links)
        key: Tuple = (src, dst)
        if masked:
            key = (src, dst, tuple(sorted(down_nodes)), tuple(sorted(down_links)))
        if key in self._routes:
            return self._routes[key]
        if src not in self.nodes or dst not in self.nodes:
            missing = src if src not in self.nodes else dst
            raise TopologyError(f"unknown node {missing!r} in topology {self.name!r}")
        if src in down_nodes or dst in down_nodes:
            raise RouteUnavailableError(
                f"no route from {src!r} to {dst!r}: an endpoint is down"
            )
        if src == dst:
            self._routes[key] = []
            return []
        adjacency = self._adjacency()
        parents: Dict[str, Tuple[str, str]] = {}
        queue = deque([src])
        seen = {src}
        while queue:
            current = queue.popleft()
            for neighbor, link_name in adjacency[current]:
                if neighbor in seen:
                    continue
                if masked and (link_name in down_links or neighbor in down_nodes):
                    continue
                seen.add(neighbor)
                parents[neighbor] = (current, link_name)
                if neighbor == dst:
                    queue.clear()
                    break
                queue.append(neighbor)
        if dst not in parents:
            raise RouteUnavailableError(
                f"no route from {src!r} to {dst!r} in topology {self.name!r}"
                + (" under the current failures" if masked else "")
            )
        hops: List[str] = []
        cursor = dst
        while cursor != src:
            cursor, link_name = parents[cursor]
            hops.append(link_name)
        hops.reverse()
        self._routes[key] = hops
        return hops

    # ------------------------------------------------------------------ #
    # Failure masking
    # ------------------------------------------------------------------ #
    def masked(
        self,
        down_nodes: FrozenSet[str] = frozenset(),
        down_links: FrozenSet[str] = frozenset(),
    ) -> "Topology":
        """The degraded deployment with failed nodes/links removed.

        Down nodes disappear (taking any link that names them directly), down
        links disappear; tier-alias links survive as long as their tier still
        has live members.  The result is a fully validated topology — its
        :meth:`fingerprint` keys degraded plans separately from healthy ones
        in the plan cache — and construction raises :class:`TopologyError`
        when the degraded shape can no longer serve (a whole compute tier
        down, or the cloud unreachable), which the serving layer maps to
        failed requests.
        """
        if not down_nodes and not down_links:
            return self
        nodes = [node for node in self.nodes.values() if node.name not in down_nodes]
        links = [
            link
            for link in self.links.values()
            if link.name not in down_links
            and link.a not in down_nodes
            and link.b not in down_nodes
        ]
        return Topology(self.name, nodes, links, base_network=self.base_network)

    # ------------------------------------------------------------------ #
    # Planning view
    # ------------------------------------------------------------------ #
    def hop_mbps(
        self,
        link: LinkSpec,
        at_s: float = 0.0,
        base: Optional[NetworkCondition] = None,
    ) -> float:
        """The rate of one link at ``at_s``, resolving inherited bandwidths."""
        own = link.mbps_at(at_s)
        if own is not None:
            return own
        base = base or self.base_network
        if base is None:
            raise TopologyError(
                f"link {link.name!r} inherits its bandwidth but no base "
                f"NetworkCondition was provided"
            )
        tier_a, tier_b = self.link_tier_pair(link)
        return base.bandwidth_mbps(tier_a, tier_b)

    def link_bandwidths_at(
        self, at_s: float = 0.0, base: Optional[NetworkCondition] = None
    ) -> Dict[str, float]:
        """Every link's effective rate at ``at_s``, keyed by link name."""
        return {name: self.hop_mbps(link, at_s, base) for name, link in self.links.items()}

    def planning_condition(
        self,
        base: Optional[NetworkCondition] = None,
        at_s: float = 0.0,
        source: Optional[str] = None,
    ) -> NetworkCondition:
        """Reduce the topology to the tier-pair view the planners consume.

        The effective bandwidth of a tier pair is the store-and-forward rate
        along the route between the two tiers' representative nodes:
        ``1 / sum(1 / rate_hop)`` (serial hops add transmission times).
        ``source`` anchors the device tier at that node instead of the
        primary device, so a fleet member on its own (slower) uplink is
        planned against *its* wires.  When every tier pair is one inherited
        hop — the canonical testbed — the base condition is returned
        unchanged, which keeps the original fixed-shape API bit-identical.

        Without traced links the result does not depend on ``at_s``, so under
        the topology's own base condition it is memoized per ``source`` (at
        most one entry per device).  A traced topology, or an explicit
        ``base`` such as a bandwidth trace's condition at one instant, is
        computed on every call, so the memo cannot grow with a drifting base.
        """
        base = base or self.base_network
        if self.has_traced_links or base is not self.base_network:
            return self._planning_condition(base, at_s, source)
        condition = self._conditions.get(source)
        if condition is None:
            condition = self._conditions[source] = self._planning_condition(
                base, 0.0, source
            )
        return condition

    def _planning_condition(
        self, base: Optional[NetworkCondition], at_s: float, source: Optional[str]
    ) -> NetworkCondition:
        reps = {tier: self.primary(tier).name for tier in COMPUTE_TIERS}
        if source is not None:
            node = self.nodes.get(source)
            if node is None or node.tier != "device":
                raise TopologyError(
                    f"planning source {source!r} is not a device node of "
                    f"topology {self.name!r}"
                )
            reps["device"] = source
        pair_routes = {
            ("device", "edge"): self.route(reps["device"], reps["edge"]),
            ("edge", "cloud"): self.route(reps["edge"], reps["cloud"]),
            ("device", "cloud"): self.route(reps["device"], reps["cloud"]),
        }
        if base is not None and all(
            len(hops) == 1 and self.links[hops[0]].is_inherited
            for hops in pair_routes.values()
        ):
            return base
        effective = {}
        for pair, hops in pair_routes.items():
            if not hops:
                raise TopologyError(f"tiers {pair} map to the same node; cannot plan")
            rates = [self.hop_mbps(self.links[h], at_s, base) for h in hops]
            effective[pair] = 1.0 / sum(1.0 / rate for rate in rates)
        return NetworkCondition(
            name=f"{self.name}",
            device_edge_mbps=effective[("device", "edge")],
            edge_cloud_mbps=effective[("edge", "cloud")],
            device_cloud_mbps=effective[("device", "cloud")],
        )

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> Tuple:
        """Hashable signature of everything that shapes plans and schedules.

        Memoized: nodes and links are immutable after construction, and plan
        caches consult the fingerprint once per request.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        # astuple recurses into nested dataclasses (the energy model), so any
        # field added to HardwareSpec joins the fingerprint automatically —
        # the explicit field list this replaced silently dropped new fields.
        node_part = tuple(
            (
                node.name,
                node.tier,
                node.price_per_s,
                None if node.hardware is None else astuple(node.hardware),
            )
            for node in self.nodes.values()
        )
        link_part = []
        for link in self.links.values():
            bandwidth = link.bandwidth
            if isinstance(bandwidth, BandwidthTrace):
                signature: object = ("trace", tuple(tuple(s) for s in bandwidth.samples))
            elif bandwidth is None:
                signature = "inherit"
            else:
                signature = float(bandwidth)
            link_part.append((link.name, link.a, link.b, signature))
        self._fingerprint = (self.name, node_part, tuple(link_part))
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Topology) and self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology({self.name!r}, {len(self.nodes)} nodes, {len(self.links)} links)"

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #
    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to the JSON dialect :meth:`from_json` accepts."""
        payload: Dict[str, object] = {"name": self.name}
        if self.base_network is not None:
            condition = self.base_network
            try:
                registered = get_condition(condition.name)
            except KeyError:
                registered = None
            if registered == condition:
                payload["network"] = condition.name
            else:
                payload["network"] = {
                    "name": condition.name,
                    "device_edge_mbps": condition.device_edge_mbps,
                    "edge_cloud_mbps": condition.edge_cloud_mbps,
                    "device_cloud_mbps": condition.device_cloud_mbps,
                }
        nodes = []
        for node in self.nodes.values():
            entry: Dict[str, object] = {"name": node.name, "tier": node.tier}
            if node.hardware is not None:
                preset = hardware_preset_name(node.hardware)
                entry["hardware"] = preset or hardware_to_json(node.hardware)
            if node.price_per_s is not None:
                entry["price_per_s"] = node.price_per_s
            nodes.append(entry)
        links = []
        for link in self.links.values():
            entry = {"name": link.name, "between": [link.a, link.b]}
            if isinstance(link.bandwidth, BandwidthTrace):
                entry["trace"] = [list(sample) for sample in link.bandwidth.samples]
            elif link.bandwidth is not None:
                entry["mbps"] = float(link.bandwidth)
            links.append(entry)
        payload["nodes"] = nodes
        payload["links"] = links
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(
        cls, data: Union[str, Mapping], network: Optional[NetworkCondition | str] = None
    ) -> "Topology":
        """Parse a topology from a JSON string or an already-decoded mapping.

        A topology document is a complete artifact: when it declares a
        ``"network"``, that base condition wins; ``network`` is only the
        fallback for documents that leave it out.  Inherited links need one
        of the two to be present only when they are actually priced.
        """
        if isinstance(data, str):
            try:
                payload = json.loads(data)
            except json.JSONDecodeError as error:
                raise TopologyError(f"invalid topology JSON: {error}") from None
        else:
            payload = dict(data)
        if not isinstance(payload, dict):
            raise TopologyError("topology JSON must be an object")

        base: Optional[NetworkCondition] = None
        raw_network = payload.get("network", network)
        if isinstance(raw_network, NetworkCondition):
            base = raw_network
        elif isinstance(raw_network, str):
            base = get_condition(raw_network)
        elif isinstance(raw_network, Mapping):
            base = NetworkCondition(
                name=str(raw_network.get("name", "custom")),
                device_edge_mbps=float(raw_network["device_edge_mbps"]),
                edge_cloud_mbps=float(raw_network["edge_cloud_mbps"]),
                device_cloud_mbps=float(raw_network["device_cloud_mbps"]),
            )

        nodes = []
        for entry in payload.get("nodes", []):
            hardware = entry.get("hardware")
            if isinstance(hardware, str):
                hardware = get_hardware(hardware)
            elif isinstance(hardware, Mapping):
                hardware = hardware_from_json(hardware)
            price = entry.get("price_per_s")
            nodes.append(
                NodeSpec(
                    name=entry["name"],
                    tier=entry["tier"],
                    hardware=hardware,
                    price_per_s=None if price is None else float(price),
                )
            )

        links = []
        for entry in payload.get("links", []):
            between = entry.get("between")
            if not isinstance(between, (list, tuple)) or len(between) != 2:
                raise TopologyError(
                    f"link {entry.get('name')!r} needs a two-element 'between' list"
                )
            bandwidth: Bandwidth = None
            if "trace" in entry:
                bandwidth = BandwidthTrace(
                    samples=[(float(t), float(v)) for t, v in entry["trace"]]
                )
            elif "mbps" in entry:
                bandwidth = float(entry["mbps"])
            links.append(
                LinkSpec(name=entry["name"], a=between[0], b=between[1], bandwidth=bandwidth)
            )

        return cls(
            name=str(payload.get("name", "custom")),
            nodes=nodes,
            links=links,
            base_network=base,
        )

    # ------------------------------------------------------------------ #
    # Builders / presets
    # ------------------------------------------------------------------ #
    @classmethod
    def three_tier(
        cls,
        num_edge_nodes: int = 1,
        network: NetworkCondition | str = "wifi",
        device_hardware: HardwareSpec = RASPBERRY_PI_4,
        edge_hardware: HardwareSpec = EDGE_DESKTOP,
        cloud_hardware: HardwareSpec = CLOUD_SERVER,
    ) -> "Topology":
        """The paper's canonical testbed of section IV, as a topology.

        All three wires inherit their rates from ``network``, so planning,
        execution and plan-cache keys are bit-identical to the original
        fixed-shape ``Cluster.build`` API.
        """
        if num_edge_nodes <= 0:
            raise TopologyError("num_edge_nodes must be positive")
        condition = get_condition(network) if isinstance(network, str) else network
        nodes = [NodeSpec("device-0", "device", device_hardware)]
        nodes += [
            NodeSpec(f"edge-{i}", "edge", edge_hardware) for i in range(num_edge_nodes)
        ]
        nodes.append(NodeSpec("cloud-0", "cloud", cloud_hardware))
        return cls("three_tier", nodes, canonical_links(), base_network=condition)

    @classmethod
    def multi_device(
        cls,
        num_devices: int = 3,
        num_edge_nodes: int = 4,
        network: NetworkCondition | str = "wifi",
        device_mbps: Optional[Sequence[float]] = None,
        device_hardware: HardwareSpec = RASPBERRY_PI_4,
        edge_hardware: HardwareSpec = EDGE_DESKTOP,
        cloud_hardware: HardwareSpec = CLOUD_SERVER,
    ) -> "Topology":
        """A fleet of devices sharing one edge LAN and one cloud.

        Each device owns its *own* uplink into the LAN and its own direct
        cloud link (default rates: the Table III values of ``network``), so
        per-device congestion is modelled per wire instead of on one shared
        tier-pair number.
        """
        if num_devices <= 0:
            raise TopologyError("num_devices must be positive")
        if num_edge_nodes <= 0:
            raise TopologyError("num_edge_nodes must be positive")
        condition = get_condition(network) if isinstance(network, str) else network
        if device_mbps is not None and len(device_mbps) != num_devices:
            raise TopologyError("device_mbps must have one rate per device")
        nodes = [NodeSpec(f"device-{i}", "device", device_hardware) for i in range(num_devices)]
        nodes += [NodeSpec(f"edge-{i}", "edge", edge_hardware) for i in range(num_edge_nodes)]
        nodes.append(NodeSpec("cloud-0", "cloud", cloud_hardware))
        links = []
        for i in range(num_devices):
            lan_rate = device_mbps[i] if device_mbps else condition.device_edge_mbps
            links.append(LinkSpec(f"device-{i}-lan", f"device-{i}", "edge", lan_rate))
            links.append(
                LinkSpec(
                    f"device-{i}-cloud", f"device-{i}", "cloud", condition.device_cloud_mbps
                )
            )
        links.append(LinkSpec("edge-cloud", "edge", "cloud"))
        return cls("multi_device", nodes, links, base_network=condition)

    @classmethod
    def hetero_edge(
        cls,
        network: NetworkCondition | str = "wifi",
        speed_factors: Sequence[float] = (1.0, 0.75, 0.5, 0.25),
        device_hardware: HardwareSpec = RASPBERRY_PI_4,
        edge_hardware: HardwareSpec = EDGE_DESKTOP,
        cloud_hardware: HardwareSpec = CLOUD_SERVER,
    ) -> "Topology":
        """An edge rack of unequal machines (same wires as the canonical testbed).

        Each edge node's compute throughput is ``edge_hardware`` scaled by the
        matching factor; the serving engine slows that node's share of VSM
        tile stacks accordingly.
        """
        if not speed_factors:
            raise TopologyError("need at least one edge speed factor")
        condition = get_condition(network) if isinstance(network, str) else network
        nodes = [NodeSpec("device-0", "device", device_hardware)]
        for i, factor in enumerate(speed_factors):
            hardware = edge_hardware if factor == 1.0 else edge_hardware.scaled(factor)
            nodes.append(NodeSpec(f"edge-{i}", "edge", hardware))
        nodes.append(NodeSpec("cloud-0", "cloud", cloud_hardware))
        return cls("hetero_edge", nodes, canonical_links(), base_network=condition)

    @classmethod
    def device_gateway(
        cls,
        network: NetworkCondition | str = "wifi",
        num_edge_nodes: int = 2,
        device_gateway_mbps: Optional[float] = None,
        gateway_edge_mbps: Optional[float] = None,
        device_hardware: HardwareSpec = RASPBERRY_PI_4,
        edge_hardware: HardwareSpec = EDGE_DESKTOP,
        cloud_hardware: HardwareSpec = CLOUD_SERVER,
    ) -> "Topology":
        """A multi-hop chain: device -> gateway -> edge -> cloud.

        The gateway is a non-computing relay (a home router, a cell tower):
        every byte leaving the device crosses two wires before reaching the
        edge and three before the cloud, so the planning view's effective
        tier-pair rates are the store-and-forward harmonic sums.
        """
        if num_edge_nodes <= 0:
            raise TopologyError("num_edge_nodes must be positive")
        condition = get_condition(network) if isinstance(network, str) else network
        nodes = [
            NodeSpec("device-0", "device", device_hardware),
            NodeSpec("gateway-0", "relay"),
        ]
        nodes += [NodeSpec(f"edge-{i}", "edge", edge_hardware) for i in range(num_edge_nodes)]
        nodes.append(NodeSpec("cloud-0", "cloud", cloud_hardware))
        links = [
            LinkSpec(
                "device-gateway",
                "device-0",
                "gateway-0",
                device_gateway_mbps
                if device_gateway_mbps is not None
                else condition.device_edge_mbps,
            ),
            LinkSpec(
                "gateway-edge",
                "gateway-0",
                "edge",
                gateway_edge_mbps
                if gateway_edge_mbps is not None
                else condition.device_edge_mbps * 2,
            ),
            LinkSpec("edge-cloud", "edge", "cloud"),
        ]
        return cls("device_gateway", nodes, links, base_network=condition)


# --------------------------------------------------------------------------- #
# Preset registry
# --------------------------------------------------------------------------- #
TOPOLOGY_PRESETS: Dict[str, Callable[..., Topology]] = {
    "three_tier": Topology.three_tier,
    "multi_device": Topology.multi_device,
    "hetero_edge": Topology.hetero_edge,
    "device_gateway": Topology.device_gateway,
}


def list_topologies() -> List[str]:
    """Names of the built-in topology presets."""
    return list(TOPOLOGY_PRESETS)


def get_topology(name: str, **kwargs) -> Topology:
    """Build a preset topology by name (kwargs forwarded to the builder)."""
    try:
        factory = TOPOLOGY_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown topology preset {name!r}; available: {list_topologies()}"
        ) from None
    return factory(**kwargs)


def load_topology(
    spec: Union[str, Topology],
    network: Optional[NetworkCondition | str] = None,
) -> Topology:
    """Resolve a topology from a preset name, a JSON file path, or pass through.

    This is what the CLI's ``--topology`` flag accepts: ``hetero_edge`` (a
    preset, built under ``network``) or ``deployments/fleet.json`` (a file in
    the JSON dialect of :meth:`Topology.to_json`).
    """
    if isinstance(spec, Topology):
        return spec
    if spec in TOPOLOGY_PRESETS:
        if network is not None:
            return get_topology(spec, network=network)
        return get_topology(spec)
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as handle:
            return Topology.from_json(handle.read(), network=network)
    raise KeyError(
        f"unknown topology {spec!r}: not a preset ({list_topologies()}) "
        f"and not a readable JSON file"
    )
