"""Elastic fleets: declarative capacity events, autoscaling and load balancing.

The fault machinery of :mod:`repro.network.faults` made *failures* first-class
simulation events; this module does the same for *capacity*.  Production
device–edge–cloud fleets are not fixed: replicas are provisioned under load
and drained when traffic ebbs.  Three pieces cover it:

* :class:`NodeJoin` / :class:`NodeDrain` — declarative timed elasticity
  events collected in an :class:`ElasticitySchedule` (same JSON round-trip /
  ``validate_against`` / ``state_at`` / ``cursor`` contract as a
  :class:`~repro.network.faults.FaultSchedule`).  A node whose first event is
  a join starts *parked* outside the fleet and accepts work only after its
  provisioning delay elapses; a drain stops new admissions, lets in-flight
  work finish, then takes the node down gracefully — scale-in is a graceful
  NodeDown, so the failover/masking/fingerprint plumbing built for faults
  carries the planning side.
* :class:`Autoscaler` — a reactive policy object the serving engine ticks on
  a fixed cadence.  It watches per-replica utilisation or queue depth over a
  sliding window and emits join/drain decisions for the edge replica group,
  with a cooldown, min/max replica bounds and a provisioning delay.
* :class:`LoadBalancer` policies — round-robin, join-shortest-queue and
  power-of-two-choices — resolving each request's group-bound work to a
  replica at dispatch time.  The classic results apply: JSQ is near-optimal
  but needs global queue state, power-of-two sampling gets most of the
  benefit from two probes.

The schedule and policies are purely declarative; the serving engine of
:mod:`repro.runtime.serving` consumes them as simulation events, and the
planning layer steps one :meth:`ElasticitySchedule.cursor` through the
arrivals so requests are planned against the fleet shape in effect at their
arrival (through the same masked-fingerprint plan-cache path degraded
deployments use).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import (
    ClassVar,
    Deque,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.network.faults import ScheduleCursor, TimedSchedule

#: Event kinds an elasticity schedule may contain, in serialization spelling.
ELASTICITY_KINDS = ("node_join", "node_drain")

#: Default provisioning delay between a join decision and the node accepting
#: work (container pull + model load + health check, in simulated seconds).
DEFAULT_PROVISION_S = 2.0


class ElasticityError(ValueError):
    """Raised when an elasticity schedule or policy is structurally invalid."""


@dataclass(frozen=True)
class ElasticityEvent:
    """One timed capacity change: at ``time_s``, node ``target`` joins or drains.

    Use the concrete subclasses — :class:`NodeJoin`, :class:`NodeDrain` —
    rather than this base directly.
    """

    time_s: float
    target: str
    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if self.kind not in ELASTICITY_KINDS:
            raise ElasticityError(
                "abstract ElasticityEvent cannot be scheduled; use NodeJoin/NodeDrain"
            )
        if self.time_s < 0:
            raise ElasticityError(f"elasticity time cannot be negative ({self.time_s})")
        if not self.target:
            raise ElasticityError("elasticity event needs a non-empty target name")

    @property
    def is_join(self) -> bool:
        return self.kind == "node_join"


@dataclass(frozen=True)
class NodeJoin(ElasticityEvent):
    """Node ``target`` is provisioned at ``time_s``.

    The node accepts work from ``time_s + provision_s`` onward.  A target
    whose *first* scheduled event is a join starts parked outside the fleet
    (down from t=0) — declaring spare capacity that exists in the topology
    but is not paid for until it joins.
    """

    provision_s: float = DEFAULT_PROVISION_S
    kind = "node_join"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.provision_s < 0:
            raise ElasticityError(
                f"provisioning delay cannot be negative ({self.provision_s})"
            )

    @property
    def ready_s(self) -> float:
        """The time the joined node starts accepting work."""
        return self.time_s + self.provision_s


class NodeDrain(ElasticityEvent):
    """Node ``target`` drains from ``time_s``: no new work, in-flight work
    finishes, then the node leaves the fleet gracefully (never aborting a
    request, unlike a crash)."""

    kind = "node_drain"


_EVENT_TYPES: Dict[str, type] = {"node_join": NodeJoin, "node_drain": NodeDrain}


class ElasticitySchedule(TimedSchedule):
    """An ordered, validated list of timed elasticity events.

    Join/drain events are idempotent at the engine level: a join for an
    already-active node or a drain for an already-draining/parked one is a
    no-op, and a drain that would empty a tier is refused — so hand-written
    schedules compose with autoscaler decisions without bookkeeping.
    """

    event_base = ElasticityEvent
    kinds = ELASTICITY_KINDS
    error = ElasticityError
    family = "elasticity"

    def __init__(
        self, events: Sequence[ElasticityEvent] = (), name: str = "elasticity"
    ) -> None:
        super().__init__(events, name=name)

    # ------------------------------------------------------------------ #
    def initially_parked(self) -> FrozenSet[str]:
        """Targets whose first event is a join: they start outside the fleet."""
        first_kind: Dict[str, str] = {}
        for event in self.events:
            first_kind.setdefault(event.target, event.kind)
        return frozenset(
            target for target, kind in first_kind.items() if kind == "node_join"
        )

    def cursor(self) -> ScheduleCursor:
        """A forward cursor whose ``advance(t)`` is ``(inactive_nodes,)``.

        Transitions take effect when they reach the planning view: a join at
        its ``ready_s``, a drain at its ``time_s``; same-instant transitions
        apply in schedule order.  Feed it non-decreasing times (a
        workload's arrivals) to replay the schedule once for a whole stream.
        """
        ordered = sorted(
            (event.ready_s if event.is_join else event.time_s, order)
            for order, event in enumerate(self.events)
        )
        transitions = []
        for effective_s, order in ordered:
            event = self.events[order]
            transitions.append((effective_s, 0, event.target, not event.is_join))
        return ScheduleCursor(transitions, (self.initially_parked(),))

    def state_at(self, time_s: float) -> FrozenSet[str]:
        """Node names *inactive* (parked, provisioning or drained) at ``time_s``.

        A joined node counts as active only once its provisioning delay has
        elapsed; a draining node counts as inactive from the drain instant
        (it stops admitting new work immediately, which is what the planning
        layer cares about).  Events effective exactly at ``time_s`` are
        already applied, matching :meth:`FaultSchedule.state_at`.
        """
        return self.cursor().advance(time_s)[0]

    def validate_against(self, topology) -> None:
        """Check every event targets a compute node the topology declares."""
        for event in self.events:
            spec = topology.nodes.get(event.target)
            if spec is None:
                raise ElasticityError(
                    f"elasticity schedule {self.name!r} targets unknown node "
                    f"{event.target!r} (topology {topology.name!r})"
                )
            if spec.tier == "relay":
                raise ElasticityError(
                    f"elasticity schedule {self.name!r} targets relay node "
                    f"{event.target!r}; only compute nodes join or drain"
                )

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #
    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to the JSON dialect :meth:`from_json` accepts."""
        events = []
        for event in self.events:
            entry: Dict[str, object] = {
                "at": event.time_s,
                "kind": event.kind,
                "target": event.target,
            }
            if event.is_join:
                entry["provision_s"] = event.provision_s
            events.append(entry)
        return json.dumps({"name": self.name, "events": events}, indent=indent)

    @classmethod
    def from_json(cls, data: Union[str, Mapping]) -> "ElasticitySchedule":
        """Parse a schedule from a JSON string or an already-decoded mapping."""
        if isinstance(data, str):
            try:
                payload = json.loads(data)
            except json.JSONDecodeError as error:
                raise ElasticityError(
                    f"invalid elasticity schedule JSON: {error}"
                ) from None
        else:
            payload = dict(data)
        if not isinstance(payload, dict):
            raise ElasticityError("elasticity schedule JSON must be an object")
        events: List[ElasticityEvent] = []
        for entry in payload.get("events", []):
            kind = entry.get("kind")
            if kind not in _EVENT_TYPES:
                raise ElasticityError(
                    f"unknown elasticity kind {kind!r}; expected one of {ELASTICITY_KINDS}"
                )
            if kind == "node_join":
                events.append(
                    NodeJoin(
                        float(entry["at"]),
                        str(entry["target"]),
                        float(entry.get("provision_s", DEFAULT_PROVISION_S)),
                    )
                )
            else:
                events.append(NodeDrain(float(entry["at"]), str(entry["target"])))
        return cls(events, name=str(payload.get("name", "elasticity")))


def load_elasticity_schedule(
    spec: Union[str, ElasticitySchedule], topology=None
) -> ElasticitySchedule:
    """Resolve an elasticity schedule from a spec or pass one through.

    This is what ``repro serve --elasticity`` accepts: a path to a JSON file
    in the dialect of :meth:`ElasticitySchedule.to_json`, or an existing
    :class:`ElasticitySchedule` (returned unchanged, validated when a
    topology is supplied).
    """
    import os

    if isinstance(spec, ElasticitySchedule):
        if topology is not None:
            spec.validate_against(topology)
        return spec
    if isinstance(spec, str) and os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as handle:
                schedule = ElasticitySchedule.from_json(handle.read())
        except OSError as error:  # pragma: no cover - racy filesystem
            raise ElasticityError(
                f"cannot read elasticity schedule {spec!r}: {error}"
            ) from None
        if topology is not None:
            schedule.validate_against(topology)
        return schedule
    raise ElasticityError(
        f"unknown elasticity schedule {spec!r}: not a readable JSON file"
    )


# --------------------------------------------------------------------------- #
# Load balancing
# --------------------------------------------------------------------------- #
#: Balancer policies understood by :func:`resolve_balancer`.
BALANCER_NAMES = ("rr", "jsq", "p2c")


def _queue_depth(member) -> int:
    """Outstanding work at a replica: queued tasks plus the one in service."""
    return len(member.queue) + (1 if member.busy else 0)


class LoadBalancer:
    """Pluggable policy resolving a request's group-bound work to a replica.

    ``members`` are the serving engine's per-node states (exposing ``node``,
    ``queue`` and ``busy``) for the live, non-draining members of the replica
    group, in topology declaration order.  ``choose`` is called once per
    request — the request's whole group-bound stage sticks to the chosen
    replica, so consecutive layers never ping-pong between members.
    """

    name: ClassVar[str] = ""

    def reset(self) -> None:
        """Return to the initial state (called once per simulation run)."""

    def choose(self, members: Sequence, time_s: float):
        raise NotImplementedError


class RoundRobinBalancer(LoadBalancer):
    """Cycle through members in declaration order, oblivious to load."""

    name = "rr"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def choose(self, members: Sequence, time_s: float):
        member = members[self._next % len(members)]
        self._next += 1
        return member


class JoinShortestQueueBalancer(LoadBalancer):
    """Send each request to the member with the least outstanding work.

    Optimal-ish but needs global queue state; ties break toward the earliest
    member in declaration order.
    """

    name = "jsq"

    def choose(self, members: Sequence, time_s: float):
        # Hand-rolled min with an early exit: depth can't go below zero and
        # ties break toward the earliest member, so an idle member ends the
        # scan — and an idle *first* member (the steady-state case on an
        # unsaturated group) never starts it.
        best = members[0]
        best_depth = len(best.queue) + (1 if best.busy else 0)
        if best_depth:
            for member in members[1:]:
                depth = len(member.queue) + (1 if member.busy else 0)
                if depth < best_depth:
                    best = member
                    best_depth = depth
                    if not depth:
                        break
        return best


class PowerOfTwoBalancer(LoadBalancer):
    """Probe two random members, pick the less loaded (power of two choices).

    Mitzenmacher's classic result: two random probes get exponentially close
    to JSQ's tail behaviour without global state.  Seeded, so runs are
    reproducible artefacts like everything else in the simulator.
    """

    name = "p2c"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def choose(self, members: Sequence, time_s: float):
        count = len(members)
        if count == 1:
            return members[0]
        first, second = self._rng.choice(count, size=2, replace=False)
        a, b = members[int(first)], members[int(second)]
        if _queue_depth(b) < _queue_depth(a):
            return b
        return a


_BALANCERS: Dict[str, type] = {
    "rr": RoundRobinBalancer,
    "jsq": JoinShortestQueueBalancer,
    "p2c": PowerOfTwoBalancer,
}


def resolve_balancer(spec: Union[str, LoadBalancer, None] = None) -> LoadBalancer:
    """Resolve a balancer policy from a name, pass an instance through.

    ``None`` resolves to round-robin, the oblivious default.
    """
    if spec is None:
        return RoundRobinBalancer()
    if isinstance(spec, LoadBalancer):
        return spec
    if isinstance(spec, str):
        try:
            return _BALANCERS[spec]()
        except KeyError:
            raise ElasticityError(
                f"unknown balancer {spec!r}; expected one of {BALANCER_NAMES}"
            ) from None
    raise ElasticityError(f"not a balancer spec: {spec!r}")


# --------------------------------------------------------------------------- #
# Autoscaling
# --------------------------------------------------------------------------- #
#: Autoscaler policies understood by :func:`resolve_autoscaler`.
AUTOSCALER_POLICIES = ("target-util", "queue-threshold")

#: Default (scale_up_at, scale_down_at) thresholds per policy.  target-util
#: watches the mean busy fraction of active replicas; queue-threshold watches
#: the mean outstanding work (queued + in service) per replica.
_DEFAULT_THRESHOLDS = {
    "target-util": (0.75, 0.30),
    "queue-threshold": (3.0, 0.5),
}


@dataclass
class Autoscaler:
    """Reactive scaling policy over the edge replica group.

    The serving engine ticks :meth:`decide` every ``interval_s`` of simulated
    time with the group's mean utilisation and queue depth since the last
    tick.  Samples are smoothed over a sliding ``window`` of ticks; a
    decision fires when the smoothed metric crosses a threshold, subject to a
    ``cooldown_s`` between decisions and the ``min_replicas`` /
    ``max_replicas`` bounds.  Scale-ups pay ``provision_s`` before the new
    replica accepts work; scale-downs drain gracefully.

    ``initial_replicas`` sets how many members start active (the rest start
    parked); it defaults to ``min_replicas`` so an idle fleet starts small.
    """

    policy: str = "target-util"
    interval_s: float = 0.5
    window: int = 4
    scale_up_at: Optional[float] = None
    scale_down_at: Optional[float] = None
    cooldown_s: float = 2.0
    min_replicas: int = 1
    max_replicas: Optional[int] = None
    initial_replicas: Optional[int] = None
    provision_s: float = DEFAULT_PROVISION_S

    def __post_init__(self) -> None:
        if self.policy not in AUTOSCALER_POLICIES:
            raise ElasticityError(
                f"unknown autoscaler policy {self.policy!r}; "
                f"expected one of {AUTOSCALER_POLICIES}"
            )
        if self.interval_s <= 0:
            raise ElasticityError("autoscaler interval must be positive")
        if self.window < 1:
            raise ElasticityError("autoscaler window must be at least 1 tick")
        if self.cooldown_s < 0:
            raise ElasticityError("autoscaler cooldown cannot be negative")
        if self.min_replicas < 1:
            raise ElasticityError("autoscaler needs at least one replica")
        if self.max_replicas is not None and self.max_replicas < self.min_replicas:
            raise ElasticityError("max_replicas cannot be below min_replicas")
        if self.initial_replicas is not None and self.initial_replicas < 1:
            raise ElasticityError("initial_replicas must be at least 1")
        if self.provision_s < 0:
            raise ElasticityError("provisioning delay cannot be negative")
        up_default, down_default = _DEFAULT_THRESHOLDS[self.policy]
        if self.scale_up_at is None:
            self.scale_up_at = up_default
        if self.scale_down_at is None:
            self.scale_down_at = down_default
        if self.scale_down_at >= self.scale_up_at:
            raise ElasticityError(
                f"scale_down_at ({self.scale_down_at}) must be below "
                f"scale_up_at ({self.scale_up_at})"
            )
        self._samples: Deque[float] = deque(maxlen=self.window)
        self._last_scale_s: Optional[float] = None

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Reset the sliding window and cooldown (once per simulation run)."""
        self._samples = deque(maxlen=self.window)
        self._last_scale_s = None

    def initial_active(self, group_size: int) -> int:
        """How many group members start active for a group of ``group_size``."""
        start = self.initial_replicas if self.initial_replicas is not None else self.min_replicas
        cap = group_size if self.max_replicas is None else min(self.max_replicas, group_size)
        return max(1, min(start, cap))

    def decide(
        self,
        utilisation: float,
        queue_depth: float,
        active: int,
        spare: int,
        time_s: float,
    ) -> Optional[str]:
        """One tick: return ``"up"``, ``"down"`` or ``None``.

        ``active`` counts live non-draining members, ``spare`` counts parked
        or drained members available to join.
        """
        metric = utilisation if self.policy == "target-util" else queue_depth
        self._samples.append(metric)
        if (
            self._last_scale_s is not None
            and time_s - self._last_scale_s < self.cooldown_s
        ):
            return None
        smoothed = sum(self._samples) / len(self._samples)
        if (
            smoothed > self.scale_up_at
            and spare > 0
            and (self.max_replicas is None or active < self.max_replicas)
        ):
            self._last_scale_s = time_s
            self._samples.clear()
            return "up"
        if smoothed < self.scale_down_at and active > self.min_replicas:
            self._last_scale_s = time_s
            self._samples.clear()
            return "down"
        return None


def resolve_autoscaler(
    spec: Union[str, Autoscaler, None]
) -> Optional[Autoscaler]:
    """Resolve an autoscaler from a policy name, pass an instance through."""
    if spec is None or isinstance(spec, Autoscaler):
        return spec
    if isinstance(spec, str):
        return Autoscaler(policy=spec)
    raise ElasticityError(f"not an autoscaler spec: {spec!r}")
