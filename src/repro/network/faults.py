"""Declarative failure injection: timed faults over a deployment topology.

The serving engine of :mod:`repro.runtime.serving` simulates a deployment in
which, until now, every machine and wire stayed healthy forever.  Production
edge/cloud fleets do not behave like that: nodes crash and reboot, wires go
dark and come back.  This module makes the *failure scenario* itself a
first-class, serializable artifact, mirroring how
:class:`~repro.network.topology.Topology` made the deployment declarative:

* :class:`NodeDown` / :class:`NodeUp` / :class:`LinkDown` / :class:`LinkUp` —
  one timed fault each, targeting a topology node or link by name;
* :class:`FaultSchedule` — the ordered event list with JSON round-tripping
  (the dialect ``repro serve --faults schedule.json`` consumes), point-in-time
  state queries (:meth:`FaultSchedule.state_at`) and a forward cursor over a
  sorted stream of times (:meth:`FaultSchedule.cursor`), and validation
  against a topology;
* :meth:`FaultSchedule.chaos` — a seeded random generator of crash/recover
  cycles with per-tier mean-time-between-failure rates, so chaos experiments
  are reproducible artefacts too (``repro serve --faults chaos:<seed>``).

The schedule is purely declarative; the serving engine consumes it as
first-class simulation events (aborting in-flight work, triggering failover
replanning) and the planning layer steps one :meth:`~FaultSchedule.cursor`
through the arrivals to plan each request against the deployment shape in
effect at its arrival.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

#: Event kinds a schedule may contain, in serialization spelling.
FAULT_KINDS = ("node_down", "node_up", "link_down", "link_up")


class FaultScheduleError(ValueError):
    """Raised when a fault schedule is structurally invalid."""


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: at ``time_s``, ``target`` changes availability.

    ``target`` names a topology node (for ``node_*`` kinds) or link (for
    ``link_*`` kinds).  Use the concrete subclasses — :class:`NodeDown`,
    :class:`NodeUp`, :class:`LinkDown`, :class:`LinkUp` — rather than this
    base directly.
    """

    time_s: float
    target: str
    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultScheduleError(
                f"abstract FaultEvent cannot be scheduled; use one of "
                f"NodeDown/NodeUp/LinkDown/LinkUp"
            )
        if self.time_s < 0:
            raise FaultScheduleError(f"fault time cannot be negative ({self.time_s})")
        if not self.target:
            raise FaultScheduleError("fault needs a non-empty target name")

    @property
    def is_node_event(self) -> bool:
        return self.kind.startswith("node_")

    @property
    def is_failure(self) -> bool:
        """True for down events, False for recoveries."""
        return self.kind.endswith("_down")


class NodeDown(FaultEvent):
    """Node ``target`` crashes at ``time_s``: in-flight work on it aborts."""

    kind = "node_down"


class NodeUp(FaultEvent):
    """Node ``target`` recovers at ``time_s`` and may be scheduled again."""

    kind = "node_up"


class LinkDown(FaultEvent):
    """Link ``target`` goes dark at ``time_s``: in-flight transfers abort."""

    kind = "link_down"


class LinkUp(FaultEvent):
    """Link ``target`` comes back at ``time_s`` and routes over it reopen."""

    kind = "link_up"


_EVENT_TYPES: Dict[str, type] = {
    "node_down": NodeDown,
    "node_up": NodeUp,
    "link_down": LinkDown,
    "link_up": LinkUp,
}


class TimedSchedule:
    """Shared container contract of the declarative timed-event schedules.

    :class:`FaultSchedule` (failures) and
    :class:`repro.runtime.elasticity.ElasticitySchedule` (capacity changes)
    are both ordered lists of timed events: kept sorted by time (stably, so
    same-time events apply in declaration order), truthy only when non-empty
    (an empty schedule behaves exactly like no schedule at all), with a
    horizon.  Subclasses declare which event family they accept and own the
    event semantics, point-in-time queries and JSON dialects.
    """

    #: Event base class instances must derive from.
    event_base: ClassVar[type] = object
    #: Serialization spellings of the accepted event kinds.
    kinds: ClassVar[Tuple[str, ...]] = ()
    #: Error type raised on structurally invalid input.
    error: ClassVar[type] = ValueError
    #: Human word for the family, used in error messages ("fault", ...).
    family: ClassVar[str] = "timed"

    def __init__(self, events: Sequence = (), name: str = "events") -> None:
        for event in events:
            if not isinstance(event, self.event_base) or event.kind not in self.kinds:
                raise self.error(f"not a {self.family} event: {event!r}")
        self.name = name
        self.events: List = sorted(events, key=lambda e: e.time_s)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        # A schedule object with zero events behaves like "no schedule";
        # `serve(faults=FaultSchedule([]))` stays bit-identical to
        # `serve(faults=None)`, and the same holds for elasticity.
        return bool(self.events)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, type(self))
            and self.name == other.name
            and self.events == other.events
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {len(self.events)} events)"

    @property
    def horizon_s(self) -> float:
        """Time of the last scheduled event."""
        return self.events[-1].time_s if self.events else 0.0


class ScheduleCursor:
    """Forward replay of a timed schedule over non-decreasing query times.

    ``transitions`` are ``(effective_s, slot, target, down)`` tuples in the
    order they apply; ``initial`` holds one starting set of down targets per
    slot.  :meth:`advance` applies only the transitions it has not applied
    yet, so stepping one cursor through a sorted stream of times costs
    O(events) in total instead of a full replay per query, and it returns the
    very same state tuple (and frozensets) while nothing new takes effect.
    Transitions effective exactly at the query time are already applied.
    """

    __slots__ = ("_transitions", "_next", "_time_s", "_sets", "_state")

    def __init__(
        self,
        transitions: Sequence[Tuple[float, int, str, bool]],
        initial: Sequence[FrozenSet[str]],
    ) -> None:
        self._transitions = transitions
        self._next = 0
        self._time_s = float("-inf")
        self._sets = [set(targets) for targets in initial]
        self._state: Tuple[FrozenSet[str], ...] = tuple(
            frozenset(targets) for targets in initial
        )

    def advance(self, time_s: float) -> Tuple[FrozenSet[str], ...]:
        """The per-slot down sets in effect at ``time_s``.

        Raises :class:`ValueError` when ``time_s`` is earlier than the
        previous query: a forward cursor cannot un-apply events.
        """
        if time_s < self._time_s:
            raise ValueError(
                f"schedule cursor is at {self._time_s}s; cannot move back to {time_s}s"
            )
        self._time_s = time_s
        transitions, sets = self._transitions, self._sets
        start = index = self._next
        while index < len(transitions) and transitions[index][0] <= time_s:
            _, slot, target, down = transitions[index]
            if down:
                sets[slot].add(target)
            else:
                sets[slot].discard(target)
            index += 1
        if index != start:
            self._next = index
            state = tuple(frozenset(targets) for targets in sets)
            if state != self._state:
                self._state = state
        return self._state


class FaultSchedule(TimedSchedule):
    """An ordered, validated list of timed fault events.

    Down/up events are idempotent: a second ``NodeDown`` for an already-down
    node changes nothing, and an ``up`` for a healthy target is a no-op —
    which lets seeded generators and hand-written schedules compose without
    bookkeeping.
    """

    event_base = FaultEvent
    kinds = FAULT_KINDS
    error = FaultScheduleError
    family = "fault"

    def __init__(self, events: Sequence[FaultEvent] = (), name: str = "faults") -> None:
        super().__init__(events, name=name)

    # ------------------------------------------------------------------ #
    def cursor(self) -> ScheduleCursor:
        """A forward cursor whose ``advance(t)`` is ``(down_nodes, down_links)``.

        Feed it non-decreasing times (a workload's arrivals) to replay the
        schedule once for a whole stream.
        """
        transitions = [
            (event.time_s, 0 if event.is_node_event else 1, event.target, event.is_failure)
            for event in self.events
        ]
        return ScheduleCursor(transitions, (frozenset(), frozenset()))

    def state_at(self, time_s: float) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """The ``(down_nodes, down_links)`` in effect at ``time_s``.

        Events scheduled exactly at ``time_s`` are already applied (a request
        arriving the instant a node dies sees it dead, matching the serving
        engine's fault-before-arrival tie-break).
        """
        return self.cursor().advance(time_s)

    def validate_against(self, topology) -> None:
        """Check every event targets a node/link the topology declares."""
        for event in self.events:
            pool = topology.nodes if event.is_node_event else topology.links
            if event.target not in pool:
                what = "node" if event.is_node_event else "link"
                raise FaultScheduleError(
                    f"fault schedule {self.name!r} targets unknown {what} "
                    f"{event.target!r} (topology {topology.name!r})"
                )

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #
    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to the JSON dialect :meth:`from_json` accepts."""
        payload = {
            "name": self.name,
            "events": [
                {"at": event.time_s, "kind": event.kind, "target": event.target}
                for event in self.events
            ],
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, data: Union[str, Mapping]) -> "FaultSchedule":
        """Parse a schedule from a JSON string or an already-decoded mapping."""
        if isinstance(data, str):
            try:
                payload = json.loads(data)
            except json.JSONDecodeError as error:
                raise FaultScheduleError(f"invalid fault schedule JSON: {error}") from None
        else:
            payload = dict(data)
        if not isinstance(payload, dict):
            raise FaultScheduleError("fault schedule JSON must be an object")
        events = []
        for entry in payload.get("events", []):
            kind = entry.get("kind")
            if kind not in _EVENT_TYPES:
                raise FaultScheduleError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )
            events.append(_EVENT_TYPES[kind](float(entry["at"]), str(entry["target"])))
        return cls(events, name=str(payload.get("name", "faults")))

    # ------------------------------------------------------------------ #
    # Seeded chaos generation
    # ------------------------------------------------------------------ #
    @classmethod
    def chaos(
        cls,
        topology,
        seed: int = 0,
        horizon_s: float = 60.0,
        tier_mtbf_s: Optional[Mapping[str, float]] = None,
        mttr_s: float = 3.0,
        link_mtbf_s: Optional[float] = None,
    ) -> "FaultSchedule":
        """A seeded random crash/recover schedule over ``topology``.

        Every node whose tier appears in ``tier_mtbf_s`` (default: edge nodes
        with a 15 s mean time between failures) cycles through crashes drawn
        from an exponential inter-failure process and recoveries after an
        exponential repair time of mean ``mttr_s``.  With ``link_mtbf_s``,
        every declared wire runs the same process.  The device tier is
        excluded by default — a dead source device does not fail over, it
        takes its requests down with it — but can be opted in via
        ``tier_mtbf_s``.

        Fully determined by ``(topology, seed, horizon, rates)``: the node and
        link iteration order is the topology's declaration order and each
        target consumes its draws in sequence, so the schedule is a
        reproducible artefact.
        """
        if horizon_s <= 0:
            raise FaultScheduleError("chaos horizon must be positive")
        if mttr_s <= 0:
            raise FaultScheduleError("mean time to repair must be positive")
        rates = dict(tier_mtbf_s) if tier_mtbf_s is not None else {"edge": 15.0}
        if any(mtbf <= 0 for mtbf in rates.values()):
            raise FaultScheduleError("mean time between failures must be positive")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []

        def cycle(target: str, mtbf: float, down_type: type, up_type: type) -> None:
            clock = 0.0
            while True:
                clock += float(rng.exponential(mtbf))
                if clock >= horizon_s:
                    return
                repair = float(rng.exponential(mttr_s))
                events.append(down_type(clock, target))
                events.append(up_type(clock + repair, target))
                clock += repair

        for node in topology.nodes.values():
            mtbf = rates.get(node.tier)
            if mtbf is not None:
                cycle(node.name, mtbf, NodeDown, NodeUp)
        if link_mtbf_s is not None:
            if link_mtbf_s <= 0:
                raise FaultScheduleError("link mean time between failures must be positive")
            for link in topology.links.values():
                cycle(link.name, link_mtbf_s, LinkDown, LinkUp)
        return cls(events, name=f"chaos:{seed}")


def load_fault_schedule(
    spec: Union[str, FaultSchedule],
    topology=None,
    horizon_s: Optional[float] = None,
    **chaos_kwargs,
) -> FaultSchedule:
    """Resolve a fault schedule from a spec string or pass one through.

    This is what ``repro serve --faults`` accepts:

    * ``"chaos:<seed>"`` — a seeded random schedule over ``topology``
      (``horizon_s`` bounds the generator; defaults to 60 s);
    * a path to a JSON file in the dialect of :meth:`FaultSchedule.to_json`;
    * an existing :class:`FaultSchedule` (returned unchanged).
    """
    import os

    if isinstance(spec, FaultSchedule):
        return spec
    if spec.startswith("chaos:"):
        if topology is None:
            raise FaultScheduleError("chaos schedules need a topology to target")
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise FaultScheduleError(
                f"invalid chaos spec {spec!r}; expected chaos:<integer seed>"
            ) from None
        return FaultSchedule.chaos(
            topology, seed=seed, horizon_s=horizon_s or 60.0, **chaos_kwargs
        )
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as handle:
                schedule = FaultSchedule.from_json(handle.read())
        except OSError as error:
            raise FaultScheduleError(
                f"cannot read fault schedule {spec!r}: {error}"
            ) from None
        if topology is not None:
            schedule.validate_against(topology)
        return schedule
    raise FaultScheduleError(
        f"unknown fault schedule {spec!r}: not chaos:<seed> and not a readable JSON file"
    )
