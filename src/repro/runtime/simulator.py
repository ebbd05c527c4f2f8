"""Timeline bookkeeping for the discrete-event execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.placement import Tier
from repro.runtime.messages import TensorTransfer


@dataclass(frozen=True)
class TimelineEvent:
    """One scheduled activity on one node (a layer execution or a tile task)."""

    node: str
    tier: Tier
    label: str
    kind: str  # "compute" | "gather"
    start_s: float
    end_s: float
    #: Request the event belongs to; ``None`` for one-shot simulations.
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError("event ends before it starts")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


#: ``(node, tier value, label, kind, start_s, end_s)`` — one
#: :class:`TimelineEvent` before it is built.
EventRow = Tuple[str, str, str, str, float, float]
#: ``(producer, consumer, source tier value, destination tier value,
#: payload_bytes, start_s, duration_s)`` — one :class:`TensorTransfer`.
TransferRow = Tuple[str, str, str, str, int, float, float]


@dataclass
class ExecutionReport:
    """Result of simulating one inference through a partitioned DNN.

    Direct callers pass ``events`` and ``transfers`` as object lists.  The
    serving engine instead builds reports with :meth:`from_rows`, whose
    timeline stays as flat rows of atoms until ``events`` or ``transfers``
    is first read.
    """

    model_name: str
    end_to_end_latency_s: float
    events: List[TimelineEvent] = field(default_factory=list)
    transfers: List[TensorTransfer] = field(default_factory=list)
    #: Request this report belongs to; ``None`` for one-shot simulations.
    #: Under the serving engine event/transfer timestamps are absolute
    #: simulation times while ``end_to_end_latency_s`` stays relative to the
    #: request's arrival.
    request_id: Optional[str] = None

    @classmethod
    def from_rows(
        cls,
        model_name: str,
        end_to_end_latency_s: float,
        event_rows: List[EventRow],
        transfer_rows: List[TransferRow],
        request_id: Optional[str] = None,
    ) -> "ExecutionReport":
        """A report whose timeline is built from rows on first read.

        Rows hold only strings and numbers, so the cyclic GC untracks them;
        a long serving run keeps one small tuple per event instead of one
        dataclass instance.  The row lists are held by reference, not
        copied, until ``events``/``transfers`` is first read; each is then
        built once, through the normal constructors (and their checks), and
        cached in place of its rows.
        """
        report = cls.__new__(cls)
        report.model_name = model_name
        report.end_to_end_latency_s = end_to_end_latency_s
        report.request_id = request_id
        report._event_rows = event_rows
        report._transfer_rows = transfer_rows
        return report

    def __getattr__(self, name: str):
        # Only reached for attributes missing from the instance: the
        # timeline lists of a :meth:`from_rows` report before first read.
        state = self.__dict__
        if name == "events" and "_event_rows" in state:
            request_id = self.request_id
            value = [
                TimelineEvent(node, Tier(tier), label, kind, start_s, end_s, request_id)
                for node, tier, label, kind, start_s, end_s in state.pop("_event_rows")
            ]
        elif name == "transfers" and "_transfer_rows" in state:
            request_id = self.request_id
            value = [
                TensorTransfer(
                    producer,
                    consumer,
                    Tier(source),
                    Tier(destination),
                    payload_bytes,
                    start_s,
                    duration_s,
                    request_id,
                )
                for producer, consumer, source, destination, payload_bytes, start_s, duration_s
                in state.pop("_transfer_rows")
            ]
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        state[name] = value
        return value

    # ------------------------------------------------------------------ #
    def node_busy_seconds(self) -> Dict[str, float]:
        """Total compute time charged to each node."""
        busy: Dict[str, float] = {}
        for event in self.events:
            busy[event.node] = busy.get(event.node, 0.0) + event.duration_s
        return busy

    def tier_busy_seconds(self) -> Dict[Tier, float]:
        """Total compute time charged to each tier (Table II's quantity)."""
        busy: Dict[Tier, float] = {tier: 0.0 for tier in Tier}
        for event in self.events:
            busy[event.tier] += event.duration_s
        return busy

    def tier_makespan_seconds(self) -> Dict[Tier, float]:
        """Wall-clock span of each tier's activity (accounts for parallelism)."""
        spans: Dict[Tier, float] = {tier: 0.0 for tier in Tier}
        by_tier: Dict[Tier, List[TimelineEvent]] = {tier: [] for tier in Tier}
        for event in self.events:
            by_tier[event.tier].append(event)
        for tier, events in by_tier.items():
            if events:
                spans[tier] = max(e.end_s for e in events) - min(e.start_s for e in events)
        return spans

    @property
    def transfer_seconds(self) -> float:
        return sum(t.duration_s for t in self.transfers)

    @property
    def bytes_to_cloud(self) -> int:
        """Backbone traffic entering the cloud (Fig. 13's metric)."""
        return sum(t.payload_bytes for t in self.transfers if t.crosses_backbone)

    @property
    def bytes_device_to_edge(self) -> int:
        return sum(
            t.payload_bytes
            for t in self.transfers
            if t.source_tier == Tier.DEVICE and t.destination_tier == Tier.EDGE
        )

    @property
    def megabits_to_cloud(self) -> float:
        return self.bytes_to_cloud * 8.0 / 1e6

    def summary(self) -> str:
        """Multi-line human-readable report."""
        busy = self.tier_busy_seconds()
        lines = [
            f"{self.model_name}: end-to-end {self.end_to_end_latency_s * 1e3:.2f} ms",
            f"  device busy {busy[Tier.DEVICE] * 1e3:.2f} ms, "
            f"edge busy {busy[Tier.EDGE] * 1e3:.2f} ms, "
            f"cloud busy {busy[Tier.CLOUD] * 1e3:.2f} ms",
            f"  transfers {self.transfer_seconds * 1e3:.2f} ms, "
            f"to-cloud {self.megabits_to_cloud:.3f} Mb",
        ]
        return "\n".join(lines)
