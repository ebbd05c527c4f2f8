"""Per-run columnar record log of the serving engine.

In record mode the engine keeps every request's timeline and outcome.  It
does not keep them as per-request objects: one :class:`RecordLog` per run
holds every event and every transfer as flat parallel columns (``array``
columns for the numbers, lists of the shared strings for the rest) plus one
tuple of atoms per retired request.  A finished run therefore retains a
fixed number of container objects however many requests it served, so the
cyclic GC has nothing per request to walk.

Rows are keyed by the engine's *arrival slot* (the order in which requests
arrived), not by ``ServingRequest.index``: indices may repeat when the
simulator is driven directly, and each arrival keeps its own timeline.

The log is also the ``Sequence[RequestRecord]`` that
:meth:`~repro.runtime.serving.ServingSimulator.run` returns.  ``len()`` reads
the retired count.  The first item access builds every
:class:`RequestRecord` once, in ``(index, arrival_s)`` order, each with an
:meth:`~repro.runtime.simulator.ExecutionReport.from_rows` report whose
``TimelineEvent``/``TensorTransfer`` objects are built on their own first
read.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional

from repro.runtime.simulator import ExecutionReport


@dataclass
class RequestRecord:
    """Outcome of one request under the serving engine."""

    request_id: Optional[str]
    model: str
    arrival_s: float
    completion_s: float
    report: ExecutionReport
    #: Latency of the same plan on an idle cluster, copied from the request
    #: for clean completions (completed, no retries); ``None`` otherwise or
    #: when unknown.
    ideal_latency_s: Optional[float] = None
    #: Terminal outcome: ``"completed"``, ``"failed"`` (retry budget
    #: exhausted / source device lost / degraded deployment unservable) or
    #: ``"rejected"`` (shed at arrival by SLO admission control).
    status: str = "completed"
    #: Failover attempts this request consumed (0 on an undisturbed run).
    retries: int = 0
    #: The request's latency SLO in milliseconds (``None`` = best-effort).
    slo_ms: Optional[float] = None
    #: The request's priority class (0 = most important).
    priority: int = 0

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    @property
    def met_slo(self) -> bool:
        """Completed within the SLO (best-effort requests count when served)."""
        if not self.completed:
            return False
        if self.slo_ms is None:
            return True
        return self.latency_s <= self.slo_ms / 1e3 + 1e-12

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion for completed requests; time-to-failure
        otherwise."""
        return self.completion_s - self.arrival_s

    @property
    def queueing_delay_s(self) -> Optional[float]:
        """Extra latency caused by contention, relative to an idle cluster."""
        if self.ideal_latency_s is None:
            return None
        return self.latency_s - self.ideal_latency_s


class RecordLog(Sequence):
    """One run's timelines and outcomes as columns; records built on read."""

    __slots__ = (
        "event_slot",
        "event_node",
        "event_tier",
        "event_label",
        "event_kind",
        "event_start",
        "event_end",
        "transfer_slot",
        "transfer_producer",
        "transfer_consumer",
        "transfer_source",
        "transfer_destination",
        "transfer_payload",
        "transfer_start",
        "transfer_duration",
        "retired",
        "_records",
    )

    def __init__(self) -> None:
        # One entry per event: ``(node, tier value, label, kind, start_s,
        # end_s)`` of an :data:`~repro.runtime.simulator.EventRow`.
        self.event_slot = array("q")
        self.event_node: List[str] = []
        self.event_tier: List[str] = []
        self.event_label: List[str] = []
        self.event_kind: List[str] = []
        self.event_start = array("d")
        self.event_end = array("d")
        # One entry per transfer: the columns of a
        # :data:`~repro.runtime.simulator.TransferRow`.
        self.transfer_slot = array("q")
        self.transfer_producer: List[str] = []
        self.transfer_consumer: List[str] = []
        self.transfer_source: List[str] = []
        self.transfer_destination: List[str] = []
        self.transfer_payload = array("q")
        self.transfer_start = array("d")
        self.transfer_duration = array("d")
        #: One tuple of atoms per retired request, in retirement order:
        #: ``(slot, index, request_id, model, arrival_s, completion_s,
        #: ideal_latency_s, status, retries, slo_ms, priority)``.
        self.retired: List[tuple] = []
        self._records: Optional[List[RequestRecord]] = None

    # ------------------------------------------------------------------ #
    # Write side (the engine, while the run is in progress)
    # ------------------------------------------------------------------ #
    def event(
        self,
        slot: int,
        node: str,
        tier: str,
        label: str,
        kind: str,
        start_s: float,
        end_s: float,
    ) -> int:
        """Append one timeline event; returns its position for :meth:`truncate`."""
        self.event_slot.append(slot)
        self.event_node.append(node)
        self.event_tier.append(tier)
        self.event_label.append(label)
        self.event_kind.append(kind)
        self.event_start.append(start_s)
        end = self.event_end
        end.append(end_s)
        return len(end) - 1

    def transfer(
        self,
        slot: int,
        producer: str,
        consumer: str,
        source: str,
        destination: str,
        payload_bytes: int,
        start_s: float,
        duration_s: float,
    ) -> None:
        """Append one tensor transfer."""
        self.transfer_slot.append(slot)
        self.transfer_producer.append(producer)
        self.transfer_consumer.append(consumer)
        self.transfer_source.append(source)
        self.transfer_destination.append(destination)
        self.transfer_payload.append(payload_bytes)
        self.transfer_start.append(start_s)
        self.transfer_duration.append(duration_s)

    def truncate(self, position: int, time_s: float) -> None:
        """Cut the event at ``position`` short at ``time_s`` (its node died)."""
        end = self.event_end
        if end[position] > time_s:
            end[position] = time_s

    def retire(
        self,
        slot: int,
        index: int,
        request_id: Optional[str],
        model: str,
        arrival_s: float,
        completion_s: float,
        ideal_latency_s: Optional[float],
        status: str,
        retries: int,
        slo_ms: Optional[float],
        priority: int,
    ) -> None:
        """Record a request's outcome; its rows stay open to truncation."""
        self.retired.append(
            (
                slot,
                index,
                request_id,
                model,
                arrival_s,
                completion_s,
                ideal_latency_s,
                status,
                retries,
                slo_ms,
                priority,
            )
        )

    # ------------------------------------------------------------------ #
    # Read side: Sequence[RequestRecord]
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.retired)

    def __getitem__(self, item):
        return self._built()[item]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordLog):
            other = other._built()
        if not isinstance(other, list):
            return NotImplemented
        return self._built() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._built())

    def _built(self) -> List[RequestRecord]:
        records = self._records
        if records is not None:
            return records
        # Slots are dense arrival positions and every arrival retires once.
        count = len(self.retired)
        event_rows: List[list] = [[] for _ in range(count)]
        for slot, row in zip(
            self.event_slot,
            zip(
                self.event_node,
                self.event_tier,
                self.event_label,
                self.event_kind,
                self.event_start,
                self.event_end,
            ),
        ):
            event_rows[slot].append(row)
        transfer_rows: List[list] = [[] for _ in range(count)]
        for slot, row in zip(
            self.transfer_slot,
            zip(
                self.transfer_producer,
                self.transfer_consumer,
                self.transfer_source,
                self.transfer_destination,
                self.transfer_payload,
                self.transfer_start,
                self.transfer_duration,
            ),
        ):
            transfer_rows[slot].append(row)
        records = []
        for (
            slot,
            _,
            request_id,
            model,
            arrival_s,
            completion_s,
            ideal_latency_s,
            status,
            retries,
            slo_ms,
            priority,
        ) in sorted(self.retired, key=lambda entry: (entry[1], entry[4])):
            records.append(
                RequestRecord(
                    request_id=request_id,
                    model=model,
                    arrival_s=arrival_s,
                    completion_s=completion_s,
                    report=ExecutionReport.from_rows(
                        model,
                        completion_s - arrival_s,
                        event_rows[slot],
                        transfer_rows[slot],
                        request_id,
                    ),
                    ideal_latency_s=ideal_latency_s,
                    status=status,
                    retries=retries,
                    slo_ms=slo_ms,
                    priority=priority,
                )
            )
        self._records = records
        return records
