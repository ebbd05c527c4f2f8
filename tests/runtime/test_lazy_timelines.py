"""Record mode keeps each request's timeline as flat rows.

The serving engine appends one tuple of atoms per event and per transfer;
``ExecutionReport`` builds the ``TimelineEvent``/``TensorTransfer`` objects
the first time ``events``/``transfers`` is read.  These tests pin what that
must not change: the objects, their checks, report equality and ``repr``.
"""

import gc

import pytest

from repro.core.d3 import D3Config, D3System
from repro.core.placement import PlacementPlan, Tier
from repro.runtime import simulator
from repro.runtime.executor import DistributedExecutor
from repro.runtime.messages import TensorTransfer
from repro.runtime.simulator import ExecutionReport, TimelineEvent
from repro.runtime.workload import Workload


def _serve():
    system = D3System(
        D3Config(
            network="wifi",
            num_edge_nodes=3,
            use_regression=False,
            profiler_noise_std=0.0,
        )
    )
    return system.serve(Workload.poisson("alexnet", num_requests=20, rate_rps=8.0, seed=0))


def test_stored_rows_are_untracked_by_the_cyclic_gc():
    report = _serve()
    gc.collect()
    rows = [
        row
        for record in report.records
        for key in ("_event_rows", "_transfer_rows")
        for row in vars(record.report)[key]
    ]
    assert rows
    assert all(gc.is_tracked(row) is False for row in rows)


def test_events_are_built_once_and_cached(monkeypatch):
    # A fresh run: no report of it has been read yet.
    report = _serve().records[0].report
    built = []

    def counting(*args):
        built.append(args)
        return TimelineEvent(*args)

    monkeypatch.setattr(simulator, "TimelineEvent", counting)
    first = report.events
    second = report.events
    assert first is second
    assert first and len(built) == len(first)
    assert "_event_rows" not in vars(report)


def test_materialized_objects_carry_the_request_id():
    kinds = set()
    for record in _serve().records:
        assert record.report.request_id == record.request_id
        assert record.report.events and record.report.transfers
        for event in record.report.events:
            assert type(event) is TimelineEvent
            assert isinstance(event.tier, Tier)
            assert event.request_id == record.request_id
            kinds.add(event.kind)
        for transfer in record.report.transfers:
            assert type(transfer) is TensorTransfer
            assert isinstance(transfer.source_tier, Tier)
            assert isinstance(transfer.destination_tier, Tier)
            assert transfer.request_id == record.request_id
    assert kinds == {"compute", "gather"}


def test_one_shot_executor_events_carry_no_request_id(alexnet, alexnet_profile, cluster_one_edge):
    plan = PlacementPlan.single_tier(alexnet, Tier.CLOUD)
    report = DistributedExecutor(alexnet, plan, alexnet_profile, cluster_one_edge).execute()
    assert report.request_id is None
    assert report.events and report.transfers
    assert all(event.request_id is None for event in report.events)
    assert all(transfer.request_id is None for transfer in report.transfers)


def test_lazy_report_equals_the_eager_one_with_the_same_content():
    event_rows = [
        ("device-0", "device", "conv1", "compute", 0.0, 0.5),
        ("edge-0", "edge", "tiles", "gather", 1.0, 1.0),
    ]
    transfer_rows = [("conv1", "conv2", "device", "edge", 4096, 0.5, 0.25)]
    eager = ExecutionReport(
        "alexnet",
        1.25,
        events=[
            TimelineEvent("device-0", Tier.DEVICE, "conv1", "compute", 0.0, 0.5, "r0"),
            TimelineEvent("edge-0", Tier.EDGE, "tiles", "gather", 1.0, 1.0, "r0"),
        ],
        transfers=[
            TensorTransfer("conv1", "conv2", Tier.DEVICE, Tier.EDGE, 4096, 0.5, 0.25, "r0")
        ],
        request_id="r0",
    )
    lazy = ExecutionReport.from_rows("alexnet", 1.25, list(event_rows), list(transfer_rows), "r0")
    assert lazy == eager
    assert eager == ExecutionReport.from_rows(
        "alexnet", 1.25, list(event_rows), list(transfer_rows), "r0"
    )
    assert repr(
        ExecutionReport.from_rows("alexnet", 1.25, list(event_rows), list(transfer_rows), "r0")
    ) == repr(eager)
    assert lazy != ExecutionReport.from_rows("alexnet", 1.25, event_rows[:1], transfer_rows, "r0")


def test_object_checks_run_on_materialization():
    backwards = ExecutionReport.from_rows(
        "alexnet", 0.0, [("edge-0", "edge", "conv1", "compute", 1.0, 0.5)], []
    )
    with pytest.raises(ValueError, match="ends before it starts"):
        backwards.events
    negative = ExecutionReport.from_rows(
        "alexnet", 0.0, [], [("a", "b", "device", "edge", 10, 0.0, -1.0)]
    )
    with pytest.raises(ValueError, match="duration cannot be negative"):
        negative.transfers


def test_missing_attributes_still_raise():
    report = ExecutionReport.from_rows("alexnet", 0.0, [], [])
    with pytest.raises(AttributeError):
        report.no_such_field
    assert report.events == [] and report.transfers == []
