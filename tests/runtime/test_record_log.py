"""The per-run record log behind record mode's ``run()`` result.

The engine writes one columnar :class:`RecordLog` per run and ``run()``
returns it as the ``Sequence[RequestRecord]``; records are built on first
item access.  These tests pin the read side (what builds when), the keying
by arrival slot, that a log outlives later runs and late truncations, and
the compact layout: interned row templates plus four numeric columns.
"""

from array import array

import pytest

from repro.core.d3 import D3Config, D3System
from repro.network.faults import FaultSchedule, NodeDown
from repro.runtime import record_log
from repro.runtime.record_log import RecordLog, RequestRecord
from repro.runtime.serving import ServingRequest, ServingSimulator
from repro.runtime.simulator import ExecutionReport
from repro.runtime.workload import Workload
from repro.testing import serialize_record


@pytest.fixture(scope="module")
def system():
    return D3System(
        D3Config(
            network="wifi",
            num_edge_nodes=4,
            use_regression=False,
            profiler_noise_std=0.0,
        )
    )


def _requests(system, model, arrivals, indices=None):
    graph = system.graph_for(model)
    entry = system._plan_for(graph, system.network)
    return [
        ServingRequest(
            index=index,
            request_id=f"req-{index}",
            graph=graph,
            plan=entry.placement,
            profile=entry.profile,
            condition=system.network,
            arrival_s=arrival_s,
            vsm_plan=entry.vsm_plan,
        )
        for index, arrival_s in zip(indices or range(len(arrivals)), arrivals)
    ]


@pytest.fixture
def builds(monkeypatch):
    """Counts every ``RequestRecord`` the log builds."""
    built = []

    def counting(*args, **kwargs):
        record = RequestRecord(*args, **kwargs)
        built.append(record)
        return record

    monkeypatch.setattr(record_log, "RequestRecord", counting)
    return built


def test_run_returns_the_runs_record_log(system):
    records = ServingSimulator(system.cluster).run(_requests(system, "alexnet", [0.0]))
    assert isinstance(records, RecordLog)


def test_len_builds_nothing(system, builds):
    report = system.serve(Workload.poisson("alexnet", num_requests=12, rate_rps=8.0, seed=1))
    assert len(report.records) == 12
    assert report.records  # truthiness reads the length too
    assert builds == []


def test_records_are_built_once(system, builds):
    records = system.serve(
        Workload.poisson("alexnet", num_requests=12, rate_rps=8.0, seed=1)
    ).records
    first = records[0]
    assert len(builds) == 12
    assert records[0] is first
    assert list(records) == builds
    assert records[-1] is builds[-1] and records[2:4] == builds[2:4]
    assert len(builds) == 12


def test_records_come_back_in_index_then_arrival_order(system):
    # Indices out of arrival order, with a tie broken by arrival time.
    requests = _requests(system, "alexnet", [0.0, 0.3, 0.6, 0.9], indices=[2, 0, 1, 0])
    records = ServingSimulator(system.cluster).run(requests)
    assert [(r.request_id, r.arrival_s) for r in records] == [
        ("req-0", 0.3),
        ("req-0", 0.9),
        ("req-1", 0.6),
        ("req-2", 0.0),
    ]


def test_duplicate_indices_keep_separate_timelines(system):
    single = ServingSimulator(system.cluster).run(_requests(system, "alexnet", [0.0]))[0]
    twins = ServingSimulator(system.cluster).run(
        _requests(system, "alexnet", [0.0, 5.0], indices=[0, 0])
    )
    assert len(twins) == 2
    early, late = twins
    assert early.arrival_s == 0.0 and late.arrival_s == 5.0
    assert serialize_record(early) == serialize_record(single)
    assert len(late.report.events) == len(single.report.events)
    assert len(late.report.transfers) == len(single.report.transfers)
    assert all(event.start_s >= 5.0 for event in late.report.events)
    assert all(transfer.start_s >= 5.0 for transfer in late.report.transfers)


def test_an_earlier_runs_records_survive_a_later_run(system):
    first_requests = _requests(system, "alexnet", [0.0, 0.1, 0.2])
    reference = [
        serialize_record(record)
        for record in ServingSimulator(system.cluster).run(first_requests)
    ]
    simulator = ServingSimulator(system.cluster)
    first = simulator.run(first_requests)  # not read before the next run
    simulator.run(_requests(system, "vgg16", [0.0, 0.05]))
    assert len(first) == 3
    assert [serialize_record(record) for record in first] == reference


def test_records_compare_like_lists(system):
    requests = _requests(system, "alexnet", [0.0, 0.2])
    one = ServingSimulator(system.cluster).run(requests)
    other = ServingSimulator(system.cluster).run(requests)
    assert one == other and one == list(other) and list(one) == other
    assert one != ServingSimulator(system.cluster).run(requests[:1])
    assert one != "not a record list"
    assert repr(one) == repr(list(other))
    with pytest.raises(TypeError):
        hash(one)


def test_a_node_death_after_retirement_still_truncates_the_row(system):
    """A failed request's discarded tile keeps running on a healthy node
    (no preemption); when that node dies later, the retired request's row
    is cut at the moment of death."""
    requests = _requests(system, "vgg16", [0.0])
    clean = ServingSimulator(system.cluster).run(requests)[0]
    computes = [e for e in clean.report.events if e.kind == "compute"]
    # A moment when tiles run on edge-0 and edge-1 at once.
    overlap = next(
        (a, b)
        for a in computes
        if a.node == "edge-0"
        for b in computes
        if b.node == "edge-1" and max(a.start_s, b.start_s) < min(a.end_s, b.end_s)
    )
    tile0, tile1 = overlap
    start = max(tile0.start_s, tile1.start_s)
    kill_1 = start + (min(tile0.end_s, tile1.end_s) - start) / 3
    kill_0 = start + 2 * (min(tile0.end_s, tile1.end_s) - start) / 3
    faults = FaultSchedule([NodeDown(kill_1, "edge-1"), NodeDown(kill_0, "edge-0")])
    record = ServingSimulator(system.cluster, faults=faults, max_retries=0).run(requests)[0]
    assert record.status == "failed"
    # Failed at edge-1's death: the retry budget was already spent.
    assert record.completion_s == kill_1
    ends = {
        (event.node, event.label): event.end_s
        for event in record.report.events
        if event.kind == "compute"
    }
    assert ends[("edge-1", tile1.label)] == kill_1
    # edge-0 died after the request retired, mid-way through its tile.
    assert ends[("edge-0", tile0.label)] == kill_0 < tile0.end_s


def _arrivals(count, gap_s=0.1):
    return [gap_s * position for position in range(count)]


def test_every_row_column_is_a_compact_array(system):
    log = ServingSimulator(system.cluster).run(_requests(system, "vgg16", _arrivals(3)))
    assert len(log.event_slot) and len(log.transfer_slot)
    for kind in ("event", "transfer"):
        columns = [name for name in RecordLog.__slots__ if name.startswith(kind + "_")]
        assert len(columns) == 4
        for name in columns:
            assert isinstance(getattr(log, name), array), name
        row_bytes = sum(getattr(log, name).itemsize for name in columns)
        assert row_bytes <= 28, f"{kind} row takes {row_bytes} B"


def test_template_count_does_not_grow_with_requests(system):
    def templates(count):
        log = ServingSimulator(system.cluster).run(
            _requests(system, "alexnet", _arrivals(count))
        )
        assert len(log.event_slot) > count
        return len(log.templates)

    assert templates(50) == templates(500)


def test_string_rows_reuse_the_engines_template_ids(system):
    log = ServingSimulator(system.cluster).run(_requests(system, "vgg16", [0.0]))
    count = len(log.templates)
    event_id = log.event_template[0]
    position = log.event(0, *log.templates[event_id], 9.0, 9.5)
    assert log.event_template[position] == event_id
    transfer_id = log.transfer_template[0]
    log.transfer(0, *log.templates[transfer_id], 9.5, 0.25)
    assert log.transfer_template[-1] == transfer_id
    assert len(log.templates) == count


def test_consecutive_runs_match_fresh_simulators(system):
    streams = [
        _requests(system, "alexnet", _arrivals(4)),
        _requests(system, "vgg16", _arrivals(2)),
        _requests(system, "alexnet", _arrivals(3, gap_s=0.05)),
    ]
    simulator = ServingSimulator(system.cluster)
    reused = [simulator.run(requests) for requests in streams]
    fresh = [ServingSimulator(system.cluster).run(requests) for requests in streams]
    for mine, theirs in zip(reused, fresh):
        assert [serialize_record(r) for r in mine] == [serialize_record(r) for r in theirs]


def test_stream_mode_interns_nothing(system):
    simulator = ServingSimulator(system.cluster, stream_stats=True)
    assert simulator.run(_requests(system, "vgg16", _arrivals(2))) == []
    compiled = next(iter(simulator._compiled.values()))
    assert {entry[4] for unit in compiled.units for entry in unit.tasks} == {0}


def test_truncate_only_shortens():
    log = RecordLog()
    position = log.event(0, "edge-0", "edge", "conv1", "compute", 1.0, 2.0)
    log.truncate(position, 3.0)
    assert log.event_end[position] == 2.0
    log.truncate(position, 1.5)
    assert log.event_end[position] == 1.5


def test_log_rows_feed_the_lazy_report_path(monkeypatch):
    log = RecordLog()
    log.event(0, "device-0", "device", "conv1", "compute", 0.0, 0.5)
    log.transfer(0, "conv1", "conv2", "device", "edge", 4096, 0.5, 0.25)
    log.event(0, "edge-0", "edge", "conv2", "compute", 0.75, 1.0)
    log.retire(0, 7, "req-7", "alexnet", 0.0, 1.0, 0.9, "completed", 0, 250.0, 1)
    calls = []
    original = ExecutionReport.from_rows

    def spying(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ExecutionReport, "from_rows", spying)
    (record,) = log
    assert calls == [
        (
            "alexnet",
            1.0,
            [
                ("device-0", "device", "conv1", "compute", 0.0, 0.5),
                ("edge-0", "edge", "conv2", "compute", 0.75, 1.0),
            ],
            [("conv1", "conv2", "device", "edge", 4096, 0.5, 0.25)],
            "req-7",
        )
    ]
    assert record == RequestRecord(
        request_id="req-7",
        model="alexnet",
        arrival_s=0.0,
        completion_s=1.0,
        report=record.report,
        ideal_latency_s=0.9,
        status="completed",
        retries=0,
        slo_ms=250.0,
        priority=1,
    )


def test_record_outcome_properties():
    report = ExecutionReport.from_rows("alexnet", 0.2, [], [])

    def record(status="completed", slo_ms=None, ideal_latency_s=None):
        return RequestRecord(
            request_id="req-0",
            model="alexnet",
            arrival_s=1.0,
            completion_s=1.2,
            report=report,
            ideal_latency_s=ideal_latency_s,
            status=status,
            slo_ms=slo_ms,
        )

    served = record(ideal_latency_s=0.15)
    assert served.completed and not served.rejected
    assert served.latency_s == pytest.approx(0.2)
    assert served.queueing_delay_s == pytest.approx(0.05)
    assert served.met_slo
    assert record(slo_ms=250.0).met_slo and not record(slo_ms=150.0).met_slo
    assert record().queueing_delay_s is None
    shed = record(status="rejected", slo_ms=250.0)
    assert shed.rejected and not shed.completed and not shed.met_slo
