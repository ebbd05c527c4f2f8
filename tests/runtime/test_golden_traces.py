"""Golden-trace regression harness: the serving engine's full event
timelines are pinned beyond summary statistics.

Each canonical scenario (steady Poisson stream, chaos fault injection,
multi-device fleet) is re-simulated and its *complete* serialized timeline —
every compute event, transfer, status and timestamp, at full float
precision — is diffed exactly against the committed JSON fixture.  Any
behaviour change in the default (FIFO, admission-free) engine shows up here
even when p95/throughput happen to agree.

After an intentional engine change, regenerate with::

    PYTHONPATH=src python -m repro.testing regen-goldens
"""

import json
from pathlib import Path

import pytest

from repro.testing import (
    GOLDEN_SCENARIOS,
    golden_trace,
    load_golden,
    serialize_report,
    write_goldens,
)

GOLDENS_DIR = Path(__file__).parent / "goldens"


def roundtrip(document: dict) -> dict:
    """Normalize through JSON so float repr and key types match the fixture."""
    return json.loads(json.dumps(document, sort_keys=True))


@pytest.fixture(scope="module")
def traces():
    """Every canonical scenario simulated once (they are not free)."""
    return {name: golden_trace(name) for name in GOLDEN_SCENARIOS}


class TestGoldenTraces:
    def test_fixtures_are_committed(self):
        for name in GOLDEN_SCENARIOS:
            assert (GOLDENS_DIR / f"{name}.json").exists(), (
                f"missing fixture for {name!r}; run "
                f"`PYTHONPATH=src python -m repro.testing regen-goldens`"
            )

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_timeline_is_bit_identical(self, traces, name):
        expected = load_golden(name, GOLDENS_DIR)
        actual = roundtrip(traces[name])
        # Compare piecewise first so a regression names the divergent request
        # instead of dumping two 50 kB documents.
        assert actual.keys() == expected.keys()
        for key in expected:
            if key != "records":
                assert actual[key] == expected[key], f"{name}: {key} diverged"
        assert len(actual["records"]) == len(expected["records"])
        for mine, theirs in zip(actual["records"], expected["records"]):
            assert mine == theirs, f"{name}: request {theirs['request_id']} diverged"

    def test_traces_cover_the_interesting_regimes(self, traces):
        """Every fixture must keep exercising what it was chosen for."""
        steady = traces["steady"]
        assert steady["num_failed"] == 0 and not steady["node_down_s"]
        chaos = traces["chaos"]
        assert chaos["node_down_s"] or chaos["link_down_s"], (
            "chaos fixture no longer injects any downtime"
        )
        assert any(r["retries"] > 0 for r in chaos["records"]) or chaos["num_failed"], (
            "chaos fixture no longer disturbs any request"
        )
        fleet = traces["fleet"]
        devices = {
            e["node"]
            for r in fleet["records"]
            for e in r["events"]
            if e["tier"] == "device"
        }
        assert len(devices) > 1, "fleet fixture no longer spreads over the devices"
        elastic = traces["elastic"]
        assert elastic["num_failed"] == 0, "drains must never abort requests"
        assert elastic["node_down_s"].get("edge-1"), (
            "elastic fixture no longer drains edge-1"
        )
        joined = [
            e
            for r in elastic["records"]
            for e in r["events"]
            if e["node"] == "edge-2"
        ]
        assert joined, "elastic fixture no longer routes work to the joined replica"
        assert all(e["start_s"] >= 0.4 + 0.3 for e in joined), (
            "work started on edge-2 before its provisioning delay elapsed"
        )
        multimodel = traces["multimodel"]
        memory = multimodel.get("memory")
        assert memory, "multimodel fixture no longer exercises the weight caches"
        assert memory["cold_starts"] > 0, "multimodel fixture lost its cold starts"
        assert memory["weight_evictions"] > 0, (
            "multimodel fixture no longer thrashes the tight cache"
        )
        assert any(
            e["kind"] == "coldstart"
            for r in multimodel["records"]
            for e in r["events"]
        ), "multimodel fixture no longer records cold-start timeline events"
        assert all(
            "memory" not in traces[name] for name in ("steady", "chaos", "fleet", "elastic")
        ), "a memory-free fixture grew a memory block — the inert path leaked"
        adaptation = traces["adaptation"]
        calibration = adaptation.get("calibration")
        assert calibration, "adaptation fixture no longer runs calibrated"
        assert calibration["calibration_updates"] > 0, (
            "adaptation fixture absorbed no calibration updates"
        )
        assert calibration["proactive_repartitions"] > 0, (
            "adaptation fixture no longer repartitions ahead of the breach"
        )
        assert calibration["first_adaptation_s"] is not None
        assert all(
            "calibration" not in traces[name]
            for name in ("steady", "chaos", "fleet", "elastic", "multimodel", "admission")
        ), "a calibration-free fixture grew a calibration block — the inert path leaked"
        admission = traces["admission"]
        statuses = [r["status"] for r in admission["records"]]
        assert "rejected" in statuses, "admission fixture no longer sheds at the door"
        assert any(r["retries"] > 0 for r in admission["records"]), (
            "admission fixture no longer retries a faulted attempt"
        )
        assert admission["node_down_s"], "admission fixture no longer injects downtime"
        assert "memory" not in admission


class TestRegeneration:
    def test_regen_writes_identical_fixtures(self, traces, tmp_path):
        """`regen-goldens` output equals both the live run and the fixtures."""
        paths = write_goldens(tmp_path)
        assert {p.name for p in paths} == {f"{n}.json" for n in GOLDEN_SCENARIOS}
        for name in GOLDEN_SCENARIOS:
            regenerated = json.loads((tmp_path / f"{name}.json").read_text())
            assert regenerated == roundtrip(traces[name])

    def test_serializer_is_deterministic(self):
        report = GOLDEN_SCENARIOS["steady"]()
        assert serialize_report(report) == serialize_report(report)
