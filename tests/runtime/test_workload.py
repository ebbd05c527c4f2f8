"""Tests for the workload abstraction (arrival processes, determinism)."""

import math

import pytest

from repro.runtime.workload import Request, Workload


class TestRequest:
    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            Request(index=0, model="vgg16", arrival_s=-1.0)

    @pytest.mark.parametrize("arrival_s", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rejected(self, arrival_s):
        with pytest.raises(ValueError, match="arrival time must be finite"):
            Request(index=0, model="vgg16", arrival_s=arrival_s)

    @pytest.mark.parametrize("slo_ms", [math.nan, math.inf])
    def test_non_finite_slo_rejected(self, slo_ms):
        with pytest.raises(ValueError, match="slo_ms must be finite"):
            Request(index=0, model="vgg16", arrival_s=0.0, slo_ms=slo_ms)
        with pytest.raises(ValueError, match="slo_ms must be finite"):
            Workload.poisson("vgg16", num_requests=3, rate_rps=1.0, seed=0, slo_ms=slo_ms)

    def test_nan_cannot_slip_past_the_workload_order_check(self):
        # ``nan < x`` is False both ways, so a NaN between two arrivals
        # would hide the out-of-order 0.5 from the pairwise check.
        with pytest.raises(ValueError, match="arrival time must be finite"):
            Workload(
                [
                    Request(index=i, model="vgg16", arrival_s=arrival)
                    for i, arrival in enumerate([1.0, math.nan, 0.5])
                ]
            )

    def test_request_id(self):
        assert Request(index=3, model="vgg16", arrival_s=0.0).request_id == "req-3"


class TestSingle:
    def test_degenerate_workload(self):
        workload = Workload.single("vgg16")
        assert len(workload) == 1
        assert workload.requests[0].arrival_s == 0.0
        assert workload.models == ["vgg16"]

    def test_graph_instance_carried(self, alexnet):
        workload = Workload.single(alexnet)
        assert workload.requests[0].graph is alexnet
        assert workload.requests[0].model == alexnet.name


class TestConstantRate:
    def test_arrival_spacing(self):
        workload = Workload.constant_rate("vgg16", num_requests=5, interval_s=0.5)
        arrivals = [r.arrival_s for r in workload]
        assert arrivals == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert workload.mean_rate_rps == pytest.approx(2.0)

    def test_round_robin_over_models(self):
        workload = Workload.constant_rate(["a", "b"], num_requests=4, interval_s=1.0)
        assert [r.model for r in workload] == ["a", "b", "a", "b"]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Workload.constant_rate("vgg16", num_requests=0, interval_s=1.0)
        with pytest.raises(ValueError):
            Workload.constant_rate("vgg16", num_requests=2, interval_s=-1.0)
        with pytest.raises(ValueError):
            Workload.constant_rate([], num_requests=2, interval_s=1.0)


class TestPoisson:
    def test_seeded_reproducibility(self):
        first = Workload.poisson("vgg16", num_requests=20, rate_rps=3.0, seed=42)
        second = Workload.poisson("vgg16", num_requests=20, rate_rps=3.0, seed=42)
        assert [r.arrival_s for r in first] == [r.arrival_s for r in second]
        assert [r.model for r in first] == [r.model for r in second]

    def test_different_seeds_differ(self):
        first = Workload.poisson("vgg16", num_requests=20, rate_rps=3.0, seed=0)
        second = Workload.poisson("vgg16", num_requests=20, rate_rps=3.0, seed=1)
        assert [r.arrival_s for r in first] != [r.arrival_s for r in second]

    def test_arrivals_sorted_and_rate_plausible(self):
        workload = Workload.poisson("vgg16", num_requests=200, rate_rps=4.0, seed=0)
        arrivals = [r.arrival_s for r in workload]
        assert arrivals == sorted(arrivals)
        # The empirical rate of 200 samples should be within 30% of nominal.
        assert workload.mean_rate_rps == pytest.approx(4.0, rel=0.3)

    def test_model_mix_with_weights(self):
        workload = Workload.poisson(
            ["a", "b"], num_requests=300, rate_rps=1.0, seed=0, weights=[9, 1]
        )
        share_a = sum(1 for r in workload if r.model == "a") / len(workload)
        assert share_a > 0.75

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Workload.poisson("vgg16", num_requests=10, rate_rps=0.0)
        with pytest.raises(ValueError):
            Workload.poisson(["a", "b"], num_requests=10, rate_rps=1.0, weights=[1.0])


class TestDiurnal:
    def test_seeded_reproducibility(self):
        first = Workload.diurnal("vgg16", duration_s=100.0, peak_rps=8.0, seed=42)
        second = Workload.diurnal("vgg16", duration_s=100.0, peak_rps=8.0, seed=42)
        assert [r.arrival_s for r in first] == [r.arrival_s for r in second]
        assert [r.model for r in first] == [r.model for r in second]
        third = Workload.diurnal("vgg16", duration_s=100.0, peak_rps=8.0, seed=43)
        assert [r.arrival_s for r in first] != [r.arrival_s for r in third]

    def test_arrivals_sorted_and_within_span(self):
        workload = Workload.diurnal(
            "alexnet", duration_s=50.0, peak_rps=10.0, seed=1, start_s=5.0
        )
        arrivals = [r.arrival_s for r in workload]
        assert arrivals == sorted(arrivals)
        assert all(5.0 <= t < 55.0 for t in arrivals)

    def test_curve_peaks_midway(self):
        """A raised-cosine cycle concentrates arrivals around the middle."""
        workload = Workload.diurnal(
            "alexnet", duration_s=300.0, peak_rps=12.0, trough_rps=1.0, seed=0
        )
        arrivals = [r.arrival_s for r in workload]
        middle = sum(1 for t in arrivals if 100.0 <= t < 200.0)
        first = sum(1 for t in arrivals if t < 100.0)
        # The middle third of the cycle holds the peak, the first third the
        # climb out of the trough: the raised cosine puts ~2.6x more mass in
        # the middle. Assert with slack for sampling noise.
        assert middle > 1.8 * first

    def test_default_trough_is_a_tenth_of_peak(self):
        workload = Workload.diurnal("alexnet", duration_s=30.0, peak_rps=20.0, seed=3)
        assert workload.name == "diurnal:alexnet@2-20rps"

    def test_slo_and_model_mix_carried(self):
        workload = Workload.diurnal(
            ["a", "b"],
            duration_s=200.0,
            peak_rps=6.0,
            seed=0,
            weights=[9, 1],
            slo_ms=250.0,
        )
        assert all(r.slo_ms == 250.0 for r in workload)
        share_a = sum(1 for r in workload if r.model == "a") / len(workload)
        assert share_a > 0.75

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Workload.diurnal("a", duration_s=0.0, peak_rps=5.0)
        with pytest.raises(ValueError):
            Workload.diurnal("a", duration_s=10.0, peak_rps=0.0)
        with pytest.raises(ValueError):
            Workload.diurnal("a", duration_s=10.0, peak_rps=5.0, trough_rps=6.0)
        with pytest.raises(ValueError):
            Workload.diurnal("a", duration_s=10.0, peak_rps=5.0, period_s=0.0)
        with pytest.raises(ValueError):
            Workload.diurnal(["a", "b"], duration_s=10.0, peak_rps=5.0, weights=[1.0])


class TestMerge:
    def test_merge_reindexes_by_arrival(self):
        early = Workload.constant_rate("a", num_requests=2, interval_s=2.0)
        late = Workload.constant_rate("b", num_requests=2, interval_s=2.0, start_s=1.0)
        merged = Workload.merge(early, late)
        assert [r.model for r in merged] == ["a", "b", "a", "b"]
        assert [r.index for r in merged] == [0, 1, 2, 3]

    def test_unsorted_requests_rejected(self):
        with pytest.raises(ValueError):
            Workload(
                requests=[
                    Request(index=0, model="a", arrival_s=1.0),
                    Request(index=1, model="a", arrival_s=0.5),
                ]
            )


class TestSourcePinning:
    def test_default_source_is_none(self):
        workload = Workload.constant_rate("a", num_requests=3, interval_s=1.0)
        assert all(r.source is None for r in workload)

    def test_constant_rate_round_robins_sources(self):
        workload = Workload.constant_rate(
            "a", num_requests=5, interval_s=1.0, sources=["d0", "d1"]
        )
        assert [r.source for r in workload] == ["d0", "d1", "d0", "d1", "d0"]

    def test_poisson_round_robins_sources(self):
        workload = Workload.poisson(
            ["a", "b"], num_requests=6, rate_rps=2.0, seed=1, sources=("d0", "d1", "d2")
        )
        assert [r.source for r in workload] == ["d0", "d1", "d2", "d0", "d1", "d2"]

    def test_single_source_string(self):
        workload = Workload.poisson("a", num_requests=2, rate_rps=1.0, sources="d1")
        assert [r.source for r in workload] == ["d1", "d1"]

    def test_single_request_source(self):
        assert Workload.single("a", source="d3").requests[0].source == "d3"

    def test_merge_preserves_sources(self):
        fleet_a = Workload.constant_rate("a", 2, interval_s=2.0, sources=["d0"])
        fleet_b = Workload.constant_rate("b", 2, interval_s=2.0, start_s=1.0, sources=["d1"])
        merged = Workload.merge(fleet_a, fleet_b)
        assert [r.source for r in merged] == ["d0", "d1", "d0", "d1"]
