"""Online cost calibration and bandwidth forecasting.

The planner prices compute with an analytic roofline and transfers with the
declared tier-pair rates, but the simulator disagrees with both in ways a
deployment would too: nodes carry heterogeneous ``speed_factor``s, multi-hop
routes store-and-forward, and traced links drift.  This module closes the
loop from *observed* timings back into planning, and looks ahead so the
repartitioner can move before — not after — a drift breaches the band:

``OnlineCostCalibrator``
    Exponentially smooths per-(model, node, layer) and per-(model, tier,
    layer) compute latencies, per-link and per-tier-pair throughput, and
    per-model end-to-end latency inflation from the simulator's
    task/transfer/request observations.  A monotonically
    increasing ``revision`` bumps only when an estimate actually moves
    (beyond ``rel_epsilon``), so :class:`~repro.core.placement.PlanEvaluator`
    can key its memo tables on it and admission control can scale its
    predicted latency cheaply.

``BandwidthForecaster``
    EWMA level + Holt linear trend over the ``BandwidthTrace`` samples seen
    so far, with irregular-interval (dt-aware) updates.  ``forecast(h)``
    extrapolates the backbone multiplier ``h`` seconds ahead; the
    repartitioner treats a *forecast* band breach as a trigger.

``AdaptationTracker``
    Bookkeeping for the serving report: proactive vs reactive repartitions,
    and mispredicts (a proactive trigger whose predicted breach never
    materialised within the horizon).

``CalibrationConfig`` / ``resolve_calibration``
    The user-facing knob bundle.  ``resolve_calibration(None)`` returns
    ``None`` and the engine takes the untouched hot path, keeping existing
    golden traces bit-identical.

Everything here is pure arithmetic over observed values: deterministic for a
fixed observation history, no randomness, no wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "CalibrationConfig",
    "EwmaEstimator",
    "OnlineCostCalibrator",
    "BandwidthForecaster",
    "AdaptationTracker",
    "NO_MODEL",
    "resolve_calibration",
]

#: The model key of layer observations made without naming a model.
NO_MODEL = ""


@dataclass(frozen=True)
class CalibrationConfig:
    """Serve-time calibration knobs.

    ``horizon_s`` is the forecast look-ahead for proactive repartitioning;
    ``0.0`` disables forecasting entirely (the calibrator still learns, and
    the threshold rule stays purely reactive — that is the "reactive"
    baseline of ``scenario adaptation``).
    """

    alpha: float = 0.3  # EWMA weight of the newest compute/throughput sample
    trend_beta: float = 0.2  # Holt trend smoothing for the forecaster
    horizon_s: float = 2.0  # forecast look-ahead; 0 disables proactive mode
    #: Relative change below which an estimate is not considered "updated".
    #: This is the significance floor for the whole adaptation loop: revision
    #: bumps (which invalidate the evaluator's memo tables) and the adaptive
    #: observation gates both key off it, so it must sit above per-request
    #: queueing jitter (~1e-4 relative) and far below real drift (>1e-1).
    rel_epsilon: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.trend_beta <= 1.0:
            raise ValueError("trend_beta must be in (0, 1]")
        if self.horizon_s < 0.0:
            raise ValueError("horizon_s must be non-negative")
        if self.rel_epsilon < 0.0:
            raise ValueError("rel_epsilon must be non-negative")


class EwmaEstimator:
    """One exponentially-weighted mean with observed-range tracking.

    The estimate is seeded at the first observation and thereafter moves by
    ``alpha`` toward each new sample, so it is a convex combination of
    observations and can never leave ``[minimum, maximum]`` — the property
    suite pins that invariant.
    """

    __slots__ = ("alpha", "mean", "minimum", "maximum", "count")

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.mean = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.count = 0

    def observe(self, value: float, rel_epsilon: float = 0.0) -> bool:
        """Fold in a sample; True when the mean moved beyond ``rel_epsilon``."""
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self.count == 1:
            self.mean = value
            return True
        previous = self.mean
        self.mean = previous + self.alpha * (value - previous)
        scale = max(abs(previous), abs(self.mean), 1e-12)
        return abs(self.mean - previous) > rel_epsilon * scale


class _AdaptiveGate:
    """Adaptive decimation for a high-rate observation stream.

    After ``QUIET_RUN`` consecutive admitted batches that moved no estimate,
    the sampling stride doubles (up to ``MAX_STRIDE``); any real update snaps
    it back to 1.  A stationary workload therefore pays for 1 batch in 64
    while a regime change is noticed within at most ``MAX_STRIDE - 1``
    skipped batches — bounded staleness, and what holds the calibrated
    cell of ``benchmarks/overhead.py`` to a few percent over FIFO.
    """

    __slots__ = ("tick", "stride", "quiet")

    QUIET_RUN = 32
    MAX_STRIDE = 64

    def __init__(self) -> None:
        self.tick = 0
        self.stride = 1
        self.quiet = 0

    def settle(self, updated: bool) -> None:
        """Record an admitted batch's outcome and adapt the stride."""
        if updated:
            self.stride = 1
            self.quiet = 0
        else:
            self.quiet += 1
            if self.quiet >= self.QUIET_RUN and self.stride < self.MAX_STRIDE:
                self.stride *= 2
                self.quiet = 0

    def decimate(self) -> None:
        """Grow the stride on a fixed admitted-count schedule, updates or not.

        For streams whose every sample is a genuine move — request latency
        under sustained overload climbs monotonically — ``settle`` would pin
        the stride at 1 forever.  An EWMA of a decimated monotone stream
        still tracks it (with bounded extra lag), so these streams trade
        per-sample fidelity for a hard cap on hot-path cost.
        """
        self.quiet += 1
        if self.quiet >= self.QUIET_RUN and self.stride < self.MAX_STRIDE:
            self.stride *= 2
            self.quiet = 0


class OnlineCostCalibrator:
    """Learns corrected cost estimates from simulator observations.

    Keys mirror what the simulator can actually see: compute tasks carry a
    ``(model, node, label)`` triple plus the plan's tier, transfers carry a
    physical link id and a payload size, and retired requests carry the
    ratio of achieved to planned latency.  The model is part of every layer
    key because layer labels are only unique within one graph (alexnet and
    vgg16 both have an ``fc1``); callers that pass no model share the
    :data:`NO_MODEL` bucket.  Planning consumes the *tier-pooled* layer
    estimates (plans bind stages to tiers before nodes) while the per-node
    table stays queryable for diagnostics and admission control.
    """

    def __init__(self, config: Optional[CalibrationConfig] = None) -> None:
        self.config = config or CalibrationConfig()
        self.revision = 0
        self.updates = 0
        self._node_layer: Dict[Tuple[str, str, str], EwmaEstimator] = {}
        self._tier_layer: Dict[Tuple[str, str, str], EwmaEstimator] = {}
        self._link_mbps: Dict[str, EwmaEstimator] = {}
        self._pair_mbps: Dict[Tuple[str, str], EwmaEstimator] = {}
        self._latency_ratio: Dict[str, EwmaEstimator] = {}
        self.task_gate = _AdaptiveGate()
        self.flow_gate = _AdaptiveGate()
        # Request latencies get their own gate: under sustained overload the
        # achieved/planned ratio climbs monotonically (every sample is a real
        # update), and sharing a gate would pin the long-converged transfer
        # streams at stride 1 alongside it.
        self.request_gate = _AdaptiveGate()

    # ------------------------------------------------------------------ #
    # observation side (called from the simulator hot loop)
    def _observe(self, table: Dict, key, value: float) -> None:
        estimator = table.get(key)
        if estimator is None:
            estimator = table[key] = EwmaEstimator(self.config.alpha)
        if estimator.observe(value, self.config.rel_epsilon):
            self.revision += 1
            self.updates += 1

    # Each stream family is sampled behind an adaptive gate.  Hot-path
    # callers use the two-step form — ``if cal.admit_x(): cal.record_x(...)``
    # — so a closed gate costs two integer ops *before* any argument
    # preparation (name resolution, string joins, ratio math).  The
    # ``observe_*`` methods below compose the two steps for everyone else.
    def admit_tasks(self) -> bool:
        """Advance the task gate; True when this unit's batch should be
        recorded."""
        gate = self.task_gate
        gate.tick += 1
        return not gate.tick % gate.stride

    def admit_flow(self) -> bool:
        """Advance the transfer/route gate; True to record this flow event."""
        gate = self.flow_gate
        gate.tick += 1
        return not gate.tick % gate.stride

    def admit_request(self) -> bool:
        """Advance the request-latency gate; True to record this retirement."""
        gate = self.request_gate
        gate.tick += 1
        return not gate.tick % gate.stride

    def observe_tasks(self, tasks, tier: str, model: str = NO_MODEL) -> None:
        """One batch of ``model``'s compute tasks on ``tier``, as ``(node,
        duration_s, label, ...)`` tuples (``node`` may be a node object or
        its name).

        This is the highest-rate observation stream, so it is gated per
        *batch*: when the gate is closed the whole batch costs one increment
        and one modulo.  The serving engine inlines the gate and samples
        whole requests (one gate tick per request, one batch per unit).
        """
        if self.admit_tasks():
            self.record_tasks(tasks, tier, model)

    def record_tasks(self, tasks, tier: str, model: str = NO_MODEL) -> None:
        """Record one admitted batch (caller already won ``admit_tasks``)."""
        gate = self.task_gate
        before = self.revision
        node_table, tier_table = self._node_layer, self._tier_layer
        for node, duration_s, label, *_ in tasks:
            if duration_s <= 0.0:
                continue
            self._observe(
                node_table, (model, getattr(node, "name", node), label), duration_s
            )
            self._observe(tier_table, (model, tier, label), duration_s)
        gate.settle(self.revision != before)

    def observe_task(
        self,
        node: str,
        label: str,
        tier: str,
        duration_s: float,
        model: str = NO_MODEL,
    ) -> None:
        """A single compute task of ``model``'s ``label`` ran for
        ``duration_s`` on ``node``."""
        self.observe_tasks(((node, duration_s, label),), tier, model)

    def _record(self, table: Dict, key, value: float, gate: _AdaptiveGate) -> None:
        """Record one admitted flow-side observation and settle its gate."""
        before = self.revision
        self._observe(table, key, value)
        gate.settle(self.revision != before)

    def observe_transfer(self, link_id: str, payload_bytes: int, duration_s: float) -> None:
        """A payload crossed one physical link in ``duration_s``."""
        if self.admit_flow():
            self.record_transfer(link_id, payload_bytes, duration_s)

    def record_transfer(self, link_id: str, payload_bytes: int, duration_s: float) -> None:
        if duration_s <= 0.0:
            return
        mbps = payload_bytes * 8.0 / (duration_s * 1e6)
        self._record(self._link_mbps, link_id, mbps, self.flow_gate)

    def observe_route(
        self, src_tier: str, dst_tier: str, payload_bytes: int, duration_s: float
    ) -> None:
        """A payload finished the whole (possibly multi-hop) tier-pair route."""
        if self.admit_flow():
            self.record_route(src_tier, dst_tier, payload_bytes, duration_s)

    def record_route(
        self, src_tier: str, dst_tier: str, payload_bytes: int, duration_s: float
    ) -> None:
        if duration_s <= 0.0 or src_tier == dst_tier:
            return
        mbps = payload_bytes * 8.0 / (duration_s * 1e6)
        self._record(self._pair_mbps, (src_tier, dst_tier), mbps, self.flow_gate)

    def observe_request(self, model: str, latency_s: float, ideal_s: float) -> None:
        """A request completed; learn achieved / planned latency inflation."""
        if self.admit_request():
            self.record_request(model, latency_s, ideal_s)

    def record_request(self, model: str, latency_s: float, ideal_s: float) -> None:
        if ideal_s <= 0.0 or latency_s <= 0.0:
            return
        self._observe(self._latency_ratio, model, latency_s / ideal_s)
        # Unconditional decimation: when the fleet is saturated every ratio
        # sample moves the estimate, so an update-driven stride would never
        # widen (see ``_AdaptiveGate.decimate``).
        self.request_gate.decimate()

    # ------------------------------------------------------------------ #
    # estimate side (consumed by the evaluator / admission control)
    def layer_seconds(
        self, label: str, tier: str, default: float, model: str = NO_MODEL
    ) -> float:
        """Calibrated compute latency of ``model``'s ``label`` on ``tier``
        (or ``default``)."""
        estimator = self._tier_layer.get((model, getattr(tier, "value", tier), label))
        return estimator.mean if estimator is not None else default

    def node_layer_seconds(
        self, node: str, label: str, default: float, model: str = NO_MODEL
    ) -> float:
        estimator = self._node_layer.get((model, node, label))
        return estimator.mean if estimator is not None else default

    def link_mbps(self, link_id: str, default: float) -> float:
        estimator = self._link_mbps.get(link_id)
        return estimator.mean if estimator is not None else default

    def pair_transfer_seconds(
        self, payload_bytes: int, src_tier: str, dst_tier: str, default: float
    ) -> float:
        """Calibrated tier-pair transfer latency (or the analytic ``default``)."""
        src = getattr(src_tier, "value", src_tier)
        dst = getattr(dst_tier, "value", dst_tier)
        estimator = self._pair_mbps.get((src, dst)) or self._pair_mbps.get((dst, src))
        if estimator is None or estimator.mean <= 0.0:
            return default
        return payload_bytes * 8.0 / (estimator.mean * 1e6)

    def latency_factor(self, model: str) -> float:
        """Achieved / planned latency inflation for ``model`` (clamped).

        Admission control multiplies the plan's ideal latency by this, so a
        systematically optimistic plan sheds earlier.  Clamped to ``[0.5, 4]``
        so one pathological sample cannot blackhole or flood admission.
        """
        estimator = self._latency_ratio.get(model)
        if estimator is None or estimator.count == 0:
            return 1.0
        return min(4.0, max(0.5, estimator.mean))


class BandwidthForecaster:
    """Holt's linear-trend forecaster over irregularly-spaced trace samples.

    The classic recursion assumes unit-spaced samples; serving observes the
    trace at arrival times, so the update is dt-aware: the trend is an
    estimated *slope per second* and the one-step-ahead prior is
    ``level + trend * dt``.  A constant signal keeps the trend at exactly
    zero, so the forecast equals the level and proactive mode never fires —
    the "no churn on a flat trace" property.
    """

    __slots__ = ("alpha", "beta", "level", "trend", "last_time", "count")

    def __init__(self, alpha: float = 0.3, beta: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        self.alpha = alpha
        self.beta = beta
        self.level = 0.0
        self.trend = 0.0
        self.last_time = 0.0
        self.count = 0

    def observe(self, time_s: float, value: float) -> None:
        """Fold in the trace sample in effect at ``time_s``."""
        if self.count == 0:
            self.level = value
            self.trend = 0.0
            self.last_time = time_s
            self.count = 1
            return
        dt = time_s - self.last_time
        if dt <= 0.0:
            # Same-instant re-observation (several arrivals share a clock
            # tick): refresh the level only, a zero-dt slope is undefined.
            previous = self.level
            self.level = previous + self.alpha * (value - previous)
            self.count += 1
            return
        prior = self.level + self.trend * dt
        new_level = prior + self.alpha * (value - prior)
        new_slope = (new_level - self.level) / dt
        self.trend = self.trend + self.beta * (new_slope - self.trend)
        self.level = new_level
        self.last_time = time_s
        self.count += 1

    def forecast(self, horizon_s: float) -> float:
        """Predicted value ``horizon_s`` seconds past the last observation.

        Floored at a small positive value: a bandwidth multiplier of zero or
        below is physically meaningless and would crash condition scaling.
        """
        if self.count == 0:
            return 1.0
        return max(1e-3, self.level + self.trend * horizon_s)


@dataclass
class _PendingPrediction:
    predicted_at: float
    deadline: float  # predicted_at + horizon: breach must materialise by then
    reference: float  # the trace sample the band was anchored to


@dataclass
class AdaptationTracker:
    """Counts proactive/reactive repartitions and scores proactive calls.

    A proactive repartition records the trace sample it anchored on; if the
    *actual* sample leaves the reactive band relative to that anchor before
    the forecast horizon expires, the call is confirmed — otherwise it counts
    as a mispredict (churn the reactive rule would not have caused).
    """

    lower: float = 0.75
    upper: float = 1.25
    proactive: int = 0
    reactive: int = 0
    mispredicts: int = 0
    events: List[Tuple[float, str]] = field(default_factory=list)
    _pending: List[_PendingPrediction] = field(default_factory=list)

    def record_reactive(self, time_s: float) -> None:
        self.reactive += 1
        self.events.append((time_s, "reactive"))

    def record_proactive(self, time_s: float, horizon_s: float, reference: float) -> None:
        self.proactive += 1
        self.events.append((time_s, "proactive"))
        self._pending.append(
            _PendingPrediction(time_s, time_s + horizon_s, reference)
        )

    def observe_sample(self, time_s: float, sample: float) -> None:
        """Resolve pending predictions against the sample at ``time_s``."""
        if not self._pending:
            return
        survivors: List[_PendingPrediction] = []
        for pending in self._pending:
            ratio = sample / pending.reference if pending.reference > 0 else 1.0
            if ratio < self.lower or ratio > self.upper:
                continue  # breach materialised: confirmed, drop silently
            if time_s > pending.deadline:
                self.mispredicts += 1  # horizon expired without a breach
                continue
            survivors.append(pending)
        self._pending = survivors

    def finish(self, time_s: float) -> None:
        """End of run: expire predictions whose horizon is already past."""
        for pending in self._pending:
            if time_s > pending.deadline:
                self.mispredicts += 1
        self._pending = []


def resolve_calibration(
    calibration: Union[None, bool, CalibrationConfig, OnlineCostCalibrator],
) -> Optional[OnlineCostCalibrator]:
    """Fold the user-facing ``calibration=`` knob into a calibrator.

    ``None``/``False`` return ``None`` — the engine then takes the untouched
    hot path and existing golden traces stay bit-identical.  ``True`` means
    defaults; a config builds a fresh calibrator; a calibrator passes through
    (so tests can pre-warm one).
    """
    if calibration is None or calibration is False:
        return None
    if calibration is True:
        return OnlineCostCalibrator()
    if isinstance(calibration, CalibrationConfig):
        return OnlineCostCalibrator(calibration)
    if isinstance(calibration, OnlineCostCalibrator):
        return calibration
    raise TypeError(
        "calibration must be None, a bool, a CalibrationConfig, or an "
        f"OnlineCostCalibrator, not {type(calibration).__name__}"
    )
