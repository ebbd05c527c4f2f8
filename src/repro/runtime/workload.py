"""Request streams for the multi-request serving engine.

A :class:`Workload` is an ordered stream of :class:`Request`s — each naming a
model (or carrying an explicit graph) and an arrival time.  The two arrival
processes of interest are *deterministic* (fixed inter-arrival gap, the
closed-loop load generator) and *Poisson* (exponential inter-arrival gaps, the
open-loop load generator of virtually every serving paper).  Both are seeded so
that a workload is a reproducible artefact: the same seed yields the same
arrival times and the same model choices, which keeps serving experiments and
their regression tests deterministic.

The degenerate single-request workload (:meth:`Workload.single`) is how the
original one-shot pipeline is expressed on top of the serving engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.dag import DnnGraph

#: A model reference: a zoo name ("vgg16") or an already-built graph.
ModelRef = Union[str, DnnGraph]


def _model_name(model: ModelRef) -> str:
    return model.name if isinstance(model, DnnGraph) else model


@dataclass(frozen=True)
class Request:
    """One inference request of a workload.

    Attributes
    ----------
    index:
        Position of the request in the workload (also its arrival order).
    model:
        Name of the requested model (a zoo name unless ``graph`` is given).
    arrival_s:
        Time at which the request enters the system, in seconds from the
        start of the workload.
    graph:
        Optional explicit DNN graph; when ``None`` the serving layer resolves
        ``model`` through :func:`repro.models.zoo.build_model`.
    source:
        Name of the device node the request originates at; ``None`` (the
        back-compat default) means the cluster's single/primary device.
        Multi-device topologies pin requests to distinct fleet members here.
    slo_ms:
        Latency service-level objective in milliseconds; ``None`` (the
        default) is best-effort.  SLO-aware schedulers order and shed by it,
        and the serving report's goodput/attainment metrics judge against it.
    priority:
        Priority class, 0 = most important.  The deadline scheduler serves
        classes strictly in order; per-class latency percentiles are
        reported.
    """

    index: int
    model: str
    arrival_s: float
    graph: Optional[DnnGraph] = None
    source: Optional[str] = None
    slo_ms: Optional[float] = None
    priority: int = 0

    def __post_init__(self) -> None:
        # ``nan < 0`` is False, so finiteness is checked on its own.
        if not math.isfinite(self.arrival_s):
            raise ValueError(f"arrival time must be finite, got {self.arrival_s!r}")
        if self.arrival_s < 0:
            raise ValueError("arrival time cannot be negative")
        if self.slo_ms is not None and not math.isfinite(self.slo_ms):
            raise ValueError(f"slo_ms must be finite when set, got {self.slo_ms!r}")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive when set")
        if self.priority < 0:
            raise ValueError("priority class cannot be negative")

    @property
    def request_id(self) -> str:
        return f"req-{self.index}"


@dataclass
class Workload:
    """An ordered stream of inference requests over one or several models."""

    requests: List[Request]
    name: str = "workload"

    def __post_init__(self) -> None:
        # Single pairwise pass — no copied list, no O(n log n) sorted() probe
        # (a million-request workload validates in linear time).
        previous = None
        for request in self.requests:
            arrival = request.arrival_s
            if previous is not None and arrival < previous:
                raise ValueError("workload requests must be ordered by arrival time")
            previous = arrival

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def models(self) -> List[str]:
        """Distinct model names, in first-appearance order."""
        seen: List[str] = []
        for request in self.requests:
            if request.model not in seen:
                seen.append(request.model)
        return seen

    @property
    def duration_s(self) -> float:
        """Time of the last arrival."""
        return self.requests[-1].arrival_s if self.requests else 0.0

    @property
    def mean_rate_rps(self) -> float:
        """Average arrival rate over the workload's span."""
        if len(self.requests) < 2 or self.duration_s == 0:
            return 0.0
        return (len(self.requests) - 1) / self.duration_s

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def single(
        cls,
        model: ModelRef,
        at_s: float = 0.0,
        source: Optional[str] = None,
        slo_ms: Optional[float] = None,
        priority: int = 0,
    ) -> "Workload":
        """The degenerate one-request workload (the original one-shot path)."""
        graph = model if isinstance(model, DnnGraph) else None
        request = Request(
            index=0,
            model=_model_name(model),
            arrival_s=at_s,
            graph=graph,
            source=source,
            slo_ms=slo_ms,
            priority=priority,
        )
        return cls(requests=[request], name=f"single:{request.model}")

    @classmethod
    def constant_rate(
        cls,
        models: Union[ModelRef, Sequence[ModelRef]],
        num_requests: int,
        interval_s: float,
        start_s: float = 0.0,
        sources: Optional[Sequence[str]] = None,
        slo_ms: Optional[float] = None,
        priorities: Optional[Sequence[int]] = None,
    ) -> "Workload":
        """Deterministic arrivals every ``interval_s`` seconds.

        With several models the stream cycles through them round-robin, so the
        mix is exact rather than merely expected; ``sources`` cycles the same
        way, pinning request *i* to device ``sources[i % len(sources)]``.
        ``slo_ms`` applies one latency SLO to every request; ``priorities``
        cycles priority classes round-robin (e.g. ``(0, 2)`` interleaves
        premium and background traffic exactly 1:1).
        """
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if interval_s < 0:
            raise ValueError("interval cannot be negative")
        choices = _as_model_list(models)
        origins = _as_source_list(sources)
        classes = list(priorities) if priorities else [0]
        requests = [
            Request(
                index=i,
                model=_model_name(choices[i % len(choices)]),
                arrival_s=start_s + i * interval_s,
                graph=choices[i % len(choices)] if isinstance(choices[i % len(choices)], DnnGraph) else None,
                source=origins[i % len(origins)] if origins else None,
                slo_ms=slo_ms,
                priority=classes[i % len(classes)],
            )
            for i in range(num_requests)
        ]
        names = "+".join(_model_name(c) for c in choices)
        return cls(requests=requests, name=f"constant:{names}@{interval_s:g}s")

    @classmethod
    def poisson(
        cls,
        models: Union[ModelRef, Sequence[ModelRef]],
        num_requests: int,
        rate_rps: float,
        seed: int = 0,
        start_s: float = 0.0,
        weights: Optional[Sequence[float]] = None,
        sources: Optional[Sequence[str]] = None,
        slo_ms: Optional[float] = None,
        priorities: Optional[Sequence[int]] = None,
    ) -> "Workload":
        """Poisson arrivals at ``rate_rps`` requests per second.

        Inter-arrival gaps are exponential with mean ``1 / rate_rps``; with
        several models each request samples its model from ``weights``
        (uniform when omitted).  ``sources`` pins request *i* to device
        ``sources[i % len(sources)]`` — round-robin, so a fleet's devices
        contribute exactly evenly.  ``slo_ms`` applies one latency SLO to
        every request and ``priorities`` cycles priority classes round-robin.
        Fully determined by ``seed``.
        """
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if rate_rps <= 0:
            raise ValueError("rate must be positive")
        choices = _as_model_list(models)
        if weights is not None and len(weights) != len(choices):
            raise ValueError("weights must match the number of models")
        probabilities = None
        if weights is not None:
            total = float(sum(weights))
            if total <= 0:
                raise ValueError("weights must sum to a positive value")
            probabilities = [w / total for w in weights]

        rng = np.random.default_rng(seed)
        gaps = rng.exponential(scale=1.0 / rate_rps, size=num_requests)
        picks = rng.choice(len(choices), size=num_requests, p=probabilities)
        origins = _as_source_list(sources)
        classes = list(priorities) if priorities else [0]
        arrival = start_s
        requests: List[Request] = []
        for i in range(num_requests):
            if i > 0:
                arrival += float(gaps[i])
            choice = choices[int(picks[i])]
            requests.append(
                Request(
                    index=i,
                    model=_model_name(choice),
                    arrival_s=arrival,
                    graph=choice if isinstance(choice, DnnGraph) else None,
                    source=origins[i % len(origins)] if origins else None,
                    slo_ms=slo_ms,
                    priority=classes[i % len(classes)],
                )
            )
        names = "+".join(_model_name(c) for c in choices)
        return cls(requests=requests, name=f"poisson:{names}@{rate_rps:g}rps")

    @classmethod
    def diurnal(
        cls,
        models: Union[ModelRef, Sequence[ModelRef]],
        duration_s: float,
        peak_rps: float,
        trough_rps: Optional[float] = None,
        period_s: Optional[float] = None,
        seed: int = 0,
        start_s: float = 0.0,
        weights: Optional[Sequence[float]] = None,
        sources: Optional[Sequence[str]] = None,
        slo_ms: Optional[float] = None,
        priorities: Optional[Sequence[int]] = None,
    ) -> "Workload":
        """A diurnal arrival curve: traffic ebbs and swells like a day of
        user load.

        An inhomogeneous Poisson process (sampled by thinning, so it is
        exact, not binned) whose rate follows a raised cosine from
        ``trough_rps`` up to ``peak_rps`` and back over each ``period_s``
        (default: one full cycle spanning ``duration_s``, starting and
        ending at the trough with the peak mid-way).  ``trough_rps``
        defaults to a tenth of the peak — the classic 10:1 day/night swing
        capacity planning is sized around.  Model mix, sources, SLOs and
        priorities behave exactly as in :meth:`poisson`.  Fully determined
        by ``seed``.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if peak_rps <= 0:
            raise ValueError("peak rate must be positive")
        if trough_rps is None:
            trough_rps = peak_rps / 10.0
        if not 0.0 <= trough_rps <= peak_rps:
            raise ValueError("trough rate must lie in [0, peak_rps]")
        period = duration_s if period_s is None else period_s
        if period <= 0:
            raise ValueError("period must be positive")
        choices = _as_model_list(models)
        if weights is not None and len(weights) != len(choices):
            raise ValueError("weights must match the number of models")
        probabilities = None
        if weights is not None:
            total = float(sum(weights))
            if total <= 0:
                raise ValueError("weights must sum to a positive value")
            probabilities = [w / total for w in weights]

        rng = np.random.default_rng(seed)
        swing = peak_rps - trough_rps
        two_pi = 2.0 * np.pi
        arrivals: List[float] = []
        t = 0.0
        while True:
            # Thinning: candidate arrivals at the peak rate, each kept with
            # probability rate(t) / peak — an exact inhomogeneous sampler.
            t += float(rng.exponential(scale=1.0 / peak_rps))
            if t >= duration_s:
                break
            rate = trough_rps + swing * 0.5 * (1.0 - float(np.cos(two_pi * t / period)))
            if float(rng.random()) * peak_rps <= rate:
                arrivals.append(start_s + t)
        picks = (
            rng.choice(len(choices), size=len(arrivals), p=probabilities)
            if arrivals
            else []
        )
        origins = _as_source_list(sources)
        classes = list(priorities) if priorities else [0]
        requests = []
        for i, arrival in enumerate(arrivals):
            choice = choices[int(picks[i])]
            requests.append(
                Request(
                    index=i,
                    model=_model_name(choice),
                    arrival_s=arrival,
                    graph=choice if isinstance(choice, DnnGraph) else None,
                    source=origins[i % len(origins)] if origins else None,
                    slo_ms=slo_ms,
                    priority=classes[i % len(classes)],
                )
            )
        names = "+".join(_model_name(c) for c in choices)
        return cls(
            requests=requests,
            name=f"diurnal:{names}@{trough_rps:g}-{peak_rps:g}rps",
        )

    @classmethod
    def merge(cls, *workloads: "Workload") -> "Workload":
        """Superpose several workloads into one stream (re-indexed by arrival)."""
        merged = sorted(
            (request for workload in workloads for request in workload),
            key=lambda r: (r.arrival_s, r.index),
        )
        requests = [
            Request(
                index=i,
                model=r.model,
                arrival_s=r.arrival_s,
                graph=r.graph,
                source=r.source,
                slo_ms=r.slo_ms,
                priority=r.priority,
            )
            for i, r in enumerate(merged)
        ]
        name = "|".join(w.name for w in workloads)
        return cls(requests=requests, name=name)

    def with_slo(
        self, slo_ms: Optional[float], priority: Optional[int] = None
    ) -> "Workload":
        """A copy of the workload with every request's SLO (and optionally
        priority class) replaced — how an existing stream is re-shaped into
        a premium or background class."""
        requests = [
            replace(
                request,
                slo_ms=slo_ms,
                priority=request.priority if priority is None else priority,
            )
            for request in self.requests
        ]
        return Workload(requests=requests, name=self.name)


def _as_model_list(models: Union[ModelRef, Sequence[ModelRef]]) -> List[ModelRef]:
    if isinstance(models, (str, DnnGraph)):
        return [models]
    choices = list(models)
    if not choices:
        raise ValueError("need at least one model")
    return choices


def _as_source_list(sources: Optional[Union[str, Sequence[str]]]) -> List[str]:
    if sources is None:
        return []
    if isinstance(sources, str):
        return [sources]
    return list(sources)
