"""Overhead gate: what each opt-in serving subsystem costs the engine, against FIFO.

Every cell serves the same planned stream on ``steady``'s operating point
(alexnet, four edge nodes, wifi, exact profiles, Poisson arrivals at
8.8 req/s: rho 0.50 on the device->edge link), so the queue is stable and a
cell's wall time prices its machinery, not the growth of a backlog.  The
cells run interleaved for ``ROUNDS`` rounds in one process and each keeps its
fastest ``ServingSimulator.run``; the gate is each cell's ratio to ``fifo``.
Host speed cancels out of a within-process ratio, so no host reference is
needed.

``elastic`` (autoscaler pinned at full size), ``memory`` (a roomy, warm
weight cache), ``calibrated`` and ``economics`` must reproduce ``fifo``'s
schedule exactly; only then does their ratio measure overhead.  ``batch``
and ``edf`` (its own stream with a 250 ms SLO, so admission sheds) schedule
differently and are gated on their ratio alone.

Usage::

    PYTHONPATH=src python benchmarks/overhead.py    # exits 1 on a failed gate
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Tuple

MODEL = "alexnet"
RATE_RPS = 8.8
SEED = 1
REQUESTS = 10_000
ROUNDS = 5
EDF_SLO_MS = 250.0
CELLS = ("fifo", "batch", "edf", "elastic", "memory", "calibrated", "economics")
SAME_SCHEDULE = ("elastic", "memory", "calibrated", "economics")
#: 1.10 x each cell's median ratio to ``fifo`` over five runs of this script
#: on a 2-vCPU container (medians: batch 4.58, edf 1.32, elastic 1.34,
#: memory 1.18, calibrated 1.06, economics 1.02).
CEILINGS = {
    "batch": 5.04,
    "edf": 1.45,
    "elastic": 1.47,
    "memory": 1.30,
    "calibrated": 1.17,
    "economics": 1.12,
}


def plan_streams(requests: int):
    """The cluster and the planned ``fifo`` and ``edf`` request streams."""
    from repro.core.d3 import D3Config, D3System
    from repro.runtime.workload import Workload

    system = D3System(
        D3Config(network="wifi", num_edge_nodes=4, use_regression=False, profiler_noise_std=0.0)
    )
    plain = Workload.poisson(MODEL, requests, RATE_RPS, seed=SEED)
    slo = Workload.poisson(MODEL, requests, RATE_RPS, seed=SEED, slo_ms=EDF_SLO_MS)
    return system.cluster, system.plan_requests(plain), system.plan_requests(slo)


def simulator(cluster, cell: str):
    from repro.runtime.artifacts import MemoryModel
    from repro.runtime.calibration import OnlineCostCalibrator
    from repro.runtime.elasticity import Autoscaler
    from repro.runtime.serving import ServingSimulator

    elastic = cell == "elastic"
    return ServingSimulator(
        cluster,
        scheduler=cell if cell in ("batch", "edf") else "fifo",
        stream_stats=True,
        economics=cell == "economics",
        autoscaler=Autoscaler(policy="target-util", min_replicas=4) if elastic else None,
        balancer="jsq" if elastic else None,
        memory=MemoryModel(budget_gb=8.0, codec="zxc", warm=True) if cell == "memory" else None,
        calibration=OnlineCostCalibrator() if cell == "calibrated" else None,
    )


def outcome(report) -> Tuple:
    """The simulated result a same-schedule cell must share with ``fifo``."""
    percentiles = report.latency_percentiles()
    return (
        report.num_completed,
        report.num_rejected,
        report.makespan_s,
        percentiles["p50"],
        percentiles["p95"],
        percentiles["p99"],
        report.mean_latency_s,
        report.mean_queueing_delay_s(),
    )


def measure(requests: int = REQUESTS, rounds: int = ROUNDS):
    """Each cell's fastest ``run`` wall time and its simulated outcome."""
    cluster, plain, slo = plan_streams(requests)
    walls: Dict[str, float] = {}
    outcomes: Dict[str, Tuple] = {}
    for _ in range(rounds):
        for cell in CELLS:
            engine = simulator(cluster, cell)
            start = time.perf_counter()
            engine.run(slo if cell == "edf" else plain)
            wall = time.perf_counter() - start
            walls[cell] = min(wall, walls.get(cell, wall))
            outcomes[cell] = outcome(engine.build_report(MODEL, []))
    return walls, outcomes


def check(walls: Dict[str, float], outcomes: Dict[str, Tuple]) -> List[str]:
    """Every failed gate: a ratio above its ceiling or a changed schedule."""
    failures = []
    for cell, ceiling in CEILINGS.items():
        ratio = walls[cell] / walls["fifo"]
        if ratio > ceiling:
            failures.append(f"{cell}: {ratio:.2f}x fifo exceeds its ceiling {ceiling:.2f}x")
    for cell in SAME_SCHEDULE:
        if outcomes[cell] != outcomes["fifo"]:
            failures.append(f"{cell}: outcome {outcomes[cell]} differs from fifo's {outcomes['fifo']}")
    return failures


def main() -> int:
    walls, outcomes = measure()
    for cell in CELLS:
        ceiling = f"  (ceiling {CEILINGS[cell]:.2f}x)" if cell in CEILINGS else ""
        print(f"{cell:<11} run {walls[cell]:7.3f} s  {walls[cell] / walls['fifo']:5.2f}x fifo{ceiling}")
    failures = check(walls, outcomes)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
