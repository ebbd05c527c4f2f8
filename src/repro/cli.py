"""Command-line entry point (``python -m repro`` / the ``repro`` console script).

Three subcommands cover the repository's entry points:

``repro run``
    One-shot D3 inference of a model under a network condition (the paper's
    pipeline of Fig. 2) — prints the placement and the execution report.

``repro serve``
    Multi-request serving: builds a deterministic or Poisson workload, drives
    it through :meth:`repro.core.d3.D3System.serve` and prints the serving
    report (percentile latency, throughput, queueing delay, plan-cache stats).

``repro scenario``
    Regenerate a named paper artefact (``fig09``, ``table02``, ...) or the
    serving rate sweep, printing the same tables the benchmarks assert on.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.version import __version__

#: Named paper scenarios: name -> (run callable, format callable), resolved
#: lazily so ``repro --help`` stays fast.
SCENARIO_NAMES = (
    "fig01",
    "fig04",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table01",
    "table02",
    "serving",
    "serving_methods",
    "topologies",
    "availability",
    "slo",
    "autoscale",
    "multimodel",
    "adaptation",
    "pareto",
)


def _scenario_registry() -> Dict[str, Tuple[Callable, Callable]]:
    from repro.experiments import (
        fig01_layer_profile,
        fig04_regression,
        fig09_hpa_speedup,
        fig10_vs_baselines,
        fig11_bandwidth_sweep,
        fig12_hpa_vsm,
        fig13_communication,
        table01_pair_latency,
        table02_tier_times,
    )
    from repro.experiments import adaptation as adaptation_harness
    from repro.experiments import autoscale as autoscale_harness
    from repro.experiments import availability as availability_harness
    from repro.experiments import multimodel as multimodel_harness
    from repro.experiments import pareto as pareto_harness
    from repro.experiments import serving as serving_harness
    from repro.experiments import slo as slo_harness
    from repro.experiments import topologies as topologies_harness

    return {
        "fig01": (fig01_layer_profile.run_layer_profile, fig01_layer_profile.format_layer_profile),
        "fig04": (fig04_regression.run_regression_experiment, fig04_regression.format_regression),
        "fig09": (fig09_hpa_speedup.run_hpa_speedup, fig09_hpa_speedup.format_hpa_speedup),
        "fig10": (fig10_vs_baselines.run_vs_baselines, fig10_vs_baselines.format_vs_baselines),
        "fig11": (fig11_bandwidth_sweep.run_bandwidth_sweep, fig11_bandwidth_sweep.format_bandwidth_sweep),
        "fig12": (fig12_hpa_vsm.run_hpa_vsm, fig12_hpa_vsm.format_hpa_vsm),
        "fig13": (fig13_communication.run_communication, fig13_communication.format_communication),
        "table01": (table01_pair_latency.run_pair_latency, table01_pair_latency.format_pair_latency),
        "table02": (table02_tier_times.run_tier_times, table02_tier_times.format_tier_times),
        "serving": (
            lambda: serving_harness.run_rate_sweep([0.5, 1.0, 2.0, 4.0, 8.0]),
            serving_harness.format_rate_sweep,
        ),
        "serving_methods": (
            lambda: serving_harness.run_method_comparison(
                ("neurosurgeon", "dads", "cloud_only", "hpa", "hpa_vsm"),
                serving_harness.ServingScenario(
                    models=("alexnet",), num_requests=50, rate_rps=4.0
                ),
            ),
            serving_harness.format_method_comparison,
        ),
        "topologies": (
            topologies_harness.run_topology_comparison,
            topologies_harness.format_topology_comparison,
        ),
        "availability": (
            availability_harness.run_availability_comparison,
            availability_harness.format_availability_comparison,
        ),
        "slo": (
            slo_harness.run_slo_comparison,
            slo_harness.format_slo_comparison,
        ),
        "autoscale": (
            autoscale_harness.run_autoscale_comparison,
            autoscale_harness.format_autoscale_comparison,
        ),
        "multimodel": (
            multimodel_harness.run_multimodel_comparison,
            multimodel_harness.format_multimodel_comparison,
        ),
        "adaptation": (
            adaptation_harness.run_adaptation_comparison,
            adaptation_harness.format_adaptation_comparison,
        ),
        "pareto": (
            pareto_harness.run_pareto_comparison,
            pareto_harness.format_pareto_comparison,
        ),
    }


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="D3 reproduction: distributed DNN inference across device, edge and cloud.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    run = subparsers.add_parser("run", help="one-shot D3 inference of a model")
    _add_system_arguments(run)
    run.add_argument("--no-vsm", action="store_true", help="disable VSM tile parallelism")

    serve = subparsers.add_parser("serve", help="serve a multi-request workload")
    _add_system_arguments(serve)
    serve.add_argument("--requests", type=int, default=100, help="number of requests")
    serve.add_argument("--rate", type=float, default=2.0, help="arrival rate (req/s)")
    serve.add_argument(
        "--arrival",
        choices=("poisson", "constant"),
        default="poisson",
        help="arrival process",
    )
    serve.add_argument("--seed", type=int, default=0, help="workload seed")
    serve.add_argument(
        "--uncontended-links",
        action="store_true",
        help="disable link contention (the paper's one-shot assumption)",
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="PATH|chaos:SEED",
        help=(
            "failure scenario: a fault-schedule JSON file or chaos:<seed> for a "
            "seeded random crash/recover schedule over the deployed topology"
        ),
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="failover retry budget per request under a fault schedule (default: 3)",
    )
    serve.add_argument(
        "--elasticity",
        default=None,
        metavar="PATH",
        help=(
            "elasticity schedule: a JSON file of timed NodeJoin/NodeDrain "
            "events applied to the deployed topology"
        ),
    )
    serve.add_argument(
        "--autoscale",
        default=None,
        metavar="POLICY",
        help=(
            "autoscale the edge replica group with the named policy "
            "(target-util, queue-threshold) at its default thresholds"
        ),
    )
    serve.add_argument(
        "--balancer",
        choices=("rr", "jsq", "p2c"),
        default=None,
        help=(
            "replica-group load balancer: rr (round-robin), jsq (join-"
            "shortest-queue), p2c (power-of-two-choices); implied rr when "
            "--elasticity or --autoscale is given"
        ),
    )
    serve.add_argument(
        "--scheduler",
        choices=("fifo", "batch", "edf"),
        default="fifo",
        help=(
            "dispatch policy: fifo (default, arrival order), batch (dynamic "
            "micro-batching of same-layer work), edf (earliest-deadline-first "
            "over SLOs with admission control)"
        ),
    )
    serve.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        metavar="N",
        help=(
            "per-request latency SLO in milliseconds; enables goodput/"
            "attainment reporting and, with --scheduler edf, admission control"
        ),
    )
    serve.add_argument(
        "--memory-budget",
        type=float,
        default=None,
        metavar="GB",
        help=(
            "per-node weight-cache budget in GiB for device/edge tiers "
            "(the cloud keeps its hardware capacity — it is the artifact "
            "store); non-resident models pay a compressed cold start"
        ),
    )
    serve.add_argument(
        "--codec",
        choices=("none", "symmetric", "zxc"),
        default=None,
        help=(
            "weight-compression codec for cold-start transfers; zxc is "
            "write-once/read-many asymmetric (slow compress, fast decompress)"
        ),
    )
    serve.add_argument(
        "--eviction",
        choices=("lru", "priority"),
        default=None,
        help="weight-cache eviction policy (lru, or priority = fewest hits first)",
    )
    serve.add_argument(
        "--calibrate",
        action="store_true",
        help=(
            "learn corrected per-(node, layer) latencies and link throughput "
            "online from observed simulator timings (feeds adaptation and "
            "EDF admission); reports calibration/adaptation counters"
        ),
    )
    serve.add_argument(
        "--forecast-horizon",
        type=float,
        default=None,
        metavar="S",
        help=(
            "bandwidth-forecast look-ahead in seconds for proactive "
            "repartitioning under a drifting trace (implies --calibrate; "
            "0 keeps adaptation purely reactive)"
        ),
    )
    serve.add_argument(
        "--economics",
        action="store_true",
        help=(
            "meter energy (compute/radio/idle joules) and node-hour dollar "
            "cost from the run's timelines; adds the economics summary line"
        ),
    )
    serve.add_argument(
        "--weights",
        default=None,
        metavar="W_LAT,W_J,W_USD",
        help=(
            "objective weights for planning, as three comma-separated "
            "exchange rates (latency s, energy J, cost $); default plans "
            "pure-latency exactly as before"
        ),
    )

    scenario = subparsers.add_parser("scenario", help="regenerate a named paper artefact")
    scenario.add_argument("name", choices=SCENARIO_NAMES, help="scenario to run")

    return parser


def _add_system_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        default="vgg16",
        help=(
            "model name (see repro.models.zoo); serve accepts a comma-"
            "separated list for a mixed-model stream"
        ),
    )
    parser.add_argument(
        "--network",
        default="wifi",
        choices=("wifi", "4g", "5g", "optical"),
        help="network condition (Table III)",
    )
    parser.add_argument("--edge-nodes", type=int, default=4, help="number of edge nodes")
    parser.add_argument(
        "--topology",
        default=None,
        metavar="PRESET|PATH",
        help=(
            "deployment topology: a preset (three_tier, multi_device, hetero_edge, "
            "device_gateway) or a path to a topology JSON file; overrides --edge-nodes"
        ),
    )
    parser.add_argument(
        "--method",
        default=None,
        metavar="NAME",
        help=(
            "partitioning method from the strategy registry "
            "(hpa_vsm, hpa, neurosurgeon, dads, device_only, edge_only, cloud_only; "
            "default: the configured D3 method)"
        ),
    )


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def _parse_weights(raw: Optional[str]):
    """``"1,0.1,2000"`` -> an (w_lat, w_energy, w_cost) tuple (``None`` passes)."""
    if raw is None:
        return None
    parts = [piece.strip() for piece in raw.split(",")]
    if len(parts) != 3:
        raise ValueError("--weights needs exactly three comma-separated numbers")
    try:
        return tuple(float(piece) for piece in parts)
    except ValueError as error:
        raise ValueError(f"--weights could not be parsed: {raw!r}") from error


def _build_system(args, enable_vsm: bool = True):
    from repro.core.d3 import D3Config, D3System

    return D3System(
        D3Config(
            topology=getattr(args, "topology", None),
            network=args.network,
            num_edge_nodes=args.edge_nodes,
            enable_vsm=enable_vsm,
            use_regression=False,
            profiler_noise_std=0.0,
            objective_weights=_parse_weights(getattr(args, "weights", None)),
        )
    )


def _command_run(args) -> int:
    from repro.models.zoo import build_model

    system = _build_system(args, enable_vsm=not args.no_vsm)
    result = system.run(build_model(args.model), method=args.method)
    print(f"method: {result.method}")
    print(result.placement.describe())
    print(result.report.summary())
    return 0


def _command_serve(args) -> int:
    from repro.runtime.workload import Workload

    if args.rate <= 0:
        raise ValueError("rate must be positive")
    if args.slo_ms is not None and args.slo_ms <= 0:
        raise ValueError("--slo-ms must be positive")
    system = _build_system(args)
    # On multi-device topologies the stream originates round-robin from every
    # device of the fleet; single-device deployments keep the primary device.
    devices = system.cluster.devices
    sources = [node.name for node in devices] if len(devices) > 1 else None
    models = [name.strip() for name in args.model.split(",") if name.strip()]
    if not models:
        raise ValueError("--model needs at least one model name")
    # A mixed-model stream superposes one sub-stream per model: the request
    # count is split evenly (remainder to the first models) and each model
    # keeps the full rate so the merged stream's intensity matches a
    # single-model run of --requests at --rate.
    per_model = args.requests // len(models)
    remainder = args.requests % len(models)
    streams = []
    for position, model in enumerate(models):
        count = per_model + (1 if position < remainder else 0)
        if count <= 0:
            continue
        if args.arrival == "constant":
            streams.append(
                Workload.constant_rate(
                    model,
                    num_requests=count,
                    interval_s=len(models) / args.rate,
                    start_s=position * (1.0 / args.rate),
                    sources=sources,
                    slo_ms=args.slo_ms,
                )
            )
        else:
            streams.append(
                Workload.poisson(
                    model,
                    num_requests=count,
                    rate_rps=args.rate / len(models),
                    seed=args.seed + position,
                    sources=sources,
                    slo_ms=args.slo_ms,
                )
            )
    workload = streams[0] if len(streams) == 1 else Workload.merge(*streams)
    contention = "none" if args.uncontended_links else "fifo"
    calibration = None
    if args.calibrate or args.forecast_horizon is not None:
        from repro.runtime.calibration import CalibrationConfig

        if args.forecast_horizon is not None and args.forecast_horizon < 0:
            raise ValueError("--forecast-horizon cannot be negative")
        calibration = (
            CalibrationConfig(horizon_s=args.forecast_horizon)
            if args.forecast_horizon is not None
            else CalibrationConfig()
        )
    report = system.serve(
        workload,
        link_contention=contention,
        method=args.method,
        faults=args.faults,
        max_retries=args.max_retries,
        scheduler=args.scheduler,
        elasticity=args.elasticity,
        autoscaler=args.autoscale,
        balancer=args.balancer,
        memory=args.memory_budget,
        codec=args.codec,
        eviction=args.eviction,
        calibration=calibration,
        economics=args.economics or args.weights is not None,
    )
    print(report.summary())
    return 0


def _command_scenario(args) -> int:
    run_fn, format_fn = _scenario_registry()[args.name]
    print(format_fn(run_fn()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handlers = {
        "run": _command_run,
        "serve": _command_serve,
        "scenario": _command_scenario,
    }
    try:
        return handlers[args.command](args)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
