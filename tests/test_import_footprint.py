"""Serving with D3's own methods loads neither networkx nor the baselines.

networkx is needed only by DADS's min cut and ``DnnGraph.to_networkx()``;
the baselines only when a baseline method is asked for.  A subprocess in
which ``import networkx`` fails serves a default stream and one with every
fleet opt-in switched on, and neither module may be in ``sys.modules``
afterwards.  In this process the registry still resolves every built-in
method, in its documented order, and a registered double still shadows a
built-in name.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import strategy as strategy_module
from repro.core.strategy import (
    ClusterSpec,
    HpaStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)

SRC = str(Path(repro.__file__).resolve().parent.parent)

BUILTIN_ORDER = [
    "hpa",
    "hpa_vsm",
    "device_only",
    "edge_only",
    "cloud_only",
    "neurosurgeon",
    "dads",
]

BLOCK_NETWORKX = """
import sys


class BlockNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ImportError(f"{name} is blocked in this process")
        return None


sys.meta_path.insert(0, BlockNetworkx())
"""

DEFAULT_SERVE = """
from repro.core.d3 import D3Config, D3System
from repro.runtime.workload import Workload

system = D3System(D3Config(network="wifi", num_edge_nodes=4))
report = system.serve(Workload.poisson("alexnet", 30, 8.8, seed=1))
assert report.num_completed == 30, report.summary()
"""

FLEET_SERVE = """
from repro.core.d3 import D3Config, D3System
from repro.network.faults import FaultSchedule
from repro.runtime.artifacts import MemoryModel
from repro.runtime.workload import Workload

system = D3System(
    D3Config(
        topology="multi_device",
        network="wifi",
        num_edge_nodes=4,
        use_regression=False,
        profiler_noise_std=0.0,
    )
)
devices = ("device-0", "device-1", "device-2")
stream = Workload.merge(
    *(
        Workload.poisson(
            model, 20, 4.0, seed=seed, sources=devices, slo_ms=600.0, priorities=(0, 1)
        )
        for seed, model in enumerate(("alexnet", "resnet18", "vgg16"))
    )
)
report = system.serve(
    stream,
    scheduler="edf",
    faults=FaultSchedule.chaos(system.topology, seed=3, horizon_s=15.0, tier_mtbf_s={"edge": 5.0}),
    max_retries=2,
    memory=MemoryModel(1.0, "zxc", warm=True),
    calibration=True,
    economics=True,
    stream_stats=True,
)
assert report.num_requests == 60, report.summary()
assert report.num_completed > 0, report.summary()
"""

CHECK_MODULES = """
loaded = sorted(
    name for name in ("networkx", "repro.baselines", "repro.baselines.dads") if name in sys.modules
)
assert not loaded, loaded
print("footprint ok")
"""


def _run(*sources: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", "\n".join(sources)], env=env, capture_output=True, text=True
    )


def _assert_ok(result: subprocess.CompletedProcess) -> None:
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("footprint ok"), result.stdout


class TestServingWithoutNetworkx:
    def test_block_really_blocks(self):
        result = _run(BLOCK_NETWORKX, "import networkx")
        assert result.returncode != 0
        assert "networkx is blocked" in result.stderr

    def test_default_serve(self):
        _assert_ok(_run(BLOCK_NETWORKX, DEFAULT_SERVE, CHECK_MODULES))

    def test_fleet_stream_opt_ins(self):
        _assert_ok(_run(BLOCK_NETWORKX, FLEET_SERVE, CHECK_MODULES))

    def test_other_baselines_serve(self):
        result = _run(
            BLOCK_NETWORKX,
            DEFAULT_SERVE.replace("seed=1))", "seed=1), method='neurosurgeon')"),
            "from repro.core.strategy import available_strategies",
            f"assert available_strategies() == {BUILTIN_ORDER!r}",
            "assert 'networkx' not in sys.modules",
            "assert 'repro.baselines.deepthings' not in sys.modules",
            "assert 'repro.tensors' not in sys.modules",
            "print('footprint ok')",
        )
        _assert_ok(result)

    def test_dads_is_the_one_method_that_needs_networkx(self):
        result = _run(
            BLOCK_NETWORKX,
            DEFAULT_SERVE.replace("seed=1))", "seed=1), method='dads')"),
        )
        assert result.returncode != 0
        assert "networkx is blocked" in result.stderr


class TestRegistry:
    def test_builtin_order(self):
        assert available_strategies()[: len(BUILTIN_ORDER)] == BUILTIN_ORDER

    def test_builtin_order_in_a_fresh_process(self):
        result = _run(
            "from repro.core.strategy import available_strategies, get_strategy",
            "get_strategy('hpa_vsm')",
            "print(','.join(available_strategies()))",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == ",".join(BUILTIN_ORDER)

    def test_dads_still_plans(self, alexnet, alexnet_profile, wifi):
        pytest.importorskip("networkx")
        plan = get_strategy("dads").plan(alexnet, alexnet_profile, wifi, ClusterSpec(4))
        assert plan.strategy == "dads"
        assert plan.placement.is_complete()
        assert "cut_value_s" in plan.extras

    def test_double_shadows_a_builtin_name(self):
        class Double(HpaStrategy):
            name = "hpa"

        original = strategy_module._REGISTRY["hpa"]
        register_strategy(Double)
        try:
            assert isinstance(get_strategy("hpa"), Double)
            assert available_strategies()[: len(BUILTIN_ORDER)] == BUILTIN_ORDER
        finally:
            register_strategy(original, name="hpa")
        assert type(get_strategy("hpa")) is HpaStrategy

    def test_double_survives_the_lazy_baseline_import(self):
        # Registered before the baselines load: the import that
        # available_strategies() triggers must not overwrite it.
        result = _run(
            "import sys",
            "from repro.core.strategy import HpaStrategy, available_strategies,"
            " get_strategy, register_strategy",
            "class Double(HpaStrategy):\n    name = 'dads'",
            "register_strategy(Double)",
            "assert 'repro.baselines' not in sys.modules",
            "assert isinstance(get_strategy('dads'), Double)",
            "names = available_strategies()",
            "assert 'repro.baselines' in sys.modules",
            "assert isinstance(get_strategy('dads'), Double)",
            "assert get_strategy('neurosurgeon').name == 'neurosurgeon'",
            "print('footprint ok')",
        )
        _assert_ok(result)


def test_unknown_name_still_lists_every_builtin():
    result = _run(
        "from repro.core.strategy import get_strategy",
        "get_strategy('definitely_not_a_method')",
    )
    assert result.returncode != 0
    assert "available: " + ", ".join(BUILTIN_ORDER) in result.stderr
