"""Reference (pre-optimisation) forms of the serving engine's admission reads.

The differential tests in ``test_engine_fast_paths.py`` hold the engine's
incremental bookkeeping to these straightforward versions:

* the committed compute backlog as one scan of every live request's
  unfinished units, per admission (the engine keeps a per-node table updated
  as units start, complete and die);
* the wires a request's cross-unit edges traverse, routed afresh against the
  live route state on every read (the engine memoizes them on the compiled
  plan, keyed by a route revision).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.network.topology import RouteUnavailableError


def reference_committed_node_s(simulator, touched: Iterable[str], exclude) -> Dict[str, float]:
    """Unfinished solo compute seconds bound to each node in ``touched``
    across every live request (the admitting request ``exclude`` left out),
    by full scan of the live set."""
    committed = {name: 0.0 for name in touched}
    for state in simulator._live:
        if state is exclude or state.terminal:
            continue
        for unit in state.unit_list:
            if unit.completed:
                continue
            for name, duration in unit.compiled.node_costs:
                if name in committed:
                    committed[name] += duration
    return committed


def reference_touched_links(simulator, state) -> List:
    """The wires the request's cross-unit edges traverse, routed now."""
    links = {}
    unit_list = state.unit_list
    for unit in unit_list:
        for _, _, dst_pos, local in unit.out_edges:
            if local:
                continue
            src, dst = unit.home_node, unit_list[dst_pos].home_node
            if src is None or dst is None:
                continue
            try:
                route = simulator.cluster.route(src.name, dst.name)
            except RouteUnavailableError:
                continue
            for link in route:
                links[id(link)] = link
    return list(links.values())
