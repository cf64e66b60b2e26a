"""The layers the traced run times, where each is wrapped, and what each predicts.

``launcher.py`` wraps every layer that has a ``target`` before ``repro
serve`` starts; ``run.py`` turns the recorded spans into the per-layer
table and prints each layer's prediction beside its numbers.  A target is
the name a caller looks the layer up by: ``"Class.method"`` is patched on
the class, a bare function name on the module that calls it, and
``"REGISTRY.build"`` on the class of every registered strategy.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

SERVE_WORKLOADS = ("serve-warm", "serve-mixed")
FLEET_WORKLOADS = ("fleet-plain", "fleet-faulted", "fleet-tenant")
WORKLOADS = SERVE_WORKLOADS + FLEET_WORKLOADS


class Layer(NamedTuple):
    name: str
    #: Module whose attribute is wrapped; None for a layer measured by the client.
    module: Optional[str]
    target: Optional[str]
    #: End-to-end metrics (as named in BENCHMARK.json) a faster layer should move.
    moves: Tuple[str, ...]
    #: Workload on which that should show.
    on: Tuple[str, ...]
    #: Workloads on which the end-to-end metrics should not change.
    unchanged_on: Tuple[str, ...] = ()
    #: Whether every workload calls the layer.  Only such layers report
    #: ``self_ms_per_req`` in the JSON: elsewhere it would be a time that
    #: reads 0.0 on every run (their ``share`` and the printed table carry it).
    everywhere: bool = False


LAYERS: Tuple[Layer, ...] = (
    Layer("serve.transport", None, None, ("p50_ms",), ("serve-warm",), everywhere=True),
    Layer(
        "serve.dispatch", "repro.serve.service", "PlannerService.dispatch",
        ("p90_ms",), ("serve-mixed",), FLEET_WORKLOADS, everywhere=True,
    ),
    Layer(
        "store.get", "repro.store.store", "ExperimentStore.get",
        ("p50_ms", "req_per_s"), ("serve-warm",), FLEET_WORKLOADS, everywhere=True,
    ),
    Layer(
        "store.disk_summary", "repro.store.store", "ExperimentStore.disk_summary",
        ("p50_ms",), ("serve-warm",), FLEET_WORKLOADS, everywhere=True,
    ),
    Layer(
        "store.put", "repro.store.store", "ExperimentStore.put",
        ("p50_ms",), ("serve-mixed",), ("serve-warm",) + FLEET_WORKLOADS,
    ),
    Layer(
        "session.run", "repro.core.session", "Session.run",
        ("p50_ms",), ("serve-mixed",), everywhere=True,
    ),
    Layer(
        "session.plan", "repro.parallel.registry", "REGISTRY.build",
        ("p50_ms",), ("serve-mixed",), ("serve-warm",) + FLEET_WORKLOADS,
    ),
    Layer(
        "session.execute", "repro.parallel.executor", "ScheduleExecutor.execute",
        ("p50_ms",), ("serve-mixed",), ("serve-warm",) + FLEET_WORKLOADS,
    ),
    Layer(
        "engine.run", "repro.sim.engine", "SimulationEngine.run",
        ("p50_ms",), ("serve-mixed",), ("serve-warm",) + FLEET_WORKLOADS,
    ),
    Layer(
        "engine.breakdown", "repro.parallel.executor", "compute_breakdown",
        ("p50_ms",), ("serve-mixed",), ("serve-warm",) + FLEET_WORKLOADS,
    ),
    Layer(
        "cluster.run", "repro.cluster.simulator", "ClusterSimulator.run",
        ("p50_ms", "req_per_s"), FLEET_WORKLOADS, SERVE_WORKLOADS,
    ),
)

#: Ratios measured where the work happens, reported beside the layer times.
#: ``loadgen.cpu_share`` moves nothing: it guards that the client is not the
#: bottleneck on any workload.
RATIOS = ("store.hit_ratio", "session.sim_ratio", "engine.tasks_per_cell", "loadgen.cpu_share")


def unit(name: str) -> str:
    """The unit of a per-layer metric."""
    if name.endswith("_ms_per_req"):
        return "ms"
    if name.endswith(("calls_per_req", "tasks_per_cell")):
        return "count"
    return "ratio"


def per_layer_metric_names() -> Tuple[str, ...]:
    """Every ``--trace 1`` metric name, in BENCHMARK.json order."""
    names = []
    for layer in LAYERS:
        kinds = ("calls_per_req", "self_ms_per_req", "share") if layer.everywhere else (
            "calls_per_req", "share")
        names += [f"{layer.name}.{kind}" for kind in kinds]
    return tuple(names) + RATIOS
