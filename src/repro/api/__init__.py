"""repro.api — the unified estimation-session facade.

One import point for the whole pipeline:

* :class:`EstimationSession` (alias :class:`Session`) — fluent builder
  owning scheme construction, seed management, backend policy, and
  result objects;
* :class:`BackendPolicy` / :func:`set_default_backend` — one dispatch
  rule replacing the scattered ``backend=`` keywords;
* the plugin registries (:func:`register_estimator`,
  :func:`register_target`, :func:`register_query`,
  :func:`register_scheme`) that the library's own layers self-register
  into and user code extends with one call;
* the sketch-serving layer's entry points
  (:class:`~repro.serving.store.SketchStore`,
  :class:`~repro.serving.store.StoreConfig`,
  :func:`~repro.serving.store.merge_stores`,
  :class:`~repro.serving.events.Event`,
  :class:`~repro.serving.server.SketchServer`,
  :class:`~repro.serving.ingest.ParallelIngestor`,
  :class:`~repro.serving.retention.RetentionPolicy`), re-exported here
  so serving a store and estimating offline share one import point.

Import-order note: the registry and backend modules are dependency-free
and imported eagerly, so lower layers (``repro.core``,
``repro.estimators``, ``repro.aggregates``) can self-register at import
time without cycles; the session and result classes — which import those
layers — load lazily on first attribute access (PEP 562).
"""

from .backend import (
    BACKEND_MODES,
    BackendPolicy,
    default_backend,
    set_default_backend,
)
from .registry import (
    ESTIMATORS,
    QUERIES,
    SCHEMES,
    TARGETS,
    Registry,
    register_estimator,
    register_query,
    register_scheme,
    register_target,
)

__all__ = [
    "BACKEND_MODES",
    "BackendPolicy",
    "default_backend",
    "set_default_backend",
    "ESTIMATORS",
    "QUERIES",
    "SCHEMES",
    "TARGETS",
    "Registry",
    "register_estimator",
    "register_query",
    "register_scheme",
    "register_target",
    "EstimateResult",
    "EstimationSession",
    "Session",
    "ExperimentSpec",
    "ExperimentResult",
    "ExperimentRunner",
    "WorkPlan",
    "ReplicationPlan",
    "SweepPlan",
    "WorkUnit",
    "BatchResult",
    "EstimationPlan",
    "EXPERIMENT_SPECS",
    "register_experiment",
    "RecordStore",
    "StoredRun",
    "read_run",
    "SketchStore",
    "StoreConfig",
    "Event",
    "merge_stores",
    "ParallelIngestor",
    "QueryBatcher",
    "RetentionPolicy",
    "ServingClient",
    "SketchServer",
]

#: Lazily-loaded attributes: they import the estimation layers, which in
#: turn import this package's registries during their own initialisation.
#: Values are submodules of this package, or absolute module paths (with
#: a dot) for re-exports from sibling packages such as the serving layer.
_LAZY = {
    "EstimationSession": "session",
    "Session": "session",
    "EstimateResult": "results",
    "ExperimentSpec": "experiments",
    "ExperimentResult": "experiments",
    "ExperimentRunner": "experiments",
    "WorkPlan": "experiments",
    "ReplicationPlan": "experiments",
    "SweepPlan": "experiments",
    "WorkUnit": "experiments",
    "BatchResult": "experiments",
    "EstimationPlan": "experiments",
    "EXPERIMENT_SPECS": "experiments",
    "register_experiment": "experiments",
    "RecordStore": "records",
    "StoredRun": "records",
    "read_run": "records",
    "SketchStore": "repro.serving.store",
    "StoreConfig": "repro.serving.store",
    "merge_stores": "repro.serving.store",
    "Event": "repro.serving.events",
    "ParallelIngestor": "repro.serving.ingest",
    "QueryBatcher": "repro.serving.batcher",
    "RetentionPolicy": "repro.serving.retention",
    "ServingClient": "repro.serving.server",
    "SketchServer": "repro.serving.server",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if "." in module_name:
        module = import_module(module_name)
    else:
        module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
