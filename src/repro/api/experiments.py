"""Declarative experiment specs and the cross-experiment scheduler.

The paper's empirical claims (E1–E11) used to live in ad-hoc scripts that
hand-rolled replication loops and returned pre-formatted strings.  This
module turns each experiment into *data* and its execution into
*scheduling*:

* :class:`ExperimentSpec` — a declarative description: which task
  computes the records, the parameter sets per scale (``smoke`` /
  ``quick`` / ``full``), an optional :class:`WorkPlan` describing how the
  computation shards (a Monte-Carlo :class:`ReplicationPlan` or a
  parameter-grid :class:`SweepPlan`), and an optional
  :class:`EstimationPlan` naming the scheme/target/estimators through the
  PR 2 registries;
* :class:`ExperimentRunner` — executes *batches* of specs: every
  experiment's ``min(jobs, units)`` equal shards are flattened into
  **one global queue**, ordered largest-unit-count first, and drained by
  a single ``ProcessPoolExecutor`` so ``--jobs N`` saturates ``N``
  workers across experiment boundaries instead of draining one
  experiment at a time.  Completed shard records stream to an
  append-only :class:`~repro.api.records.RecordStore`, which doubles as
  the memo of completed runs (keyed by a content hash of the spec);
* :class:`ExperimentResult` — structured records plus metadata; rendering
  lives in :mod:`repro.experiments.report`, not here.

Work plans
----------
A :class:`WorkPlan` splits an experiment into *units* — the smallest
independently computable pieces — which the scheduler groups into shards
``[lo, hi)``:

* :class:`ReplicationPlan` — unit ``i`` is Monte-Carlo replication ``i``;
  the task runs as ``task(params, children, lo)`` where ``children`` are
  the replications' :class:`~numpy.random.SeedSequence` objects;
* :class:`SweepPlan` — unit ``i`` is point ``i`` of a deterministic
  parameter grid enumerated by the plan's ``points`` hook; the task runs
  as ``task(params, points, lo)`` over its slice of the grid;
* a spec with neither plan is a single opaque unit (the whole task).

Determinism
-----------
Replicated experiments draw their randomness from
``numpy.random.SeedSequence(plan.seed).spawn(units)`` — one child
sequence *per unit*, independent of how units are grouped into shards —
and sweep grids are pure functions of the parameters.  Shard outputs are
merged in unit order no matter when each shard finished, so the records
are bit-identical for any ``--jobs`` value, for a replay from the record
store, and for a continued interrupted run.

The record store is the memo
----------------------------
With a records directory configured, every run streams its per-unit
records to ``<records_dir>/<key>-<digest>.jsonl`` as shards complete and
finalizes the file atomically (see :mod:`repro.api.records` for the line
protocol).  ``digest`` is the SHA-256 of the canonical JSON of the run's
identity: the digest format version, the spec's key and
task/finalize/points hooks (including their *source text*, so editing a
task invalidates its files), the fully merged parameters, the work plan,
the estimation plan, the scale name and the *effective* backend mode
(whether it came from the runner's ``backend=`` argument,
``set_default_backend`` or the environment).

A later run with the same digest replays the finalized file instead of
computing; a run whose digest changed writes a new file, and a deleted
file is simply a miss.  An interrupted or failed run leaves a
``.jsonl.partial`` file; the next run of the same digest continues it:
it keeps the recorded shard layout, skips every sealed shard, and
re-runs only the rest — reproducing the exact records of an
uninterrupted run.  Changes in library code the hooks call are *not*
hashed — bump ``DIGEST_VERSION`` (or delete the directory) after such
changes.  No records directory means nothing is stored or replayed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.seeds import spawn_children
from .backend import BackendPolicy, BackendSpec, default_backend, set_default_backend
from .records import ENV_RECORDS_DIR, RecordStore, RecordWriter, STORE_VERSION
from .registry import Registry

__all__ = [
    "SCALES",
    "WorkPlan",
    "ReplicationPlan",
    "SweepPlan",
    "EstimationPlan",
    "ExperimentSpec",
    "ExperimentResult",
    "ExperimentRunner",
    "WorkUnit",
    "BatchResult",
    "EXPERIMENT_SPECS",
    "register_experiment",
    "spec_digest",
]

#: Recognised parameter scales, smallest first.
SCALES = ("smoke", "quick", "full")

#: Bumping this invalidates every stored run (schema changes).
#: Version 2: work-plan hierarchy (sweep plans).
DIGEST_VERSION = 2


class WorkPlan:
    """How an experiment's computation splits into shardable units.

    Subclasses define the unit semantics (`ReplicationPlan`: one unit per
    Monte-Carlo replication; `SweepPlan`: one unit per grid point) and
    the matching task signature.  A spec with no plan is one opaque unit.
    ``kind`` discriminates plans in digests and record-store manifests.
    """

    #: Discriminator used in digests and store manifests.
    kind: ClassVar[str] = "task"

    def describe(self) -> Dict[str, Any]:
        """JSON-able description of the plan (feeds :func:`spec_digest`)."""
        return {"kind": self.kind}


@dataclass(frozen=True)
class ReplicationPlan(WorkPlan):
    """Monte-Carlo replication: how many independent runs, from which seed.

    ``replications`` is the default count; a spec's per-scale parameters
    may override it with a ``"replications"`` entry.  ``seed`` feeds the
    root :class:`numpy.random.SeedSequence` from which every
    replication's child sequence is spawned.  The spec's task runs per
    shard as ``task(params, children, start) -> records`` where
    ``children`` are the shard's child sequences and ``start`` the index
    of the first one.

    Raises
    ------
    ValueError
        If ``replications`` is less than 1.
    """

    kind: ClassVar[str] = "replication"

    seed: int = 0
    replications: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")

    def describe(self) -> Dict[str, Any]:
        """Seed and default count (the effective count is parameterised)."""
        return {
            "kind": self.kind,
            "seed": self.seed,
            "replications": self.replications,
        }


@dataclass(frozen=True)
class SweepPlan(WorkPlan):
    """A deterministic parameter grid: one unit per sweep point.

    ``points`` names a hook ``"module.path:function"`` with signature
    ``points(params) -> Sequence[point]`` enumerating the grid as a pure
    function of the merged parameters (no hidden state — the scheduler
    and every continued run must re-derive the identical list).  The spec's
    task runs per shard as ``task(params, points, start) -> records``
    where ``points`` is the shard's slice ``grid[lo:hi]`` and ``start``
    is ``lo``.

    Raises
    ------
    ValueError
        If ``points`` is not a ``module:function`` hook path.
    """

    kind: ClassVar[str] = "sweep"

    points: str = ""

    def __post_init__(self) -> None:
        if ":" not in self.points:
            raise ValueError(
                "SweepPlan.points must name a 'package.module:function' hook"
            )

    def describe(self) -> Dict[str, Any]:
        """The points hook path (its source is hashed separately)."""
        return {"kind": self.kind, "points": self.points}


@dataclass(frozen=True)
class EstimationPlan:
    """Registry-resolved estimation pipeline used by a spec's task.

    Names refer to the :mod:`repro.api.registry` registries, so the same
    keys work in :class:`~repro.api.session.EstimationSession`; the task
    receives the plan through its parameters (key ``"estimation"``) and
    builds sessions from it instead of importing estimator classes.
    ``estimators`` maps report labels (``"L*"``) to estimator registry
    keys (``"lstar_symmetric"``).
    """

    scheme: str = "pps"
    target: str = "one_sided_range"
    estimators: Mapping[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """The plan as a plain JSON-able mapping."""
        return {
            "scheme": self.scheme,
            "target": self.target,
            "estimators": dict(self.estimators),
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment of the paper, as data.

    Attributes
    ----------
    key:
        Canonical id (``"E9"``).
    title:
        Human-readable title used by the reports.
    task:
        ``"module.path:function"`` computing the records.  Plain specs
        use ``task(params) -> (records, metadata)``; replicated specs use
        ``task(params, children, start) -> records`` where ``children``
        are the replication :class:`~numpy.random.SeedSequence` objects
        of the shard; sweep specs use ``task(params, points, start) ->
        records`` over the shard's grid slice.
    finalize:
        For sharded specs: ``"module.path:function"`` reducing the merged
        per-unit records, ``finalize(params, records) -> (records,
        metadata)``.
    params:
        Base parameters common to every scale.
    scales:
        Scale name -> parameter overrides (merged over ``params``).
    replication:
        Present exactly when the task is sharded Monte Carlo.
    sweep:
        Present exactly when the task shards over a deterministic grid.
    estimation:
        Optional registry-resolved pipeline description, passed to the
        task as ``params["estimation"]``.
    aliases:
        Additional registry names (``"lp_difference"`` for ``"E9"``).

    Raises
    ------
    ValueError
        If both ``replication`` and ``sweep`` are set (a spec has at most
        one work plan).
    """

    key: str
    title: str
    task: str
    finalize: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    scales: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    replication: Optional[ReplicationPlan] = None
    sweep: Optional[SweepPlan] = None
    estimation: Optional[EstimationPlan] = None
    aliases: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.replication is not None and self.sweep is not None:
            raise ValueError(
                f"spec {self.key!r} declares both a replication and a sweep "
                "plan; an experiment shards one way or the other"
            )

    @property
    def plan(self) -> Optional[WorkPlan]:
        """The spec's work plan (replication or sweep), or ``None``."""
        return self.replication if self.replication is not None else self.sweep

    def merged_params(self, scale: str = "quick") -> Dict[str, Any]:
        """Base params overlaid with the scale's overrides (and the
        estimation plan, when one is declared).

        Raises
        ------
        ValueError
            If ``scale`` is not one of :data:`SCALES`.
        """
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
        params = dict(self.params)
        params.update(self.scales.get(scale, {}))
        if self.estimation is not None:
            params.setdefault("estimation", self.estimation.as_dict())
        return params

    def replications_for(self, params: Mapping[str, Any]) -> int:
        """Effective replication count under ``params`` (0 when not
        replicated)."""
        if self.replication is None:
            return 0
        return int(params.get("replications", self.replication.replications))


@dataclass(frozen=True)
class ExperimentResult:
    """Structured output of one experiment run.

    ``records`` is a tuple of flat JSON-serialisable mappings (one table
    row each); ``metadata`` carries experiment-level extras — check
    outcomes, winner summaries, ``notes`` (plain lines for the text
    report), and the runner's provenance block.
    """

    key: str
    title: str
    scale: str
    records: Tuple[Mapping[str, Any], ...]
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The result as a plain JSON-able mapping."""
        return {
            "key": self.key,
            "title": self.title,
            "scale": self.scale,
            "records": [dict(r) for r in self.records],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (record store)."""
        return cls(
            key=payload["key"],
            title=payload["title"],
            scale=payload["scale"],
            records=tuple(dict(r) for r in payload["records"]),
            metadata=dict(payload.get("metadata", {})),
        )

    def with_metadata(self, **extra: Any) -> "ExperimentResult":
        """A copy with ``extra`` merged over the metadata."""
        merged = dict(self.metadata)
        merged.update(extra)
        return replace(self, metadata=merged)


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable shard of one experiment in a batch.

    Attributes
    ----------
    key:
        The owning experiment's canonical key.
    shard:
        Index into the experiment's shard layout.
    lo, hi:
        The unit range ``[lo, hi)`` the shard covers.
    kind:
        The work-plan kind (``"replication"`` / ``"sweep"`` / ``"task"``).
    weight:
        Unit count of the shard; the global queue drains by descending
        weight.
    """

    key: str
    shard: int
    lo: int
    hi: int
    kind: str
    weight: int


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one :meth:`ExperimentRunner.run_batch` call.

    Attributes
    ----------
    results:
        One entry per requested spec, in request order; ``None`` where
        that experiment failed.
    failures:
        ``(label, exception)`` pairs for every failed entry.
    schedule:
        The global largest-work-first shard order the batch executed
        (record-store replays contribute no units).
    """

    results: Tuple[Optional[ExperimentResult], ...]
    failures: Tuple[Tuple[str, Exception], ...]
    schedule: Tuple[WorkUnit, ...]

    @property
    def ok(self) -> bool:
        """Whether every requested experiment produced a result."""
        return not self.failures


#: The experiment-spec registry; the canonical specs self-register from
#: :mod:`repro.experiments.specs` on first lookup.
EXPERIMENT_SPECS = Registry("experiment")


def register_experiment(spec: ExperimentSpec, *, overwrite: bool = False) -> ExperimentSpec:
    """Register ``spec`` under its key and every alias.

    Returns
    -------
    ExperimentSpec
        The spec itself, for decorator-style chaining.

    Raises
    ------
    ValueError
        If a name is already registered and ``overwrite`` is false.
    """
    EXPERIMENT_SPECS.register(spec.key, spec, overwrite=overwrite)
    for alias in spec.aliases:
        EXPERIMENT_SPECS.register(alias, spec, overwrite=overwrite)
    return spec


def _canonical(value: Any) -> Any:
    """Reduce a parameter structure to canonical JSON-able form."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _hook_source(path: Optional[str]) -> Optional[str]:
    """Source text of a task hook, for the run digest.

    Hashing the hook's source (not just its dotted path) means editing a
    task function invalidates its stored runs automatically.  Changes in
    code the hook *calls* are not captured — that is what the manual
    ``DIGEST_VERSION`` bump (or deleting the records directory) is for.
    """
    if path is None:
        return None
    import inspect

    try:
        return inspect.getsource(_resolve_hook(path))
    except (OSError, TypeError):  # pragma: no cover - builtins/C hooks
        return None


def spec_digest(
    spec: ExperimentSpec,
    params: Mapping[str, Any],
    scale: str,
    backend: Optional[str] = None,
) -> str:
    """Content hash identifying a run in the record store.

    Covers everything in the spec that can change the records — the
    task/finalize/points hooks (by source text), the merged parameters,
    the work plan, the estimation plan, the scale and the backend mode —
    plus the digest format version; see the module docstring for the
    invalidation rule.

    Returns
    -------
    str
        A 16-hex-digit digest.
    """
    payload = {
        "version": DIGEST_VERSION,
        "key": spec.key,
        "task": spec.task,
        "task_source": _hook_source(spec.task),
        "finalize": spec.finalize,
        "finalize_source": _hook_source(spec.finalize),
        "scale": scale,
        "params": _canonical(params),
        "plan": _plan_payload(spec, params),
        "estimation": None if spec.estimation is None
        else _canonical(spec.estimation.as_dict()),
        "backend": backend,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _plan_payload(
    spec: ExperimentSpec, params: Mapping[str, Any]
) -> Optional[Dict[str, Any]]:
    """The work plan's digest payload: ``plan.describe()`` plus the
    parameter-effective replication count / the points hook's source."""
    plan = spec.plan
    if plan is None:
        return None
    payload = dict(plan.describe())
    if spec.replication is not None:
        payload["replications"] = spec.replications_for(params)
    if spec.sweep is not None:
        payload["points_source"] = _hook_source(spec.sweep.points)
    return payload


def _resolve_hook(path: str):
    """Import ``"module.path:function"`` (tasks must be module-level so
    shards can resolve them in worker processes).

    Raises
    ------
    ValueError
        If ``path`` does not contain a ``:`` separator.
    """
    from importlib import import_module

    module_name, _, func_name = path.partition(":")
    if not func_name:
        raise ValueError(
            f"task path {path!r} must look like 'package.module:function'"
        )
    return getattr(import_module(module_name), func_name)


@dataclass(frozen=True)
class _ShardJob:
    """Everything a worker needs to execute one shard (picklable)."""

    kind: str
    task: str
    params: Mapping[str, Any]
    lo: int
    hi: int
    seed: int = 0
    total: int = 0
    points: Optional[Tuple[Any, ...]] = None
    backend: str = "auto"


def _run_job(
    job: _ShardJob,
) -> Tuple[List[Mapping[str, Any]], Dict[str, Any]]:
    """Execute one shard in a worker process (or inline for ``jobs=1`` —
    same code path, so the two are bit-identical).

    ``job.backend`` is the parent's *effective* backend mode: installing
    it explicitly keeps workers on the parent's dispatch rule even under
    spawn-style start methods, where an in-process
    ``set_default_backend`` override would otherwise not be inherited.
    Replicated shards construct exactly their own range of
    replication children (:func:`repro.core.seeds.spawn_children` — child
    ``i`` depends only on the plan seed and ``i``, never on the shard
    boundaries), so a worker's seed setup is O(shard), not O(total).

    Returns
    -------
    (records, metadata)
        The shard's records and the task metadata (non-empty only for
        plain single-unit tasks that return a ``(records, metadata)``
        pair).
    """
    set_default_backend(job.backend)
    task = _resolve_hook(job.task)
    if job.kind == "replication":
        children = spawn_children(job.seed, job.lo, job.hi)
        return list(task(dict(job.params), children, job.lo)), {}
    if job.kind == "sweep":
        return list(task(dict(job.params), list(job.points or ()), job.lo)), {}
    return _normalise_task_output(task(dict(job.params)))


class _PreparedRun:
    """Mutable batch-execution state of one requested experiment."""

    def __init__(self, label: str, position: int) -> None:
        self.label = label
        self.position = position
        self.spec: Optional[ExperimentSpec] = None
        self.scale = "quick"
        self.params: Dict[str, Any] = {}
        self.digest = ""
        self.kind = "task"
        self.units = 1
        self.shards: List[Tuple[int, int]] = []
        self.points: Optional[List[Any]] = None
        self.records_by_shard: Dict[int, List[Mapping[str, Any]]] = {}
        self.task_metadata: Dict[str, Any] = {}
        self.resumed: List[int] = []
        self.writer: Optional[RecordWriter] = None
        self.duplicate_of: Optional["_PreparedRun"] = None
        self.result: Optional[ExperimentResult] = None
        self.error: Optional[Exception] = None
        self.finished_at: Optional[float] = None

    @property
    def pending(self) -> List[int]:
        """Shard indices still to execute."""
        return [
            i for i in range(len(self.shards))
            if i not in self.records_by_shard
        ]


class ExperimentRunner:
    """Schedules :class:`ExperimentSpec` batches with sharding and
    streamed, replayable records.

    Parameters
    ----------
    jobs:
        Worker processes.  Each experiment splits into ``min(jobs,
        units)`` equal shards.  ``1`` runs every shard inline (same code
        path, bit-identical records); larger values drain the *global*
        shard queue — shards of different experiments interleave freely.
    backend:
        Backend policy installed (process-wide, restored afterwards) for
        the duration of each batch; shards install it in their workers.
    records_dir:
        Directory for the streamed :class:`~repro.api.records.RecordStore`;
        ``None`` consults ``REPRO_EXPERIMENT_RECORDS`` and, when that is
        unset too, disables record streaming.  A finalized run of the
        same digest is replayed instead of computed, and a ``.partial``
        one is continued: it keeps its recorded shard layout and skips
        every sealed shard.

    Raises
    ------
    ValueError
        If ``jobs < 1``.
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: BackendSpec = None,
        records_dir: Union[None, str, os.PathLike] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self._jobs = int(jobs)
        if records_dir is None:
            records_dir = os.environ.get(ENV_RECORDS_DIR, "").strip() or None
        self._records = (
            None if records_dir is None else RecordStore(records_dir)
        )
        self._backend_mode = (
            None if backend is None else BackendPolicy.coerce(backend).mode
        )

    @property
    def jobs(self) -> int:
        """Worker-process count shards are scheduled across."""
        return self._jobs

    @property
    def records(self) -> Optional[RecordStore]:
        """The record store, or ``None`` when streaming is off."""
        return self._records

    # ------------------------------------------------------------------
    # Public execution API
    # ------------------------------------------------------------------
    def run(
        self,
        spec: Union[str, ExperimentSpec],
        scale: str = "quick",
    ) -> ExperimentResult:
        """Run one experiment (replayed from the record store when it holds
        the run) and return its result.

        Raises
        ------
        Exception
            Whatever the experiment raised (resolution errors included).
        """
        batch = self.run_batch([spec], scale=scale)
        if batch.failures:
            raise batch.failures[0][1]
        result = batch.results[0]
        assert result is not None
        return result

    def run_batch(
        self,
        specs: Optional[Sequence[Union[str, ExperimentSpec]]] = None,
        scale: str = "quick",
    ) -> BatchResult:
        """Run a batch of experiments as one global shard schedule.

        Every selected experiment's shards are flattened into a single
        queue ordered by descending unit count (ties broken by shard index then
        request position, which round-robins equal-size shards across
        experiments) and drained by one ``ProcessPoolExecutor``; completed
        shards stream to the record store the moment they finish.  A
        failing experiment never aborts the others — it is reported in
        :attr:`BatchResult.failures` and, when streaming, leaves a
        resumable ``.partial`` file.

        Returns
        -------
        BatchResult
            Results in request order, failures, and the executed schedule.
        """
        chosen = list(specs) if specs is not None else canonical_keys()
        policy = self._effective_policy()
        started = time.perf_counter()
        previous = set_default_backend(policy)
        try:
            runs: List[_PreparedRun] = []
            seen: Dict[Tuple[str, str], _PreparedRun] = {}
            for position, item in enumerate(chosen):
                runs.append(self._prepare(item, scale, policy, position, seen))
            active = [
                r for r in runs
                if r.error is None and r.result is None and r.duplicate_of is None
            ]
            schedule = self._schedule(active)
            self._execute(schedule, policy.mode)
            for run in active:
                if run.error is None:
                    try:
                        self._collect(run, policy, started)
                    except Exception as exc:  # noqa: BLE001 - isolate runs
                        run.error = exc
                if run.error is not None and run.writer is not None:
                    run.writer.abandon()
            for run in runs:
                if run.duplicate_of is not None:
                    run.result = run.duplicate_of.result
                    run.error = run.duplicate_of.error
        finally:
            set_default_backend(previous)
        return BatchResult(
            results=tuple(r.result for r in runs),
            failures=tuple(
                (r.label, r.error) for r in runs if r.error is not None
            ),
            schedule=tuple(unit for unit, _ in schedule),
        )

    # ------------------------------------------------------------------
    # Batch internals
    # ------------------------------------------------------------------
    def _effective_policy(self) -> BackendPolicy:
        """The dispatch policy this run actually uses: the runner's own
        ``backend=`` argument, else the ambient process default (which
        reflects ``set_default_backend`` and the environment)."""
        if self._backend_mode is not None:
            return BackendPolicy.coerce(self._backend_mode)
        return default_backend()

    def _prepare(
        self,
        item: Union[str, ExperimentSpec],
        scale: str,
        policy: BackendPolicy,
        position: int,
        seen: Dict[Tuple[str, str], _PreparedRun],
    ) -> _PreparedRun:
        """Resolve one requested experiment into schedulable state.

        Resolves the spec, computes the digest, replays a finalized store
        file when one exists, derives the work plan's units and shard
        layout (adopting a continued partial file's layout), and opens the
        record-store writer.  A ``(key, digest)`` already in
        ``seen`` becomes a duplicate *before* any writer is opened — two
        writers on one ``.partial`` path would truncate each other.  Any
        exception is captured on the returned run instead of raised.
        """
        label = item.key if isinstance(item, ExperimentSpec) else str(item)
        run = _PreparedRun(label, position)
        run.scale = scale
        try:
            spec = resolve_spec(item)
            run.spec = spec
            params = spec.merged_params(scale)
            run.digest = spec_digest(spec, params, scale, policy.mode)
            first = seen.get((spec.key, run.digest))
            if first is not None:
                run.duplicate_of = first
                return run
            seen[(spec.key, run.digest)] = run
            stored = None
            if self._records is not None:
                stored = self._records.load(spec.key, run.digest)
                if stored is not None and stored.is_complete:
                    # jobs/backend/elapsed describe *this* invocation.
                    run.result = stored.to_experiment_result().with_metadata(
                        jobs=self._jobs,
                        backend=policy.mode,
                        elapsed_s=0.0,
                        records={
                            "path": str(stored.path),
                            "hit": True,
                            "resumed_shards": sorted(stored.completed_shards()),
                        },
                    )
                    return run
            if spec.replication is not None:
                run.kind = "replication"
                run.units = spec.replications_for(params)
                # Tasks may need the *total* unit count, which a shard
                # cannot see — guarantee it is present even when the
                # spec relies on the plan's default.
                params = dict(params, replications=run.units)
            elif spec.sweep is not None:
                run.kind = "sweep"
                run.points = list(
                    _resolve_hook(spec.sweep.points)(dict(params))
                )
                run.units = len(run.points)
                if run.units == 0:
                    raise ValueError(
                        f"sweep plan of {spec.key!r} enumerated no points"
                    )
            else:
                run.kind = "task"
                run.units = 1
            run.params = dict(params)
            run.shards = self._shard_bounds(run.units)
            if self._records is not None:
                run.writer = self._records.begin(
                    spec.key,
                    run.digest,
                    {
                        "version": STORE_VERSION,
                        "key": spec.key,
                        "title": spec.title,
                        "scale": scale,
                        "digest": run.digest,
                        "plan": run.kind,
                        "units": run.units,
                        "shards": [list(b) for b in run.shards],
                    },
                    prior=stored,
                )
                # A continued run keeps its recorded layout, and its
                # sealed shards are done.
                run.shards = [
                    (int(lo), int(hi)) for lo, hi in run.writer.manifest["shards"]
                ]
                for shard, records in run.writer.carried_records.items():
                    if 0 <= shard < len(run.shards):
                        run.records_by_shard[shard] = records
                        run.resumed.append(shard)
        except Exception as exc:  # noqa: BLE001 - isolate requested runs
            run.error = exc
        return run

    def _schedule(
        self, active: Sequence[_PreparedRun]
    ) -> List[Tuple[WorkUnit, _PreparedRun]]:
        """The global largest-work-first shard queue for ``active`` runs.

        Sorted by descending unit count, then shard index, then request
        position — so equal-size shards round-robin across experiments
        and every worker stays busy across experiment boundaries.
        """
        entries: List[Tuple[WorkUnit, _PreparedRun]] = []
        for run in active:
            assert run.spec is not None
            for shard in run.pending:
                lo, hi = run.shards[shard]
                entries.append(
                    (
                        WorkUnit(
                            key=run.spec.key,
                            shard=shard,
                            lo=lo,
                            hi=hi,
                            kind=run.kind,
                            weight=hi - lo,
                        ),
                        run,
                    )
                )
        entries.sort(key=lambda e: (-e[0].weight, e[0].shard, e[1].position))
        return entries

    def _job_for(
        self, run: _PreparedRun, unit: WorkUnit, backend: str
    ) -> _ShardJob:
        """The picklable worker payload for one scheduled shard."""
        assert run.spec is not None
        if run.kind == "replication":
            assert run.spec.replication is not None
            return _ShardJob(
                kind="replication",
                task=run.spec.task,
                params=run.params,
                lo=unit.lo,
                hi=unit.hi,
                seed=run.spec.replication.seed,
                total=run.units,
                backend=backend,
            )
        if run.kind == "sweep":
            assert run.points is not None
            return _ShardJob(
                kind="sweep",
                task=run.spec.task,
                params=run.params,
                lo=unit.lo,
                hi=unit.hi,
                points=tuple(run.points[unit.lo:unit.hi]),
                backend=backend,
            )
        return _ShardJob(
            kind="task",
            task=run.spec.task,
            params=run.params,
            lo=unit.lo,
            hi=unit.hi,
            backend=backend,
        )

    def _execute(
        self,
        schedule: Sequence[Tuple[WorkUnit, _PreparedRun]],
        backend: str,
    ) -> None:
        """Drain the global shard queue, streaming records as shards land.

        ``jobs=1`` (or a single shard) executes inline in schedule order;
        otherwise every shard is submitted to one shared pool in schedule
        order and absorbed as it completes.  A shard failure poisons only
        its own experiment.
        """
        if not schedule:
            return
        if self._jobs == 1 or len(schedule) == 1:
            for unit, run in schedule:
                if run.error is not None:
                    continue
                try:
                    records, meta = _run_job(self._job_for(run, unit, backend))
                except Exception as exc:  # noqa: BLE001 - isolate runs
                    run.error = exc
                    continue
                self._absorb(run, unit.shard, records, meta)
            return
        with ProcessPoolExecutor(max_workers=self._jobs) as pool:
            futures = {
                pool.submit(_run_job, self._job_for(run, unit, backend)): (unit, run)
                for unit, run in schedule
            }
            for future in as_completed(futures):
                unit, run = futures[future]
                try:
                    records, meta = future.result()
                except Exception as exc:  # noqa: BLE001 - isolate runs
                    run.error = exc
                    continue
                self._absorb(run, unit.shard, records, meta)

    def _absorb(
        self,
        run: _PreparedRun,
        shard: int,
        records: Sequence[Mapping[str, Any]],
        meta: Mapping[str, Any],
    ) -> None:
        """Bank one completed shard and stream it to the record store."""
        run.records_by_shard[shard] = list(records)
        run.finished_at = time.perf_counter()
        if meta:
            run.task_metadata.update(meta)
        if run.writer is not None:
            run.writer.append_shard(shard, records)

    def _collect(
        self, run: _PreparedRun, policy: BackendPolicy, started: float
    ) -> None:
        """Merge a finished run's shards, finalize, and store.

        Shard records are concatenated in unit order (by each shard's
        ``lo``), the spec's ``finalize`` hook reduces them, provenance is
        stamped, and the record stream is atomically finalized.

        Raises
        ------
        RuntimeError
            If a shard's records never arrived (a scheduler bug).
        """
        assert run.spec is not None
        missing = run.pending
        if missing:
            raise RuntimeError(
                f"experiment {run.spec.key} finished with shards {missing} "
                "missing"
            )
        records: List[Mapping[str, Any]] = []
        for shard in sorted(
            run.records_by_shard, key=lambda s: run.shards[s][0]
        ):
            records.extend(run.records_by_shard[shard])
        metadata: Dict[str, Any] = {}
        if run.kind == "replication":
            assert run.spec.replication is not None
            metadata.update(
                replications=run.units,
                seed=run.spec.replication.seed,
                shards=[list(b) for b in run.shards],
            )
        elif run.kind == "sweep":
            metadata.update(
                units=run.units,
                shards=[list(b) for b in run.shards],
            )
        if run.spec.finalize is not None:
            records, extra = _normalise_task_output(
                _resolve_hook(run.spec.finalize)(dict(run.params), list(records))
            )
            metadata.update(extra)
        else:
            metadata.update(run.task_metadata)
        # elapsed_s: batch start to this run's last completed shard —
        # per-run provenance, not the whole batch's wall-clock (shards of
        # other experiments interleave freely before that point).
        finished = run.finished_at if run.finished_at is not None \
            else time.perf_counter()
        metadata.update(
            scale=run.scale,
            jobs=self._jobs,
            backend=policy.mode,
            elapsed_s=round(finished - started, 6),
        )
        if run.writer is not None:
            metadata["records"] = {
                "path": str(run.writer.final_path),
                "format": "jsonl",
                "resumed_shards": sorted(run.resumed),
            }
        result = ExperimentResult(
            key=run.spec.key,
            title=run.spec.title,
            scale=run.scale,
            records=tuple(dict(r) for r in records),
            metadata=metadata,
        )
        if run.writer is not None:
            run.writer.finalize(result.to_dict())
        run.result = result

    def _shard_bounds(self, units: int) -> List[Tuple[int, int]]:
        """Split ``units`` into ``min(jobs, units)`` contiguous, equal
        shards.  The boundaries never affect the records (units are
        seed-addressable), only the schedule.
        """
        shards = max(1, min(self._jobs, units))
        edges = np.linspace(0, units, shards + 1).astype(int)
        return [
            (int(lo), int(hi))
            for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo
        ]


def _normalise_task_output(output: Any) -> Tuple[List[Mapping[str, Any]], Dict[str, Any]]:
    """Accept ``records`` or ``(records, metadata)`` from task hooks."""
    if (
        isinstance(output, tuple)
        and len(output) == 2
        and isinstance(output[1], Mapping)
    ):
        return list(output[0]), dict(output[1])
    return list(output), {}


def resolve_spec(spec: Union[str, ExperimentSpec]) -> ExperimentSpec:
    """A spec object, or a registry lookup (loading the canonical specs
    on first use).

    Raises
    ------
    KeyError
        If ``spec`` names no registered experiment.
    """
    if isinstance(spec, ExperimentSpec):
        return spec
    _ensure_canonical_specs()
    return EXPERIMENT_SPECS.get(str(spec))


def canonical_keys() -> List[str]:
    """The canonical experiment ids E1..E11, in paper order."""
    _ensure_canonical_specs()
    seen: Dict[str, ExperimentSpec] = {}
    for name in EXPERIMENT_SPECS:
        spec = EXPERIMENT_SPECS.get(name)
        seen.setdefault(spec.key, spec)
    def _order(key: str) -> Tuple[int, str]:
        if key.upper().startswith("E") and key[1:].isdigit():
            return (int(key[1:]), key)
        return (10 ** 6, key)
    return sorted(seen, key=_order)


def _ensure_canonical_specs() -> None:
    from importlib import import_module

    if "e1" not in EXPERIMENT_SPECS:
        import_module("repro.experiments.specs")
