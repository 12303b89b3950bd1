"""The estimation-session facade: one fluent surface over the pipeline.

The paper's framework is a single coherent pipeline — monotone sampling
scheme → outcome → customized estimator → aggregate query — previously
exposed as four disconnected module surfaces.  :class:`EstimationSession`
owns the whole flow:

* **scheme construction** from a registry name (``scheme="pps"``) plus
  per-instance weights, or any ready-made scheme object;
* **target / estimator resolution** through the plugin registries, so
  strings, classes and instances are interchangeable;
* **seed management** — explicit per-item seeds, a shared generator, or
  deterministic key hashing, with the same precedence everywhere;
* **backend policy** — one :class:`~repro.api.backend.BackendPolicy`
  replaces every scattered ``backend=`` keyword and, under ``auto``,
  dispatches to an engine kernel whenever one covers the estimator;
* **result objects** (:class:`~repro.api.results.EstimateResult`)
  carrying the estimate, its variance when available, and sample
  metadata.

Quickstart::

    from repro.api import EstimationSession

    session = (
        EstimationSession([1.0, 1.0], scheme="pps", backend="auto")
        .target("one_sided_range", p=1)
        .estimator("lstar")
    )
    session.estimate((0.6, 0.2), seed=0.35).value      # one item
    session.estimate(dataset, rng=7).value             # a whole dataset
    session.query("lpp", dataset, p=1.0)               # exact ground truth
    session.simulate([(0.6, 0.2)] * 50, replications=200).std_error
"""

from __future__ import annotations

from numbers import Real
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .backend import BackendPolicy, BackendSpec
from .registry import ESTIMATORS, QUERIES, SCHEMES, TARGETS
from .results import EstimateResult
from ..core.functions import EstimationTarget
from ..core.schemes import MonotoneSamplingScheme

__all__ = ["EstimationSession", "Session"]


class EstimationSession:
    """Fluent builder and runner for monotone-sampling estimation.

    Parameters
    ----------
    weights:
        Per-instance scheme weights — for ``scheme="pps"`` the PPS rates
        ``tau*`` (``[1.0, 1.0]`` is the canonical two-instance setting of
        the paper's examples).  Ignored when ``scheme`` is already a
        scheme object.
    scheme:
        A registry name (``"pps"``, ``"step"``, ...) or a ready
        :class:`~repro.core.schemes.MonotoneSamplingScheme`.
    backend:
        ``None`` (process default), a mode string, or a
        :class:`~repro.api.backend.BackendPolicy`.
    salt:
        Salt for deterministic (hashed) per-item seeds.
    """

    def __init__(
        self,
        weights: Optional[Sequence[float]] = None,
        scheme: Union[str, MonotoneSamplingScheme] = "pps",
        backend: BackendSpec = None,
        *,
        salt: str = "",
    ) -> None:
        # Scheme construction is lazy: exact queries need no scheme, so a
        # bare ``EstimationSession()`` is a valid query runner.
        if isinstance(scheme, MonotoneSamplingScheme):
            self._scheme_obj: Optional[MonotoneSamplingScheme] = scheme
        else:
            self._scheme_obj = None
            self._scheme_name = scheme
            self._weights = weights
        self._policy = BackendPolicy.coerce(backend)
        self._salt = salt
        self._target: Optional[EstimationTarget] = None
        self._estimator_spec: Any = None
        self._estimator_params: Mapping[str, Any] = {}
        self._instances: Optional[Sequence[int]] = None

    # ------------------------------------------------------------------
    # Fluent configuration
    # ------------------------------------------------------------------
    def target(self, target: Union[str, EstimationTarget], **params: Any) -> "EstimationSession":
        """Set the per-item target function (registry name or instance).

        Parameters
        ----------
        target:
            A target registry key (``"one_sided_range"``) or a ready
            :class:`~repro.core.functions.EstimationTarget`.
        **params:
            Factory parameters for registry-name targets (``p=2.0``).

        Returns
        -------
        EstimationSession
            ``self``, for fluent chaining.

        Raises
        ------
        TypeError
            If ``params`` are passed alongside a target instance.
        KeyError
            If the name is not registered.
        """
        if isinstance(target, str):
            self._target = TARGETS.get(target)(**params)
        else:
            if params:
                raise TypeError("params only apply to registry-name targets")
            self._target = target
        return self

    def estimator(self, estimator: Any = "lstar", **params: Any) -> "EstimationSession":
        """Set the per-item estimator (registry name, factory, or instance).

        ``params`` are forwarded to the factory when ``estimator`` is a
        registry name or callable.  Returns ``self`` for chaining;
        resolution (and therefore unknown-name ``KeyError``) happens at
        the first estimating call.
        """
        self._estimator_spec = estimator
        self._estimator_params = dict(params)
        return self

    def backend(self, spec: BackendSpec) -> "EstimationSession":
        """Replace the backend policy (``None`` / mode string / policy).

        Returns ``self`` for chaining; raises :class:`TypeError` or
        :class:`ValueError` on an unrecognised spec.
        """
        self._policy = BackendPolicy.coerce(spec)
        return self

    def instances(self, instances: Optional[Sequence[int]]) -> "EstimationSession":
        """Select (and order) the instances forming each item tuple.

        ``None`` restores the default (all instances, scheme order).
        Returns ``self`` for chaining.
        """
        self._instances = None if instances is None else tuple(instances)
        return self

    def fork(self) -> "EstimationSession":
        """An independent copy (same scheme object, separate config)."""
        if self._scheme_obj is not None:
            clone = EstimationSession(scheme=self._scheme_obj,
                                      salt=self._salt, backend=self._policy)
        else:
            clone = EstimationSession(self._weights, scheme=self._scheme_name,
                                      salt=self._salt, backend=self._policy)
        clone._target = self._target
        clone._estimator_spec = self._estimator_spec
        clone._estimator_params = dict(self._estimator_params)
        clone._instances = self._instances
        return clone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def scheme(self) -> MonotoneSamplingScheme:
        """The session's sampling scheme, constructed on first access.

        Raises
        ------
        ValueError
            If the session was built without weights and no ready-made
            scheme object was supplied.
        """
        if self._scheme_obj is None:
            if self._weights is None:
                raise ValueError(
                    "this operation needs a sampling scheme; construct the "
                    "session with per-instance weights, e.g. "
                    "EstimationSession([1.0, 1.0], scheme='pps')"
                )
            self._scheme_obj = SCHEMES.get(self._scheme_name)(self._weights)
        return self._scheme_obj

    @property
    def policy(self) -> BackendPolicy:
        """The backend policy governing this session's dispatch."""
        return self._policy

    def describe(self) -> Mapping[str, Any]:
        """The session configuration as a flat dict."""
        scheme = self._scheme_obj
        return {
            "scheme": type(scheme).__name__ if scheme is not None
            else self._scheme_name,
            "dimension": getattr(scheme, "dimension", None),
            "target": repr(self._target) if self._target is not None else None,
            "estimator": self._resolved_estimator().name
            if self._target is not None or self._is_estimator_instance()
            else self._estimator_spec,
            "backend": self._policy.mode,
            "instances": self._instances,
        }

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        data: Any,
        *,
        seed: Optional[float] = None,
        seeds: Optional[Mapping[Any, float]] = None,
        rng: Any = None,
        salt: Optional[str] = None,
        selection: Optional[Iterable[Any]] = None,
    ) -> EstimateResult:
        """Estimate the target (sum-)aggregate from sampled ``data``.

        ``data`` may be a single item tuple (``seed`` required — the
        item's uniform seed in ``(0, 1]``), an already coordinated
        :class:`~repro.aggregates.coordinated.CoordinatedSample`, a
        :class:`~repro.aggregates.dataset.MultiInstanceDataset`, a mapping
        ``key -> weight tuple``, or a dense ``(n, r)`` array of weights.
        For collection inputs the seed precedence matches the samplers:
        explicit ``seeds`` mapping, then ``rng`` (a generator or an int
        seeding one), then a salted hash of each key.
        """
        from ..aggregates.coordinated import CoordinatedSample

        if isinstance(data, CoordinatedSample):
            return self._estimate_sample(data, selection)
        if self._looks_like_vector(data):
            return self._estimate_single(data, seed)
        dataset = self._as_dataset(data)
        return self._estimate_dataset(
            dataset, seeds=seeds, rng=_as_rng(rng, seed), salt=salt,
            selection=selection,
        )

    def sample(
        self,
        dataset: Any,
        *,
        seeds: Optional[Mapping[Any, float]] = None,
        rng: Any = None,
        salt: Optional[str] = None,
    ):
        """Coordinated-PPS-sample a dataset under this session's scheme."""
        from ..aggregates.coordinated import CoordinatedPPSSampler

        sampler = CoordinatedPPSSampler(
            self._linear_rates(), salt=self._salt if salt is None else salt
        )
        return sampler.sample(self._as_dataset(dataset), rng=_as_rng(rng, None),
                              seeds=seeds)

    def query(self, query: str, dataset: Any, **kwargs: Any) -> EstimateResult:
        """Evaluate an exact (ground-truth) query from the query registry.

        The backend policy picks scalar or vectorized evaluation (``auto``
        means vectorized); pass ``backend=`` (a mode string or a policy)
        to override for this call.  Queries flagged
        ``explicit_backend_only`` — the built-in ``"sum"``, whose scalar
        and vectorized paths hand the item function different inputs —
        stay scalar under an ``"auto"`` policy and switch only on an
        explicit fixed mode.  For the ``"custom"`` query the session's
        target is used when none is given.
        """
        func = QUERIES.get(query)
        dataset = self._as_dataset(dataset)
        override = kwargs.pop("backend", None)
        policy = (
            self._policy if override is None else BackendPolicy.coerce(override)
        )
        if getattr(func, "explicit_backend_only", False):
            backend = policy.mode if policy.mode != "auto" else "scalar"
        else:
            backend = policy.resolve_exact()
        if "target" in _kwarg_names(func) and "target" not in kwargs \
                and self._target is not None:
            kwargs["target"] = self._target
        value = float(func(dataset, backend=backend, **kwargs))
        target_obj = kwargs.get("target")
        return EstimateResult(
            value=value,
            estimator="exact",
            target=repr(target_obj) if target_obj is not None else "",
            backend=backend,
            items_seen=len(dataset),
            metadata={"query": query},
        )

    def simulate(
        self,
        tuples: Sequence[Sequence[float]],
        replications: int = 200,
        rng: Any = None,
        *,
        seeds: Any = None,
    ) -> EstimateResult:
        """Monte-Carlo sum-aggregate estimation over many replications.

        Wraps :func:`repro.analysis.simulation.simulate_sum_estimate`
        with the session's scheme, target, estimator and backend policy;
        the result carries the empirical mean, variance and error
        statistics.  ``seeds`` (shape ``(replications, len(tuples))``)
        supplies every replication's per-item seeds explicitly instead of
        drawing from ``rng`` — the hook the experiment runner uses for
        shard-invariant, replication-addressable randomness.
        """
        from ..analysis.simulation import simulate_sum_estimate

        estimator = self._resolved_estimator()
        summary = simulate_sum_estimate(
            estimator,
            self.scheme,
            self._require_target(),
            tuples,
            replications=replications,
            rng=_as_rng(rng, None),
            backend=self._policy,
            seeds=seeds,
        )
        return EstimateResult(
            value=summary.mean,
            estimator=estimator.name,
            target=repr(self._target),
            backend=self._policy.mode,
            items_seen=len(tuples),
            variance=summary.variance,
            metadata={
                "replications": replications,
                "true_value": summary.true_value,
                "bias": summary.bias,
                "rmse": summary.rmse,
                "summary": summary,
            },
        )

    def moments(self, vector: Sequence[float], rtol: float = 1e-8) -> EstimateResult:
        """Exact per-item moments (quadrature over the seed) for ``vector``."""
        from ..analysis.variance import moments as exact_moments

        estimator = self._resolved_estimator()
        report = exact_moments(
            estimator, self.scheme, self._require_target(), vector, rtol=rtol
        )
        return EstimateResult(
            value=report.mean,
            estimator=estimator.name,
            target=repr(self._target),
            backend="scalar",
            items_seen=1,
            variance=report.variance,
            metadata={
                "true_value": report.true_value,
                "second_moment": report.second_moment,
                "bias": report.bias,
                "report": report,
            },
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_target(self) -> EstimationTarget:
        if self._target is None:
            raise ValueError(
                "no target set; call .target(name_or_instance) first "
                f"(registered targets: {', '.join(TARGETS.names())})"
            )
        return self._target

    def _is_estimator_instance(self) -> bool:
        from ..estimators.base import Estimator

        return isinstance(self._estimator_spec, Estimator)

    def _resolved_estimator(self):
        from ..estimators.base import Estimator

        spec = self._estimator_spec if self._estimator_spec is not None else "lstar"
        if isinstance(spec, Estimator):
            return spec
        if isinstance(spec, str):
            factory = ESTIMATORS.get(spec)
            return factory(self._require_target(), **self._estimator_params)
        if callable(spec):
            return spec(self._require_target(), **self._estimator_params)
        raise TypeError(f"cannot resolve estimator from {spec!r}")

    def _linear_rates(self) -> Sequence[float]:
        from ..core.schemes import CoordinatedScheme, LinearThreshold

        if not isinstance(self.scheme, CoordinatedScheme):
            raise TypeError(
                "dataset sampling requires a coordinated scheme"
            )
        rates = []
        for threshold in self.scheme.thresholds:
            if not isinstance(threshold, LinearThreshold):
                raise TypeError(
                    "dataset sampling requires PPS (linear) thresholds; "
                    "sample items individually for other schemes"
                )
            rates.append(threshold.tau_star)
        return rates

    @staticmethod
    def _looks_like_vector(data: Any) -> bool:
        if isinstance(data, np.ndarray):
            return data.ndim == 1
        if isinstance(data, (list, tuple)):
            return len(data) > 0 and isinstance(data[0], Real)
        return False

    def _as_dataset(self, data: Any):
        from ..aggregates.dataset import MultiInstanceDataset

        if isinstance(data, MultiInstanceDataset):
            return data
        dimension = self.scheme.dimension
        names = [f"instance{i}" for i in range(dimension)]
        if isinstance(data, Mapping):
            return MultiInstanceDataset(names, dict(data))
        rows = np.asarray(data, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != dimension:
            raise ValueError(
                f"cannot interpret data of shape {rows.shape} as items over "
                f"{dimension} instances"
            )
        return MultiInstanceDataset(
            names, {k: tuple(row) for k, row in enumerate(rows)}
        )

    def _estimate_single(self, vector: Sequence[float], seed: Optional[float]) -> EstimateResult:
        if seed is None:
            raise ValueError(
                "estimating a single item requires its uniform seed in "
                "(0, 1]: estimate(vector, seed=...)"
            )
        estimator = self._resolved_estimator()
        self._require_target()
        outcome = self.scheme.sample(vector, float(seed))
        if self._instances is not None:
            # Mirror CoordinatedSample.outcome_for: the target sees the
            # selected entries under the matching restricted scheme.
            from ..core.outcome import Outcome
            from ..core.schemes import CoordinatedScheme

            if not isinstance(self.scheme, CoordinatedScheme):
                raise TypeError(
                    "instance selection requires a coordinated scheme"
                )
            outcome = Outcome(
                seed=outcome.seed,
                values=tuple(outcome.values[i] for i in self._instances),
                scheme=CoordinatedScheme(
                    [self.scheme.thresholds[i] for i in self._instances]
                ),
            )
        value = float(estimator.estimate(outcome))
        return EstimateResult(
            value=value,
            estimator=estimator.name,
            target=repr(self._target),
            backend="scalar",
            items_seen=1,
            items_contributing=int(value != 0.0),
            metadata={"seed": float(seed), "outcome": outcome.values},
        )

    def _estimate_sample(self, sample, selection) -> EstimateResult:
        from ..aggregates.sum_estimator import SumAggregateEstimator

        aggregator = SumAggregateEstimator(
            self._require_target(),
            estimator=self._resolved_estimator(),
            instances=self._instances,
            backend=self._policy,
        )
        estimate = aggregator.estimate(sample, selection=selection)
        n_keys = len(estimate.items)
        return EstimateResult(
            value=estimate.value,
            estimator=estimate.estimator,
            target=repr(self._target),
            backend=self._policy.mode,
            items_seen=n_keys,
            items_contributing=estimate.contributing_items,
            metadata={"sum_estimate": estimate},
        )

    def _estimate_dataset(
        self, dataset, *, seeds, rng, salt, selection
    ) -> EstimateResult:
        if self._policy.mode != "scalar":
            return self._estimate_dataset_engine(
                dataset, seeds=seeds, rng=rng, salt=salt, selection=selection
            )
        sample = self.sample(dataset, seeds=seeds, rng=rng, salt=salt)
        return self._estimate_sample(sample, selection)

    def _estimate_dataset_engine(
        self, dataset, *, seeds, rng, salt, selection
    ) -> EstimateResult:
        """Stream the dataset through the chunked batch engine.

        The engine consumes seeds in the same order as the scalar sampler,
        so the estimate matches the scalar path exactly (engine parity
        tests); ``backend="vectorized"`` additionally insists on a kernel.
        """
        from ..engine.driver import BatchSumEngine

        estimator = self._resolved_estimator()
        self._require_target()
        engine = BatchSumEngine(
            estimator, rates=self._linear_rates(), instances=self._instances
        )
        if self._policy.mode == "vectorized" and engine.kernel is None:
            raise ValueError(
                "no vectorized kernel covers this estimator/scheme pair; "
                "use backend='scalar' or backend='auto'"
            )
        result = engine.estimate_dataset(
            dataset,
            seeds=seeds,
            rng=rng,
            salt=self._salt if salt is None else salt,
            selection=selection,
        )
        return EstimateResult(
            value=result.value,
            estimator=result.estimator,
            target=repr(self._target),
            backend=self._policy.mode,
            items_seen=result.items_seen,
            items_contributing=result.items_contributing,
            metadata={"batch_result": result},
        )


def _as_rng(rng: Any, fallback_seed: Any) -> Optional[np.random.Generator]:
    """Accept a Generator, an int seed, or None (then try ``fallback_seed``)."""
    if rng is None and fallback_seed is not None:
        rng = fallback_seed
    if rng is None:
        return None
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _kwarg_names(func) -> Sequence[str]:
    """Parameter names of ``func`` (used to feed ``target=`` only where it fits)."""
    import inspect

    try:
        return tuple(inspect.signature(func).parameters)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return ()


#: Short alias used in the docs and the quickstart.
Session = EstimationSession
