"""Accuracy regression: the store serves the *same* estimates as offline.

Three layers of pinning, coarsest to tightest:

* **Truth** — on a seeded synthetic workload the served estimates land
  within a fixed tolerance of the exact answers (sums, distinct counts,
  weighted Jaccard), so estimator accuracy cannot silently regress.
* **Offline agreement** — each served query reproduces the answer of the
  corresponding offline pipeline (``pps_sample`` + subset-sum, a
  :class:`CoordinatedPPSSampler` sample through scalar
  ``SumAggregateEstimator``s, ``build_ads_from_distances``) built from
  the store's own ledger, to within reduction-reordering noise (1e-12
  relative): the store is a cache of the offline path, not a fork of it.
* **Golden values** — literal answers recorded from the scalar reference
  backend on one pinned workload; any drift in hashing, sampling or
  estimation arithmetic shows up as a hard diff.
"""

import pytest

from repro.aggregates.coordinated import CoordinatedPPSSampler
from repro.aggregates.dataset import MultiInstanceDataset
from repro.aggregates.sum_estimator import SumAggregateEstimator
from repro.api.backend import set_default_backend
from repro.core.functions import MaxPower, MinPower
from repro.graphs.similarity import SimilarityEstimate
from repro.serving import SketchStore, StoreConfig, synthetic_feed
from repro.sketches.ads import build_ads_from_distances
from repro.sketches.pps import pps_sample, subset_sum_estimate

CONFIG = StoreConfig(k=48, tau_star=0.6, salt="accuracy")


def _query(store, kind, mode="scalar", **kwargs):
    """``store.query`` under the forced backend ``mode`` (scalar: the
    reference path the goldens were recorded from)."""
    previous = set_default_backend(mode)
    try:
        return store.query(kind, **kwargs)
    finally:
        set_default_backend(previous)


@pytest.fixture(scope="module")
def store():
    instance = SketchStore(CONFIG)
    instance.ingest(
        synthetic_feed(4000, num_keys=150, groups=("u", "v"), seed=17)
    )
    return instance


class TestAgainstTruth:
    def test_sum_is_close_to_true_totals(self, store):
        sums = _query(store, "sum")
        for group in store.groups:
            truth = sum(store.group_state(group).totals.values())
            assert sums[group] == pytest.approx(truth, rel=0.15)

    def test_distinct_is_close_to_true_count(self, store):
        counts = _query(store, "distinct")
        for group in store.groups:
            truth = len(store.group_state(group).totals)
            assert counts[group] == pytest.approx(truth, rel=0.25)

    def test_similarity_is_close_to_true_weighted_jaccard(self, store):
        u = store.group_state("u").totals
        v = store.group_state("v").totals
        keys = set(u) | set(v)
        truth = sum(min(u.get(k, 0.0), v.get(k, 0.0)) for k in keys) / sum(
            max(u.get(k, 0.0), v.get(k, 0.0)) for k in keys
        )
        served = _query(store, "similarity", groups=["u", "v"])
        assert served == pytest.approx(truth, abs=0.15)


class TestOfflineAgreement:
    def test_sum_matches_offline_pps_subset_sum(self, store):
        sums = _query(store, "sum")
        for group in store.groups:
            offline = subset_sum_estimate(
                pps_sample(
                    store.group_state(group).totals,
                    CONFIG.tau_star,
                    salt=CONFIG.salt,
                )
            )
            assert sums[group] == pytest.approx(offline, rel=1e-12)

    def test_similarity_matches_offline_estimation_path(self, store):
        dataset = MultiInstanceDataset.from_instance_maps(
            [store.group_state("u").totals, store.group_state("v").totals],
            instance_names=["u", "v"],
        )
        sampler = CoordinatedPPSSampler(
            [CONFIG.tau_star, CONFIG.tau_star], salt=CONFIG.salt
        )
        sample = sampler.sample(dataset)
        numerator = SumAggregateEstimator(MinPower(p=1.0), backend="scalar")
        denominator = SumAggregateEstimator(MaxPower(p=1.0), backend="scalar")
        offline = SimilarityEstimate(
            numerator=numerator.estimate(sample).value,
            denominator=denominator.estimate(sample).value,
        ).value
        served = _query(store, "similarity", groups=["u", "v"])
        assert served == pytest.approx(offline, rel=1e-12)

    def test_distinct_matches_offline_temporal_ads(self, store):
        for horizon in (None, 1000.0):
            counts = _query(store, "distinct", until=horizon)
            for group in store.groups:
                ads = build_ads_from_distances(
                    store.group_state(group).first_seen,
                    CONFIG.k,
                    salt=CONFIG.salt,
                )
                radius = float("inf") if horizon is None else horizon
                offline = ads.neighborhood_cardinality_estimate(radius)
                assert counts[group] == pytest.approx(offline, rel=1e-12)


class TestGoldenValues:
    """Literal answers from the scalar reference on the pinned workload.

    Regenerate (only when an intentional change shifts them) with::

        REPRO_BACKEND=scalar PYTHONPATH=src python - <<'PY'
        from repro.serving import SketchStore, StoreConfig, synthetic_feed
        s = SketchStore(StoreConfig(k=48, tau_star=0.6, salt="accuracy"))
        s.ingest(synthetic_feed(4000, num_keys=150, groups=("u", "v"), seed=17))
        print(s.query("sum"))
        print(s.query("distinct"))
        print(s.query("similarity", groups=["u", "v"]))
        PY
    """

    def test_sum_golden(self, store):
        golden = {"u": 2672.7699182673355, "v": 2639.3966421130913}
        sums = _query(store, "sum")
        assert sums == pytest.approx(golden, rel=1e-9)

    def test_distinct_golden(self, store):
        golden = {"u": 155.89152309220245, "v": 175.65976770518182}
        counts = _query(store, "distinct")
        assert counts == pytest.approx(golden, rel=1e-9)

    def test_similarity_golden(self, store):
        golden = 0.7418429386762242
        served = _query(store, "similarity", groups=["u", "v"])
        assert served == pytest.approx(golden, rel=1e-9)

    def test_engine_backend_reproduces_goldens(self, store):
        # sum and distinct fold each group left to right on both paths;
        # similarity's scalar path integrates numerically, so it agrees
        # with the closed-form kernels to float noise only.
        for kind in ("sum", "distinct"):
            assert _query(store, kind, "vectorized") == _query(store, kind)
        assert _query(
            store, "similarity", "vectorized", groups=["u", "v"]
        ) == pytest.approx(
            _query(store, "similarity", groups=["u", "v"]), rel=1e-9
        )
