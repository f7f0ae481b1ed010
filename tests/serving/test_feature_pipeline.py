"""FeaturePipeline: the transform= seam, conflicts, cache-key stability."""

import numpy as np
import pytest

from repro.serving import create
from repro.serving.pipeline import PIPELINE_STAGES, FeaturePipeline
from repro.serving.registry import params_key


class TestCacheKeyStability:
    """Legacy spellings must key exactly as they did before the seam.

    These strings are the regression contract: they are what
    ``ModelCache`` entries and ``ModelStore`` artifact filenames hash,
    so any drift here silently invalidates every cached model and every
    on-disk artifact.  Do not update them to make a refactor pass.
    """

    def test_knn_default_key(self):
        assert params_key(create("knn").params) == (
            "[('k', 5), ('weighted', True)]"
        )

    def test_knn_regressor_default_key(self):
        assert params_key(create("knn-regressor").params) == (
            "[('k', 5), ('weights', 'uniform')]"
        )

    def test_noble_default_key(self):
        assert params_key(create("noble").params) == (
            "[('adjacency_weight', 0.3), ('batch_size', 64), "
            "('coarse', 4.0), ('epochs', 60), ('hidden', 128), "
            "('lr', 0.001), ('seed', 0), ('tau', 0.2), "
            "('val_fraction', 0.0)]"
        )

    def test_absent_by_default_stages(self):
        # dtype=None contributes no key at all — the invariant that
        # keeps pre-seam artifacts resolving
        for backend in ("knn", "knn-regressor", "noble", "cnnloc"):
            params = create(backend).params
            assert "dtype" not in params
        explicit = create("noble", dtype=None)
        assert explicit.params == create("noble").params

    def test_dtype_spellings_share_a_key(self):
        a = create("noble", dtype="float32")
        b = create("noble", dtype=np.float32)
        assert params_key(a.params) == params_key(b.params)

    def test_seed_spellings_share_a_key(self):
        a = create("noble", seed=0)
        b = create("noble", seed=np.int64(0))
        assert params_key(a.params) == params_key(b.params)


class TestTransformSpelling:
    def test_transform_keys_like_legacy_kwargs(self):
        pairs = [
            ("noble", dict(dtype="float32"), {"dtype": "float32"}),
            ("cnnloc", dict(dtype="float32"), {"dtype": "float32"}),
        ]
        for backend, legacy, transform in pairs:
            a = create(backend, **legacy)
            b = create(backend, transform=transform)
            assert a.params == b.params, (backend, legacy, transform)
            assert params_key(a.params) == params_key(b.params)

    def test_embed_stage_spellings_agree(self):
        a = create("embed-knn", embedder="mlp")
        b = create("embed-knn", transform={"embed": "mlp"})
        c = create("embed-knn", transform={"embed": {"kind": "mlp"}})
        d = create("embed-knn")  # an embedded backend defaults to mlp
        assert a.params == b.params == c.params == d.params

    def test_embed_params_are_canonicalized(self):
        # partial kwargs key with the embedder's defaults filled in, so
        # two spellings of one configuration share a cache entry
        a = create("embed-knn", embedder="metric", embed_params={"epochs": 30})
        b = create("embed-knn", transform={"embed": {"kind": "metric"}})
        assert a.params == b.params
        different = create(
            "embed-knn", embedder="metric", embed_params={"epochs": 5}
        )
        assert params_key(a.params) != params_key(different.params)

    def test_pipeline_instance_as_transform(self):
        pipeline = FeaturePipeline(backend="noble", dtype="float32")
        a = create("noble", transform=pipeline)
        b = create("noble", dtype="float32")
        assert a.params == b.params

    def test_spec_round_trips(self):
        pipeline = FeaturePipeline(
            backend="embed-knn", stages=PIPELINE_STAGES,
            embedder="mlp", embed_params={"n_components": 8},
            dtype="float32",
        )
        rebuilt = FeaturePipeline.resolve(
            pipeline.spec(), backend="embed-knn", stages=PIPELINE_STAGES
        )
        assert rebuilt.canonical_params() == pipeline.canonical_params()


class TestConflicts:
    def test_dtype_stage_conflicts_with_dtype(self):
        with pytest.raises(ValueError, match="one spelling"):
            create("noble", dtype="float32", transform={"dtype": "float32"})

    def test_embed_stage_conflicts_with_embedder(self):
        with pytest.raises(ValueError, match="one spelling"):
            create(
                "embed-knn", embedder="mlp", transform={"embed": "mlp"}
            )


class TestStageGating:
    def test_embed_stage_rejected_off_embed_knn(self):
        # the error points at the backend that does support it
        for backend in ("noble", "cnnloc"):
            with pytest.raises(ValueError, match="embed-knn"):
                create(backend, transform={"embed": "mlp"})
        # the plain kNN backends have no feature pipeline at all
        for backend in ("knn", "knn-regressor"):
            with pytest.raises(TypeError, match="transform"):
                create(backend, transform={"embed": "mlp"})

    def test_embed_params_require_an_embedder(self):
        with pytest.raises(ValueError, match="embed_params"):
            FeaturePipeline(
                backend="embed-knn", stages=PIPELINE_STAGES,
                embed_params={"epochs": 3},
            )

    def test_unknown_embedder_kind(self):
        with pytest.raises(ValueError, match="unknown embedder"):
            create("embed-knn", embedder="pca")

    def test_unknown_stage_names(self):
        with pytest.raises(ValueError, match="unknown pipeline stages"):
            FeaturePipeline(backend="x", stages=("warp",))


class TestResolveValidation:
    def test_unknown_transform_key(self):
        with pytest.raises(ValueError, match="unknown transform stages"):
            create("noble", transform={"quantize": 16})

    def test_transform_type_error(self):
        with pytest.raises(TypeError, match="transform"):
            create("noble", transform="bin=16")

    def test_embed_spec_needs_a_kind(self):
        with pytest.raises(ValueError, match="kind"):
            create("embed-knn", transform={"embed": {"epochs": 3}})

    def test_embed_spec_type_error(self):
        with pytest.raises(TypeError, match="embed stage"):
            create("embed-knn", transform={"embed": 16})


class TestNoShardStage:
    """One kNN index per backend: no shard stage, no sharding kwargs."""

    @pytest.mark.parametrize(
        "backend", ["knn", "knn-regressor", "noble", "forest"]
    )
    def test_sharding_refused_at_construction(self, backend):
        with pytest.raises((TypeError, ValueError)):
            create(backend, shards=2)
        with pytest.raises((TypeError, ValueError)):
            create(backend, transform={"shard": 2})

    def test_partitioner_refused_at_construction(self):
        with pytest.raises(TypeError, match="partitioner"):
            create("knn", partitioner="kmeans")


class TestNoBinStage:
    """No uint8 input-binning stage: the scan always reads float points."""

    @pytest.mark.parametrize(
        "backend",
        ["knn", "knn-regressor", "embed-knn", "noble", "cnnloc", "ensemble"],
    )
    def test_binning_refused_at_construction(self, backend):
        with pytest.raises(TypeError, match="quantize_bins"):
            create(backend, quantize_bins=16)
        with pytest.raises((TypeError, ValueError), match="transform"):
            create(backend, transform={"bin": 16})

    def test_pipeline_has_only_the_embed_stage(self):
        assert PIPELINE_STAGES == ("embed",)
