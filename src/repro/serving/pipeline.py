"""The feature-space pipeline seam shared by the serving backends.

The ``embed-knn``, ``noble`` and ``cnnloc`` adapters in
:mod:`repro.serving.registry` resolve their feature-space
configuration — the learned embedder and ``dtype`` — through one
validated **embedder → index** chain
(:class:`FeaturePipeline`), so the canonicalization rules that keep
:class:`~repro.serving.cache.ModelCache` /
:class:`~repro.core.persistence.ModelStore` keys stable live in one
place, next to the canonical-param helpers the rest of the registry
keys with.

Two spellings construct the same pipeline::

    create("noble", dtype="float32")               # per-stage kwarg
    create("noble", transform={"dtype": "float32"})  # transform= chain

and mixing them for the *same* stage is an error rather than a silent
override.  The learned-embedding stage (``"embed"``) is only available
on backends that declare it (the ``"embed-knn"`` backend); on
``noble`` and ``cnnloc`` it fails at construction with a pointer to the
right backend.  The plain kNN backends take no ``transform=`` at all.

Cache-key stability is the load-bearing invariant: every stage is
**absent-by-default** in the canonical params (``dtype=None`` produces
no key at all), so pre-existing ``describe()`` strings, cache keys, and
on-disk :class:`ModelStore` artifacts resolve unchanged.
"""

from __future__ import annotations

import numpy as np

#: Stage names, in hot-path application order.
PIPELINE_STAGES = ("embed",)


def _canonical_seed(seed):
    """Collapse equivalent integer seed spellings for stable cache keys."""
    return int(seed) if isinstance(seed, (bool, int, np.integer)) else seed


def _dtype_param(dtype) -> dict:
    """Canonical ``dtype`` entry for an adapter's params.

    Returns ``{}`` for ``None`` (the float64 default) so pre-existing
    describe() strings and :class:`repro.serving.cache.ModelCache` keys
    are untouched; otherwise the dtype's canonical string
    (``"float32"``/``"float64"``), so equivalent spellings
    (``np.float32`` vs ``"float32"``) share one cache entry and the two
    precisions never alias each other.
    """
    if dtype is None:
        return {}
    from repro.nn.dtypes import resolve_dtype

    return {"dtype": str(resolve_dtype(dtype))}


class FeaturePipeline:
    """A validated embedder → index configuration.

    Backends construct one through :meth:`resolve` (which merges the
    ``transform=`` spelling with the per-stage kwargs), then key
    themselves with :meth:`canonical_params` and build the embed stage
    with :meth:`build_embedder`.

    Parameters
    ----------
    backend:
        Registry name of the owning backend — only used in error
        messages.
    stages:
        The stages this backend supports, a subset of
        :data:`PIPELINE_STAGES`.  Configuring an unsupported stage is a
        construction-time error.
    embedder / embed_params:
        Learned-embedding stage: an embedder kind from
        :data:`repro.embedding.EMBEDDER_KINDS` plus its constructor
        kwargs.
    dtype:
        Compute precision, canonicalized like the nn backends.
    """

    def __init__(
        self,
        *,
        backend: str = "?",
        stages: tuple = (),
        embedder: "str | None" = None,
        embed_params: "dict | None" = None,
        dtype=None,
    ):
        unknown = set(stages) - set(PIPELINE_STAGES)
        if unknown:
            raise ValueError(
                f"unknown pipeline stages {sorted(unknown)}; "
                f"available: {', '.join(PIPELINE_STAGES)}"
            )
        self.backend = backend
        self.stages = tuple(stages)
        if embedder is not None:
            if "embed" not in self.stages:
                raise ValueError(
                    f"backend {backend!r} has no learned-embedding stage; "
                    "use the 'embed-knn' backend for embedded serving"
                )
            from repro.embedding import EMBEDDER_KINDS

            if embedder not in EMBEDDER_KINDS:
                raise ValueError(
                    f"unknown embedder kind {embedder!r}; available: "
                    f"{', '.join(EMBEDDER_KINDS)}"
                )
        elif embed_params:
            raise ValueError("embed_params given without an embedder kind")
        self.embedder_kind = embedder
        self.embed_params = dict(embed_params or {})
        self.dtype = dtype
        # validate eagerly: a bad configuration must fail at
        # construction, not at fit time deep inside a cache miss
        self.canonical_params()

    @classmethod
    def resolve(
        cls,
        transform=None,
        *,
        backend: str = "?",
        stages: tuple = (),
        embedder: "str | None" = None,
        embed_params: "dict | None" = None,
        dtype=None,
    ) -> "FeaturePipeline":
        """Merge the ``transform=`` spelling with the per-stage kwargs.

        ``transform`` is ``None``, an existing :class:`FeaturePipeline`
        (re-validated against this backend's stages), or a dict with
        keys from ``{"embed", "dtype"}``::

            {"embed": "mlp"}                           # kind, default params
            {"embed": {"kind": "mlp", "epochs": 20}}   # kind + params
            {"dtype": "float32"}

        Setting the same stage through both spellings raises — silent
        override would make two different-looking configurations alias
        one cache key.
        """
        if transform is None:
            return cls(
                backend=backend,
                stages=stages,
                embedder=embedder,
                embed_params=embed_params,
                dtype=dtype,
            )
        if isinstance(transform, FeaturePipeline):
            spec = transform.spec()
        elif isinstance(transform, dict):
            spec = dict(transform)
        else:
            raise TypeError(
                "transform must be a dict or FeaturePipeline, got "
                f"{type(transform).__name__}"
            )
        unknown = set(spec) - {"embed", "dtype"}
        if unknown:
            raise ValueError(
                f"unknown transform stages {sorted(unknown)}; allowed: "
                "embed, dtype"
            )

        def conflict(stage, kwarg_name):
            raise ValueError(
                f"transform sets the {stage!r} stage but the "
                f"{kwarg_name} kwarg is also set; use one spelling"
            )

        if "embed" in spec:
            if embedder is not None:
                conflict("embed", "embedder=")
            embed_spec = spec["embed"]
            if isinstance(embed_spec, str):
                embedder, embed_params = embed_spec, {}
            elif isinstance(embed_spec, dict):
                embed_spec = dict(embed_spec)
                try:
                    embedder = embed_spec.pop("kind")
                except KeyError:
                    raise ValueError(
                        "transform embed stage needs a 'kind' entry"
                    ) from None
                embed_params = embed_spec
            else:
                raise TypeError(
                    "transform embed stage must be a kind string or a "
                    f"dict, got {type(embed_spec).__name__}"
                )
        if "dtype" in spec:
            if dtype is not None:
                conflict("dtype", "dtype=")
            dtype = spec["dtype"]
        return cls(
            backend=backend,
            stages=stages,
            embedder=embedder,
            embed_params=embed_params,
            dtype=dtype,
        )

    def spec(self) -> dict:
        """This pipeline as a ``transform=`` dict (resolve's inverse)."""
        spec: dict = {}
        if self.embedder_kind is not None:
            spec["embed"] = {"kind": self.embedder_kind, **self.embed_params}
        if self.dtype is not None:
            spec["dtype"] = self.dtype
        return spec

    def build_embedder(self):
        """A fresh (unfitted) embedder instance, or None without one."""
        if self.embedder_kind is None:
            return None
        from repro.embedding import make_embedder

        return make_embedder(self.embedder_kind, **self.embed_params)

    def canonical_params(self) -> dict:
        """The pipeline's contribution to the owning estimator's params.

        Every stage is absent-by-default (see the module docstring), so
        legacy configurations key exactly as before this seam existed.
        The embed stage keys as ``embedder`` (the kind) plus
        ``embed_params`` — the embedder's *canonicalized* constructor
        kwargs (defaults filled in, seed spellings collapsed), the same
        convention the ensemble backend uses for its children.
        """
        params: dict = {}
        if self.embedder_kind is not None:
            embed_params = dict(self.build_embedder().params)
            embed_params["seed"] = _canonical_seed(embed_params.get("seed", 0))
            params["embedder"] = self.embedder_kind
            params["embed_params"] = dict(sorted(embed_params.items()))
        params.update(_dtype_param(self.dtype))
        return params
