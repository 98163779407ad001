"""Unified estimator registry — one declarative query API for every surface.

Every estimation method in the package (the paper's TEA/TEA+, their push
primitives, the Monte-Carlo and deterministic baselines, the PPR mirror
methods, and the classic local-clustering baselines) registers one
:class:`EstimatorSpec` here: name + aliases, a declarative parameter
schema, capability flags, a serving-layer plan builder and an
admission-control walk estimate.  The high-level clustering API, the
online service, the CLI and the benchmark harness all dispatch through
this registry, so *one registration* lights up every surface at once.

Quickstart
----------
>>> from repro.estimators import estimate, method_names
>>> from repro.graph.generators import ring_graph
>>> result = estimate(ring_graph(30), 0, method="tea+", rng=7)
>>> result.method
'tea+'
>>> "hk-push+" in method_names()
True
"""

from repro.estimators.registry import (
    alias_table,
    all_specs,
    canonical_name,
    describe_methods,
    method_names,
    register,
    resolve,
    unregister,
)
from repro.estimators.spec import DirectPlan, EstimatorSpec, ParamSpec

# Importing the catalog performs the built-in registrations.
from repro.estimators import catalog as _catalog  # noqa: E402,F401
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams
from repro.hkpr.result import HKPRResult
from repro.utils.rng import RandomState


def estimate(
    graph: Graph,
    seed_node: int,
    *,
    method: str = "tea+",
    params: HKPRParams | None = None,
    rng: RandomState = None,
    backend: str | None = None,
    **estimator_kwargs,
) -> HKPRResult:
    """Answer one diffusion query through the registry (the declarative API).

    ``method`` may be a canonical name or an alias; ``estimator_kwargs``
    are the method's declared knobs (see ``repro-cli methods`` or
    :func:`describe_methods`).  Returns the unified
    :class:`~repro.hkpr.result.HKPRResult` envelope.

    Examples
    --------
    >>> from repro.graph.generators import ring_graph
    >>> estimate(ring_graph(20), 0, method="monte-carlo", rng=3,
    ...          num_walks=100).counters.random_walks
    100
    """
    spec = resolve(method)
    return spec.estimate(
        graph,
        seed_node,
        params=params,
        rng=rng,
        estimator_kwargs=estimator_kwargs,
        backend=backend,
    )


__all__ = [
    "DirectPlan",
    "EstimatorSpec",
    "ParamSpec",
    "alias_table",
    "all_specs",
    "canonical_name",
    "describe_methods",
    "estimate",
    "method_names",
    "register",
    "resolve",
    "unregister",
]
