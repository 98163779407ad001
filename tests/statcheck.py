"""Reusable statistical verification harness for walk-execution backends.

Every registered backend must satisfy the same three invariants (see
ARCHITECTURE.md, "Invariants a new backend must satisfy").  This module
turns them into callable checks so that ``tests/test_engine.py`` can
parametrize the whole contract over :func:`repro.engine.available_backends`
— a future backend is fully tested by registration alone.

Three layers:

* **Chi-square goodness of fit** (:func:`chi_square_gof`) — pooled Pearson
  test of observed endpoint counts against an exact law, with bins whose
  expectation falls below ``min_expected`` folded together, as the SIGNAL
  methodology prescribes for validating an optimized engine against a
  formal baseline.
* **Exact endpoint laws** — closed-form endpoint distributions of the three
  walk primitives computed by dense matrix iteration
  (:func:`hop_conditioned_probs`, :func:`poisson_probs`,
  :func:`geometric_probs`).  The estimator-level checks instead use the
  independent implementations :func:`repro.hkpr.exact.exact_hkpr` and
  :func:`repro.ppr.exact.exact_ppr` as ground truth, so the harness and the
  estimators cannot share a bug.
* **Checks** — kernel-level distribution checks
  (:func:`check_kernel_distributions`), fused-group checks through
  :func:`repro.engine.fused.run_fused_queries`
  (:func:`check_fused_distributions`), estimator-level walk-phase checks
  for TEA / TEA+ / Monte-Carlo HKPR / FORA
  (:func:`check_estimator_walk_parity`), and the deterministic parts of the
  contract: counter accounting (:func:`check_counter_accounting`) and shape
  discipline (:func:`check_shape_discipline`).

All checks take explicit seeds, so a passing configuration is a regression
test, not a flaky coin flip: the chi-square statistic for a fixed seed is a
deterministic number, and ``DEFAULT_SIGNIFICANCE`` leaves orders of
magnitude of margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.exact import exact_hkpr
from repro.hkpr.monte_carlo import monte_carlo_hkpr
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.tea import tea
from repro.hkpr.tea_plus import tea_plus
from repro.ppr.exact import exact_ppr
from repro.ppr.fora import fora
from repro.utils.counters import OperationCounters

#: Estimators with a randomized walk phase covered by the parity harness.
ESTIMATOR_CHECKS = ("tea", "tea+", "monte-carlo", "fora")

#: A correct backend produces p-values uniform on [0, 1]; rejecting below
#: 1e-6 keeps the false-alarm rate of the whole suite negligible while a
#: genuinely wrong distribution drives the p-value to ~0.
DEFAULT_SIGNIFICANCE = 1e-6


@dataclass
class ChiSquareResult:
    """Outcome of one pooled chi-square goodness-of-fit test."""

    statistic: float
    dof: int
    pvalue: float
    num_samples: int

    def assert_ok(
        self, *, significance: float = DEFAULT_SIGNIFICANCE, context: str = ""
    ) -> "ChiSquareResult":
        """Fail the test when the observed counts reject the exact law."""
        label = f" [{context}]" if context else ""
        assert self.pvalue >= significance, (
            f"chi-square rejects the exact endpoint law{label}: "
            f"statistic={self.statistic:.2f}, dof={self.dof}, "
            f"pvalue={self.pvalue:.3g} < {significance:g} "
            f"({self.num_samples} samples)"
        )
        return self


def chi_square_gof(
    counts, probs, *, min_expected: float = 5.0
) -> ChiSquareResult:
    """Pooled Pearson chi-square test of ``counts`` against law ``probs``.

    Bins whose expected count falls below ``min_expected`` are pooled into
    one tail bin (folded into the smallest retained bin when the pooled
    expectation is itself below the threshold), the standard validity
    condition for the chi-square approximation.  ``probs`` is clipped to
    non-negative and renormalized, so callers may pass laws with tiny
    negative float residue.
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape:
        raise ValueError(
            f"counts and probs must have the same shape, got "
            f"{counts.shape} vs {probs.shape}"
        )
    total = counts.sum()
    if total <= 0:
        raise ValueError("chi-square needs at least one observed sample")
    probs = np.clip(probs, 0.0, None)
    mass = probs.sum()
    if mass <= 0:
        raise ValueError("the expected law has no mass")
    expected = probs * (total / mass)

    retained = expected >= min_expected
    if not retained.any():
        raise ValueError(
            f"sample too small for a chi-square test: no bin reaches an "
            f"expected count of {min_expected} (total {total:.0f} samples)"
        )
    observed_kept = counts[retained].copy()
    expected_kept = expected[retained].copy()
    tail_observed = counts[~retained].sum()
    tail_expected = expected[~retained].sum()
    if tail_expected >= min_expected:
        observed_kept = np.append(observed_kept, tail_observed)
        expected_kept = np.append(expected_kept, tail_expected)
    elif tail_expected > 0 or tail_observed > 0:
        smallest = int(np.argmin(expected_kept))
        observed_kept[smallest] += tail_observed
        expected_kept[smallest] += tail_expected

    statistic = float(((observed_kept - expected_kept) ** 2 / expected_kept).sum())
    dof = max(observed_kept.size - 1, 1)
    pvalue = float(stats.chi2.sf(statistic, dof))
    return ChiSquareResult(statistic, dof, pvalue, int(total))


# ---------------------------------------------------------------------- #
# Exact endpoint laws of the three kernels (dense, for small graphs)
# ---------------------------------------------------------------------- #
def transition_matrix(graph: Graph) -> np.ndarray:
    """Dense random-walk matrix ``P`` with absorbing rows at isolated nodes.

    The kernels stop a walk that reaches a degree-0 node, which for the
    *endpoint* law is exactly a self-loop (the walk stays there forever).
    """
    n = graph.num_nodes
    P = np.zeros((n, n))
    degrees = graph.degrees
    for u in range(n):
        if degrees[u] == 0:
            P[u, u] = 1.0
        else:
            P[u, graph.indices[graph.indptr[u]: graph.indptr[u + 1]]] = (
                1.0 / degrees[u]
            )
    return P


def hop_conditioned_probs(
    graph: Graph, start: int, hop: int, weights: PoissonWeights
) -> np.ndarray:
    """Endpoint law of the hop-``hop`` heat kernel walk from ``start``.

    ``h_u^(k)[v] = sum_{l >= k} (eta(l) / psi(k)) P^{l-k}[u, v]`` with the
    kernel's truncation: at ``max_hop`` the walk is forced to stop.
    """
    if hop < 0:
        raise ParameterError(f"hop offset must be non-negative, got {hop}")
    n = graph.num_nodes
    if hop >= weights.max_hop:
        law = np.zeros(n)
        law[start] = 1.0
        return law
    P = transition_matrix(graph)
    psi_hop = weights.psi(hop)
    current = np.zeros(n)
    current[start] = 1.0
    law = np.zeros(n)
    for level in range(hop, weights.max_hop):
        law += (weights.eta(level) / psi_hop) * current
        current = current @ P
    law += (weights.psi(weights.max_hop) / psi_hop) * current
    return law


def poisson_probs(
    graph: Graph,
    start: int,
    weights: PoissonWeights,
    *,
    max_length: int | None = None,
) -> np.ndarray:
    """Endpoint law of a Poisson(t)-length walk from ``start``.

    With ``max_length`` the length is clamped, so all tail mass beyond it
    lands on ``P^{max_length}``; without it this is the HKPR vector of
    ``start`` (up to the Poisson truncation tolerance).
    """
    n = graph.num_nodes
    P = transition_matrix(graph)
    horizon = weights.max_hop if max_length is None else min(max_length, weights.max_hop)
    current = np.zeros(n)
    current[start] = 1.0
    law = np.zeros(n)
    for length in range(horizon):
        law += weights.eta(length) * current
        current = current @ P
    law += weights.psi(horizon) * current
    return law


def geometric_probs(graph: Graph, start: int, alpha: float, *, tol: float = 1e-12) -> np.ndarray:
    """Endpoint law of an ``alpha``-restart walk from ``start`` (its PPR vector)."""
    n = graph.num_nodes
    P = transition_matrix(graph)
    current = np.zeros(n)
    current[start] = 1.0
    law = np.zeros(n)
    survival = 1.0
    while survival > tol:
        law += alpha * survival * current
        current = current @ P
        survival *= 1.0 - alpha
    law += survival * current
    return law


# ---------------------------------------------------------------------- #
# Kernel-level distribution checks
# ---------------------------------------------------------------------- #
def endpoint_counts(ends: np.ndarray, num_nodes: int) -> np.ndarray:
    """Histogram walk endpoints over all nodes."""
    return np.bincount(ends, minlength=num_nodes).astype(float)


def check_kernel_distributions(
    backend,
    graph: Graph,
    *,
    weights: PoissonWeights | None = None,
    start: int = 0,
    hops: tuple[int, ...] = (0, 2),
    restart_alpha: float = 0.2,
    poisson_max_length: int | None = None,
    num_walks: int = 12_000,
    seed: int = 4242,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> dict[str, ChiSquareResult]:
    """Chi-square every kernel of ``backend`` against its exact law.

    Returns the per-kernel :class:`ChiSquareResult` (after asserting each),
    so callers can log the actual statistics.
    """
    if weights is None:
        weights = PoissonWeights(5.0)
    n = graph.num_nodes
    starts = np.full(num_walks, start, dtype=np.int64)
    rng = np.random.default_rng(seed)
    results: dict[str, ChiSquareResult] = {}

    for hop in hops:
        ends = backend.walk_batch(
            graph, starts, np.full(num_walks, hop, dtype=np.int64), weights, rng
        )
        results[f"walk_batch[hop={hop}]"] = chi_square_gof(
            endpoint_counts(ends, n), hop_conditioned_probs(graph, start, hop, weights)
        ).assert_ok(
            significance=significance,
            context=f"{backend.name}: walk_batch hop={hop}",
        )

    ends = backend.poisson_walk_batch(
        graph, starts, weights, rng, max_length=poisson_max_length
    )
    results["poisson_walk_batch"] = chi_square_gof(
        endpoint_counts(ends, n),
        poisson_probs(graph, start, weights, max_length=poisson_max_length),
    ).assert_ok(
        significance=significance, context=f"{backend.name}: poisson_walk_batch"
    )

    ends = backend.geometric_walk_batch(graph, starts, restart_alpha, rng)
    results["geometric_walk_batch"] = chi_square_gof(
        endpoint_counts(ends, n), geometric_probs(graph, start, restart_alpha)
    ).assert_ok(
        significance=significance, context=f"{backend.name}: geometric_walk_batch"
    )
    return results


# ---------------------------------------------------------------------- #
# Fused-group checks (starts drawn from residue mixtures, any backend)
# ---------------------------------------------------------------------- #
def fused_mixture_law(
    graph: Graph,
    kind: str,
    entry_nodes,
    entry_weights,
    *,
    entry_hops=None,
    weights: PoissonWeights | None = None,
    alpha: float = 0.2,
    max_length: int | None = None,
) -> np.ndarray:
    """Exact endpoint law of one fused query: the residue-weighted mixture.

    A fused query samples each walk's start from its (normalized) entry
    distribution and then runs the ordinary walk primitive, so the exact
    endpoint law is the convex mixture of the per-entry laws — computed
    here from the same dense iterations the per-kernel checks use.
    """
    entry_nodes = np.asarray(entry_nodes, dtype=np.int64)
    entry_weights = np.asarray(entry_weights, dtype=np.float64)
    probs = entry_weights / entry_weights.sum()
    law = np.zeros(graph.num_nodes)
    for index, (node, p) in enumerate(zip(entry_nodes, probs)):
        if kind == "heat":
            hop = int(entry_hops[index])
            law += p * hop_conditioned_probs(graph, int(node), hop, weights)
        elif kind == "poisson":
            law += p * poisson_probs(
                graph, int(node), weights, max_length=max_length
            )
        elif kind == "geometric":
            law += p * geometric_probs(graph, int(node), alpha)
        else:
            raise ValueError(f"unknown fused kind {kind!r}")
    return law


def check_fused_distributions(
    backend,
    graph: Graph,
    *,
    weights: PoissonWeights | None = None,
    restart_alpha: float = 0.2,
    num_walks: int = 12_000,
    seed: int = 2025,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> dict[str, ChiSquareResult]:
    """Chi-square every fused kernel of ``backend`` against its mixture law.

    Two queries per kind are submitted in one :func:`run_fused_queries`
    call (one multi-entry, one single-entry), so start sampling, the
    per-query offset-CDF segmentation and endpoint splitting are all on the
    tested path.
    """
    from repro.engine.fused import FusedQuery, run_fused_queries

    if weights is None:
        weights = PoissonWeights(5.0)
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    # A lopsided multi-entry residue distribution over distinct nodes.
    entry_nodes = np.array([0, 1 % n, 2 % n], dtype=np.int64)
    entry_weights = np.array([0.6, 0.3, 0.1])
    entry_hops = np.array([0, 2, 1], dtype=np.int64)

    cases = {
        "heat": dict(weights=weights, entry_hops=entry_hops),
        "poisson": dict(weights=weights),
        "geometric": dict(alpha=restart_alpha),
    }
    results: dict[str, ChiSquareResult] = {}
    for kind, kwargs in cases.items():
        queries = [
            FusedQuery(kind, entry_nodes, entry_weights, num_walks, **kwargs),
            FusedQuery(
                kind,
                [int(entry_nodes[0])],
                [1.0],
                num_walks,
                **{
                    key: (value[:1] if key == "entry_hops" else value)
                    for key, value in kwargs.items()
                },
            ),
        ]
        endpoints = run_fused_queries(backend, graph, queries, rng)
        laws = [
            fused_mixture_law(graph, kind, entry_nodes, entry_weights, **kwargs),
            fused_mixture_law(
                graph, kind, entry_nodes[:1], entry_weights[:1],
                **{
                    key: (value[:1] if key == "entry_hops" else value)
                    for key, value in kwargs.items()
                },
            ),
        ]
        for which, (ends, law) in enumerate(zip(endpoints, laws)):
            assert ends.size == num_walks
            label = "multi" if which == 0 else "single"
            results[f"fused_{kind}[{label}]"] = chi_square_gof(
                endpoint_counts(ends, n), law
            ).assert_ok(
                significance=significance,
                context=f"{getattr(backend, 'name', backend)}: fused {kind} ({label})",
            )
    return results


# ---------------------------------------------------------------------- #
# Estimator-level walk-phase parity (TEA / TEA+ / Monte-Carlo / FORA)
# ---------------------------------------------------------------------- #
def _run_estimator(
    estimator: str,
    graph: Graph,
    backend,
    *,
    seed_node: int,
    max_walks: int,
    rng,
):
    """One estimator run in the harness's fixed configuration.

    The configurations guarantee the walk phase actually runs (no TEA+
    Theorem-2 early exit, minimal push budgets) so the parity check is
    never vacuous.
    """
    if estimator == "monte-carlo":
        params = HKPRParams(
            t=5.0, eps_r=0.5, delta=1.0 / max(graph.num_nodes, 2), p_f=1e-6
        )
        return monte_carlo_hkpr(
            graph, seed_node, params, rng=rng,
            num_walks=max(max_walks, 1), backend=backend,
        )
    if estimator == "tea":
        params = HKPRParams(
            t=5.0, eps_r=0.5, delta=1.0 / max(graph.num_nodes, 2), p_f=1e-6
        )
        return tea(
            graph, seed_node, params, r_max=0.002, rng=rng,
            max_walks=max_walks, backend=backend,
        )
    if estimator == "tea+":
        # A bounded push budget and no residue reduction keep residues (and
        # hence walks) on every harness graph while still producing a
        # non-trivial reserve, so the q-subtraction path is exercised with
        # a push state distinct from TEA's.
        return tea_plus(
            graph, seed_node,
            HKPRParams(t=5.0, eps_r=0.2, delta=1e-4, p_f=1e-6),
            rng=rng, max_walks=max_walks, push_budget=200,
            apply_residue_reduction=False, apply_offset=False,
            backend=backend,
        )
    if estimator == "fora":
        # An explicit r_max leaves substantial residual mass so the walk
        # phase dominates (the cost-balancing default pushes so far that
        # only a handful of walks remain on small graphs).
        return fora(
            graph, seed_node, alpha=0.2, eps_r=0.5, r_max=0.01, rng=rng,
            max_walks=max_walks, backend=backend,
        )
    raise ValueError(f"unknown estimator {estimator!r}")


def walk_phase_chi_square(
    estimator: str,
    graph: Graph,
    backend,
    *,
    seed_node: int = 0,
    max_walks: int = 6000,
    rng_seed: int = 20_24,
) -> ChiSquareResult:
    """Chi-square the walk-phase endpoint counts of one estimator run.

    Exploits the push invariant (Lemma 1 for HKPR, its FORA analogue for
    PPR): after the deterministic push phase with reserve ``q`` and residue
    mass ``alpha``, the endpoint of each walk is distributed as
    ``(exact - q) / alpha``.  Running the estimator once with
    ``max_walks=0`` isolates ``q``; the walk endpoint counts are then
    recovered as ``(estimate - q) / increment`` and tested against the
    exact law — for *any* backend, using the independent
    ``exact_hkpr`` / ``exact_ppr`` implementations as ground truth.
    """
    base = _run_estimator(
        estimator, graph, backend, seed_node=seed_node, max_walks=0, rng=0
    )
    full = _run_estimator(
        estimator, graph, backend,
        seed_node=seed_node, max_walks=max_walks, rng=rng_seed,
    )
    num_walks = full.counters.random_walks
    assert num_walks > 0, (
        f"{estimator} performed no walks on this configuration; "
        "the parity check would be vacuous"
    )

    if estimator == "monte-carlo":
        residual_mass = 1.0
        base_dense = np.zeros(graph.num_nodes)
    else:
        mass_key = "alpha_mass" if estimator == "fora" else "alpha"
        residual_mass = float(full.counters.extras[mass_key])
        base_dense = base.to_dense(graph, include_offset=False)
    increment = residual_mass / num_walks
    counts = (full.to_dense(graph, include_offset=False) - base_dense) / increment
    counts = np.clip(np.rint(counts), 0.0, None)

    if estimator == "fora":
        exact_dense = exact_ppr(graph, seed_node, alpha=0.2).to_dense(graph)
    else:
        params = HKPRParams(t=5.0, eps_r=0.5, delta=0.01, p_f=1e-6)
        exact_dense = exact_hkpr(graph, seed_node, params).to_dense(graph)
    law = np.clip(exact_dense - base_dense, 0.0, None)
    return chi_square_gof(counts, law)


def check_estimator_walk_parity(
    estimator: str,
    graph: Graph,
    backend,
    *,
    seed_node: int = 0,
    max_walks: int = 6000,
    rng_seed: int = 20_24,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> ChiSquareResult:
    """Assert the estimator's walk phase matches the exact law under ``backend``."""
    name = getattr(backend, "name", backend)
    return walk_phase_chi_square(
        estimator, graph, backend,
        seed_node=seed_node, max_walks=max_walks, rng_seed=rng_seed,
    ).assert_ok(significance=significance, context=f"{name}: {estimator}")


# ---------------------------------------------------------------------- #
# Deterministic contract checks: counters and shapes
# ---------------------------------------------------------------------- #
def check_counter_accounting(
    backend,
    *,
    weights: PoissonWeights | None = None,
    num_walks: int = 2000,
    restart_alpha: float = 0.25,
    seed: int = 77,
) -> None:
    """Invariant 2: walks and steps are accounted exactly.

    * ``random_walks`` grows by the batch size for every kernel, on top of
      whatever the counters already hold;
    * walks from isolated nodes and zero-length walks contribute 0 steps;
    * mean step counts match the walk-length laws (Poisson mean ``t``,
      geometric mean ``(1 - alpha) / alpha``) within wide tolerances.
    """
    if weights is None:
        weights = PoissonWeights(5.0)
    graph = Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)])
    starts = np.zeros(num_walks, dtype=np.int64)
    rng = np.random.default_rng(seed)

    counters = OperationCounters(random_walks=5, walk_steps=9)
    backend.walk_batch(graph, starts, starts, weights, rng, counters=counters)
    assert counters.random_walks == 5 + num_walks
    hop_steps = counters.walk_steps - 9
    assert 0 < hop_steps / num_walks < weights.t + 2.0

    counters = OperationCounters()
    backend.poisson_walk_batch(graph, starts, weights, rng, counters=counters)
    assert counters.random_walks == num_walks
    np.testing.assert_allclose(
        counters.walk_steps / num_walks, weights.t, rtol=0.25
    )

    counters = OperationCounters()
    backend.poisson_walk_batch(
        graph, starts, weights, rng, max_length=0, counters=counters
    )
    assert counters.random_walks == num_walks
    assert counters.walk_steps == 0

    counters = OperationCounters()
    backend.geometric_walk_batch(
        graph, starts, restart_alpha, rng, counters=counters
    )
    assert counters.random_walks == num_walks
    expected_moves = (1.0 - restart_alpha) / restart_alpha
    np.testing.assert_allclose(
        counters.walk_steps / num_walks, expected_moves, rtol=0.25
    )

    isolated = Graph(4, [(1, 2)])
    counters = OperationCounters()
    zeros = np.zeros(50, dtype=np.int64)
    assert (backend.walk_batch(isolated, zeros, zeros, weights, rng, counters=counters) == 0).all()
    assert (backend.poisson_walk_batch(isolated, zeros, weights, rng, counters=counters) == 0).all()
    assert (backend.geometric_walk_batch(isolated, zeros, restart_alpha, rng, counters=counters) == 0).all()
    assert counters.random_walks == 150
    assert counters.walk_steps == 0


def check_shape_discipline(
    backend,
    *,
    weights: PoissonWeights | None = None,
    restart_alpha: float = 0.2,
    seed: int = 31,
) -> None:
    """Invariant 3: one int64 endpoint per walk, in order; empty is free.

    Order preservation is observable without fixing streams: on a graph of
    two disconnected cliques, every endpoint must lie in the component of
    its start node, position by position.
    """
    if weights is None:
        weights = PoissonWeights(5.0)
    # Two 5-cliques: nodes 0-4 and 5-9.
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    graph = Graph(10, edges)
    rng = np.random.default_rng(seed)

    # Empty batches: empty int64 result, nothing drawn from rng.
    empty = np.empty(0, dtype=np.int64)
    for ends in (
        backend.walk_batch(graph, empty, empty, weights, rng),
        backend.poisson_walk_batch(graph, empty, weights, rng),
        backend.geometric_walk_batch(graph, empty, restart_alpha, rng),
    ):
        assert ends.size == 0
        assert ends.dtype == np.int64
    assert rng.random() == np.random.default_rng(seed).random()

    # Per-walk order: alternating components must map back per position.
    starts = np.tile(np.array([0, 7], dtype=np.int64), 400)
    for ends in (
        backend.walk_batch(graph, starts, 0, weights, rng),
        backend.poisson_walk_batch(graph, starts, weights, rng),
        backend.geometric_walk_batch(graph, starts, restart_alpha, rng),
    ):
        assert ends.shape == starts.shape
        assert ends.dtype == np.int64
        assert ((ends < 5) == (starts < 5)).all(), (
            f"{backend.name}: walks crossed between disconnected components "
            "or endpoints are out of order"
        )

    # Scalar hop offsets broadcast.
    ends = backend.walk_batch(graph, np.zeros(7, dtype=np.int64), 0, weights, rng)
    assert ends.shape == (7,)

    # Invalid inputs are rejected with ParameterError, not raw IndexError.
    for bad in (np.array([-1]), np.array([10]), np.array([2, 99, 3])):
        for call in (
            lambda b=bad: backend.walk_batch(graph, b, np.zeros_like(b), weights, rng),
            lambda b=bad: backend.poisson_walk_batch(graph, b, weights, rng),
            lambda b=bad: backend.geometric_walk_batch(graph, b, restart_alpha, rng),
        ):
            try:
                call()
            except ParameterError:
                continue
            raise AssertionError(
                f"{backend.name} accepted out-of-range start nodes {bad}"
            )
    try:
        backend.walk_batch(graph, np.array([0]), np.array([-1]), weights, rng)
    except ParameterError:
        pass
    else:
        raise AssertionError(f"{backend.name} accepted a negative hop offset")
