"""TEA+ (Algorithm 5): TEA with budgeted push, residue reduction and offset.

TEA+ keeps TEA's two-phase structure but adds the optimizations that make it
practical (§5):

1. **Budgeted, hop-capped push** — HK-Push+ runs with a push budget
   ``n_p = omega * t / 2`` and a hop cap ``K = c log(1/(eps_r delta)) / log(d̄)``.
2. **Early exit (Theorem 2)** — if after the push phase
   ``sum_k max_u r^(k)[u]/d(u) <= eps_r * delta``, the reserve alone is
   already (d, eps_r, delta)-approximate and no walks are performed.
   HK-Push+ tests this between hops and returns the final sum on its
   outcome, so TEA+ reads the verdict instead of rescanning the residues.
3. **Residue reduction (§5.2)** — before walking, every residue
   ``r^(k)[u]`` is reduced by ``beta_k * eps_r * delta * d(u)`` where
   ``beta_k`` is hop ``k``'s share of the residue mass.  Because
   ``sum_k beta_k = 1``, the induced degree-normalized error is at most
   ``eps_r * delta``, and the surviving residue mass (hence the number of
   walks) can drop by orders of magnitude.
4. **Offset correction** — adding ``eps_r * delta / 2 * d(v)`` to every
   estimate recentres the reduction-induced (one-sided) error, halving the
   worst-case absolute error (Lines 18-19).  The offset is stored lazily on
   the result since it never changes the sweep ordering.

Theorem 3 shows the output is (d, eps_r, delta)-approximate with probability
at least ``1 - p_f``, and the expected time is ``O(t log(n/p_f)/(eps_r^2 delta))``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine import Backend, get_backend
from repro.graph.graph import Graph
from repro.hkpr.hk_push_plus import hk_push_plus
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import cached_weights
from repro.hkpr.result import HKPRResult
from repro.hkpr.walk_phase import (
    ResiduePlan,
    answer_many,
    residue_query,
    run_residue_walk_phase,
    start_plan,
)
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng


def tea_plus_plan(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    max_walks: int | None = None,
    apply_residue_reduction: bool = True,
    apply_offset: bool = True,
    push_budget: int | None = None,
    max_hop: int | None = None,
    deadline: Deadline | None = None,
) -> ResiduePlan:
    """TEA+'s deterministic part (Lines 1-11) as a plan: HK-Push+, the
    Theorem-2 early-exit test and the §5.2 residue reduction.

    The surviving residue entries are the walk-start distribution; after
    an early exit the plan has no walks.  See :func:`tea_plus` for the
    parameters.
    """
    started = start_plan(graph, seed_node)
    weights = cached_weights(params.t)
    omega = params.omega_tea_plus(graph)
    budget = push_budget if push_budget is not None else params.push_budget_tea_plus(graph)
    hop_cap = max_hop if max_hop is not None else params.max_hop_tea_plus(graph)

    counters = OperationCounters()
    counters.extras["omega"] = omega
    counters.extras["push_budget"] = float(budget)
    counters.extras["max_hop"] = float(hop_cap)

    push_outcome = hk_push_plus(
        graph,
        seed_node,
        params.eps_r,
        params.delta,
        hop_cap,
        budget,
        weights,
        counters=counters,
        deadline=deadline,
    )
    # Early exit (Theorem 2): the reserve alone already meets the guarantee.
    if push_outcome.satisfied_early_exit:
        return ResiduePlan(
            "tea+", graph, seed_node, counters, started=started,
            reserve=push_outcome.reserve, early_exit=True,
        )

    # Residue reduction (Lines 8-11).
    residues = push_outcome.residues
    if apply_residue_reduction:
        betas = residues.reduce_residues(graph, params.eps_r, params.delta)
        counters.extras["num_reduced_hops"] = float(sum(1 for b in betas if b > 0))

    # Random-walk refinement (Lines 12-17, identical to TEA's walk phase).
    hops, nodes, values = residues.entry_arrays()
    query, increment, alpha = residue_query(
        "heat", nodes, values, omega, max_walks, entry_hops=hops, weights=weights
    )
    counters.extras["alpha"] = alpha
    # Offset correction (Lines 18-19), stored lazily on the result.
    offset = (
        params.eps_r * params.delta / 2.0
        if (apply_offset and apply_residue_reduction)
        else 0.0
    )
    return ResiduePlan(
        "tea+", graph, seed_node, counters, started=started,
        reserve=push_outcome.reserve, query=query, increment=increment,
        offset=offset,
    )


def tea_plus(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    rng: RandomState = None,
    max_walks: int | None = None,
    apply_residue_reduction: bool = True,
    apply_offset: bool = True,
    push_budget: int | None = None,
    max_hop: int | None = None,
    backend: str | Backend | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Estimate the HKPR vector of ``seed_node`` with TEA+ (Algorithm 5).

    Parameters
    ----------
    graph, seed_node, params:
        The (d, eps_r, delta, p_f) query; ``params.c`` controls the hop cap.
    rng:
        Seed or generator for the walk phase.
    max_walks:
        Optional safety cap on the number of walks (guarantee waived when it
        triggers).
    apply_residue_reduction, apply_offset:
        Ablation switches for the §5.2 residue reduction and the Lines-18/19
        offset.  Both default to the paper's behaviour; the ablation
        benchmark disables them individually.
    push_budget, max_hop:
        Overrides for ``n_p`` and ``K`` (defaults follow Algorithm 5, Line 5).
    backend:
        Execution backend for the walk phase (name, instance, or ``None``
        for the process default; see :mod:`repro.engine`).
    deadline:
        Optional cooperative :class:`~repro.utils.Deadline`, threaded
        through both the push phase (checked once per hop) and the chunked
        walk phase.

    Returns
    -------
    HKPRResult
        ``early_exit`` is set when Theorem 2 allowed returning without walks;
        ``offset_per_degree`` carries the lazy offset coefficient.
    """
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    plan = tea_plus_plan(
        graph, seed_node, params, max_walks=max_walks,
        apply_residue_reduction=apply_residue_reduction,
        apply_offset=apply_offset, push_budget=push_budget, max_hop=max_hop,
        deadline=deadline,
    )
    plan.counters.extras["backend"] = engine.name
    if plan.query is not None:
        run_residue_walk_phase(plan, engine=engine, rng=generator, deadline=deadline)
    return plan.finalize()


def tea_plus_many(
    graph: Graph,
    seeds: Sequence[int],
    params: HKPRParams,
    *,
    rng: RandomState = None,
    max_walks: int | None = None,
    backend: str | Backend | None = None,
    **plan_kwargs,
) -> dict[int, HKPRResult]:
    """TEA+ for every seed in ``seeds`` with residue walks fused per batch.

    Push phases run per seed (they are deterministic and query-specific);
    the hop-conditioned walk phases of all non-early-exit seeds share
    ``walk_batch`` calls (:func:`repro.hkpr.walk_phase.answer_many`).
    ``plan_kwargs`` are :func:`tea_plus_plan`'s.
    """
    return answer_many(
        graph, seeds,
        lambda seed: tea_plus_plan(
            graph, seed, params, max_walks=max_walks, **plan_kwargs
        ),
        rng=rng, backend=backend,
    )
