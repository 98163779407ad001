"""Built-in estimator registrations.

One :func:`~repro.estimators.registry.register` call per method is the
*entire* integration surface: the spec's schema drives validation on every
layer, its function's signature says how it is called (params object,
``rng``, ``backend``, ``deadline``), its plan builder makes a randomized
method servable (a deterministic one is served through the generic
:class:`~repro.estimators.spec.DirectPlan`).  The estimator
implementations themselves stay in
their home modules (:mod:`repro.hkpr`, :mod:`repro.ppr`,
:mod:`repro.baselines`) — the registry only points at them.  A plan
builder is the same one its free function runs, so the library and the
service share one implementation.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.crd import capacity_releasing_diffusion
from repro.baselines.nibble import nibble_hkpr
from repro.baselines.pr_nibble import pr_nibble_hkpr
from repro.baselines.simple_local import simple_local
from repro.engine import MIN_RESTART_ALPHA
from repro.estimators.registry import register
from repro.estimators.spec import EstimatorSpec, ParamSpec, hkpr_base_params
from repro.hkpr.cluster_hkpr import cluster_hkpr, cluster_hkpr_plan
from repro.hkpr.exact import exact_hkpr
from repro.hkpr.hk_push import hk_push_hkpr
from repro.hkpr.hk_push_plus import hk_push_plus_hkpr
from repro.hkpr.hk_relax import hk_relax
from repro.hkpr.monte_carlo import monte_carlo_hkpr, monte_carlo_plan
from repro.hkpr.tea import tea, tea_plan
from repro.hkpr.tea_plus import tea_plus, tea_plus_plan
from repro.ppr.exact import exact_ppr
from repro.ppr.fora import fora, fora_plan, monte_carlo_ppr, monte_carlo_ppr_plan


# ------------------------------------------------------------------ #
# Recurring parameter specs
# ------------------------------------------------------------------ #
_NUM_WALKS = ParamSpec(
    "num_walks", "int", default=None, default_doc="theory-driven",
    minimum=1, doc="override the walk count (guarantee waived)",
)
_MAX_WALKS = ParamSpec(
    "max_walks", "int", default=None, default_doc="unbounded",
    minimum=0, doc="safety cap on walks (guarantee waived when it triggers)",
)
_MAX_PUSHES = ParamSpec(
    "max_pushes", "int", default=None, default_doc="unbounded",
    minimum=1, doc="safety cap on push operations",
)
_ALPHA = ParamSpec(
    "alpha", "float", default=0.15, minimum=0.0, maximum=1.0,
    exclusive_minimum=True, exclusive_maximum=True,
    doc="teleport (restart) probability",
)
# Methods that run restart walks take the engine's floor on alpha.
_RESTART_ALPHA = replace(_ALPHA, minimum=MIN_RESTART_ALPHA, exclusive_minimum=False)
_MAX_HOP = ParamSpec(
    "max_hop", "int", default=None, default_doc="Eq. 20",
    minimum=1, doc="hop cap K",
)
_PUSH_BUDGET = ParamSpec(
    "push_budget", "int", default=None, default_doc="omega*t/2",
    minimum=1, doc="HK-Push+ push budget n_p",
)
_R_MAX = ParamSpec(
    "r_max", "float", default=None, default_doc="cost-balancing",
    minimum=0.0, exclusive_minimum=True, doc="push residue threshold",
)


# ------------------------------------------------------------------ #
# HKPR family
# ------------------------------------------------------------------ #
register(EstimatorSpec(
    name="exact",
    family="hkpr",
    doc="Ground-truth HKPR via the truncated Taylor series / power method.",
    aliases=("exact-hkpr",),
    params=hkpr_base_params() + (
        ParamSpec("tail_tolerance", "float", default=1e-12, minimum=0.0,
                  exclusive_minimum=True, doc="stop once the Poisson tail is below this"),
        ParamSpec("max_iterations", "int", default=None, default_doc="Poisson horizon",
                  minimum=1, doc="cap on Taylor terms"),
    ),
    estimate_fn=exact_hkpr,
))

register(EstimatorSpec(
    name="monte-carlo",
    family="hkpr",
    doc="Plain Monte-Carlo HKPR: Poisson-length walks from the seed (§3).",
    aliases=("mc", "monte-carlo-hkpr"),
    params=hkpr_base_params() + (_NUM_WALKS,),
    estimate_fn=monte_carlo_hkpr,
    plan_fn=monte_carlo_plan,
))

register(EstimatorSpec(
    name="cluster-hkpr",
    family="hkpr",
    doc="ClusterHKPR (Chung & Simpson): hop-truncated Monte-Carlo walks.",
    aliases=("clusterhkpr",),
    params=hkpr_base_params() + (
        ParamSpec("eps", "float", default=None, default_doc="min(eps_r*delta, p_f)",
                  minimum=0.0, maximum=1.0, exclusive_minimum=True,
                  exclusive_maximum=True, doc="single accuracy knob"),
        _NUM_WALKS,
        ParamSpec("max_hop", "int", default=None, default_doc="Poisson tail < eps",
                  minimum=1, doc="walk truncation hop K"),
    ),
    estimate_fn=cluster_hkpr,
    plan_fn=cluster_hkpr_plan,
))

register(EstimatorSpec(
    name="hk-relax",
    family="hkpr",
    doc="HK-Relax (Kloster & Gleich): deterministic Taylor-series push.",
    aliases=("hkrelax",),
    params=hkpr_base_params() + (
        ParamSpec("eps_a", "float", default=None, default_doc="eps_r*delta",
                  minimum=0.0, exclusive_minimum=True,
                  doc="degree-normalized absolute error"),
        _MAX_PUSHES,
    ),
    estimate_fn=hk_relax,
))

register(EstimatorSpec(
    name="hk-push",
    family="hkpr",
    doc="HK-Push (Algorithm 1) reserve alone: deterministic HKPR lower bound.",
    aliases=("hkpush",),
    params=hkpr_base_params() + (
        ParamSpec("r_max", "float", default=None, default_doc="eps_r*delta/K",
                  minimum=0.0, exclusive_minimum=True, doc="push residue threshold"),
        _MAX_PUSHES,
    ),
    estimate_fn=hk_push_hkpr,
))

register(EstimatorSpec(
    name="hk-push+",
    family="hkpr",
    doc="HK-Push+ (Algorithm 4) reserve alone: budgeted, hop-capped push.",
    aliases=("hk-push-plus", "hkpush+"),
    params=hkpr_base_params(include_c=True) + (_PUSH_BUDGET, _MAX_HOP),
    estimate_fn=hk_push_plus_hkpr,
))

register(EstimatorSpec(
    name="tea",
    family="hkpr",
    doc="TEA (Algorithm 3): HK-Push followed by hop-conditioned walks.",
    params=hkpr_base_params() + (
        ParamSpec("r_max", "float", default=None, default_doc="1/(omega*t)",
                  minimum=0.0, exclusive_minimum=True, doc="push residue threshold"),
        _MAX_WALKS,
        _MAX_PUSHES,
    ),
    estimate_fn=tea,
    plan_fn=tea_plan,
))

register(EstimatorSpec(
    name="tea+",
    family="hkpr",
    doc="TEA+ (Algorithm 5): budgeted push, residue reduction, offset, walks.",
    aliases=("tea-plus", "teaplus"),
    params=hkpr_base_params(include_c=True) + (
        _MAX_WALKS,
        ParamSpec("apply_residue_reduction", "bool", default=True,
                  doc="§5.2 residue reduction (ablation switch)"),
        ParamSpec("apply_offset", "bool", default=True,
                  doc="Lines 18-19 offset correction (ablation switch)"),
        _PUSH_BUDGET,
        _MAX_HOP,
    ),
    estimate_fn=tea_plus,
    plan_fn=tea_plus_plan,
))


# ------------------------------------------------------------------ #
# PPR family
# ------------------------------------------------------------------ #
register(EstimatorSpec(
    name="exact-ppr",
    family="ppr",
    doc="Ground-truth personalized PageRank via power iteration.",
    params=(
        _ALPHA,
        ParamSpec("tolerance", "float", default=1e-12, minimum=0.0,
                  exclusive_minimum=True, doc="L1 convergence threshold"),
        ParamSpec("max_iterations", "int", default=1000, minimum=1,
                  maximum=1_000_000,
                  doc="iteration cap before ConvergenceError"),
    ),
    estimate_fn=exact_ppr,
))

register(EstimatorSpec(
    name="fora",
    family="ppr",
    doc="FORA (Wang et al.): forward push plus geometric-length walks.",
    params=(
        _RESTART_ALPHA,
        ParamSpec("eps_r", "float", default=0.5, minimum=0.0, maximum=1.0,
                  exclusive_minimum=True, exclusive_maximum=True,
                  doc="relative error bound"),
        ParamSpec("delta", "float", default=None, default_doc="1/n",
                  minimum=0.0, maximum=1.0, exclusive_minimum=True,
                  exclusive_maximum=True, doc="significance threshold"),
        ParamSpec("p_f", "float", default=1e-6, minimum=0.0, maximum=1.0,
                  exclusive_minimum=True, exclusive_maximum=True,
                  doc="failure probability"),
        _R_MAX,
        _MAX_WALKS,
    ),
    estimate_fn=fora,
    plan_fn=fora_plan,
))

register(EstimatorSpec(
    name="mc-ppr",
    family="ppr",
    doc="Plain Monte-Carlo PPR: restart walks from the seed.",
    aliases=("monte-carlo-ppr",),
    params=(
        _RESTART_ALPHA,
        ParamSpec("num_walks", "int", default=10_000, minimum=1,
                  doc="number of restart walks"),
    ),
    estimate_fn=monte_carlo_ppr,
    plan_fn=monte_carlo_ppr_plan,
))


# ------------------------------------------------------------------ #
# Baselines
# ------------------------------------------------------------------ #
register(EstimatorSpec(
    name="nibble",
    family="baseline",
    doc="Nibble (Spielman & Teng): truncated lazy random-walk diffusion.",
    params=(
        ParamSpec("steps", "int", default=20, minimum=1, maximum=100_000,
                  doc="lazy-walk steps"),
        ParamSpec("truncation", "float", default=1e-5, minimum=0.0,
                  doc="degree-normalized truncation threshold"),
    ),
    estimate_fn=nibble_hkpr,
))

register(EstimatorSpec(
    name="pr-nibble",
    family="baseline",
    doc="PR-Nibble (Andersen-Chung-Lang): approximate-PPR push diffusion.",
    aliases=("ppr-nibble",),
    params=(
        _ALPHA,
        ParamSpec("eps", "float", default=1e-4, minimum=0.0,
                  exclusive_minimum=True, doc="degree-normalized push threshold"),
    ),
    estimate_fn=pr_nibble_hkpr,
))

register(EstimatorSpec(
    name="simple-local",
    family="baseline",
    doc="SimpleLocal: strongly-local flow-based cut improvement.",
    params=(
        ParamSpec("locality", "float", default=0.05, minimum=0.0,
                  exclusive_minimum=True, doc="locality parameter"),
        ParamSpec("max_iterations", "int", default=20, minimum=1,
                  maximum=100_000, doc="improvement iterations"),
    ),
    cluster_fn=simple_local,
))

register(EstimatorSpec(
    name="crd",
    family="baseline",
    doc="Capacity Releasing Diffusion (Wang et al.): flow-based diffusion.",
    aliases=("capacity-releasing-diffusion",),
    params=(
        ParamSpec("iterations", "int", default=10, minimum=1, maximum=100_000,
                  doc="diffusion iterations"),
        ParamSpec("capacity_multiplier", "float", default=4.0, minimum=0.0,
                  exclusive_minimum=True, doc="per-iteration capacity growth"),
        ParamSpec("level_cap", "int", default=None, default_doc="unbounded",
                  minimum=1, doc="cap on flow levels"),
    ),
    cluster_fn=capacity_releasing_diffusion,
))
