"""Heat kernel PageRank estimators.

This package implements the paper's primary contribution (TEA and TEA+,
Algorithms 3 and 5) together with every estimator they are compared against:

* :func:`repro.hkpr.exact.exact_hkpr` — ground-truth power-method HKPR,
* :func:`repro.hkpr.monte_carlo.monte_carlo_hkpr` — plain Monte-Carlo (§3),
* :func:`repro.hkpr.cluster_hkpr.cluster_hkpr` — ClusterHKPR (Chung & Simpson),
* :func:`repro.hkpr.hk_relax.hk_relax` — HK-Relax (Kloster & Gleich),
* :func:`repro.hkpr.hk_push.hk_push` — HK-Push (Algorithm 1),
* :func:`repro.hkpr.tea.tea` — TEA (Algorithm 3),
* :func:`repro.hkpr.hk_push_plus.hk_push_plus` — HK-Push+ (Algorithm 4),
* :func:`repro.hkpr.tea_plus.tea_plus` — TEA+ (Algorithm 5).

All estimators share the :class:`repro.hkpr.params.HKPRParams` parameter
object and return a :class:`repro.hkpr.result.HKPRResult`.
"""

from repro.hkpr.cluster_hkpr import cluster_hkpr
from repro.hkpr.exact import exact_hkpr
from repro.hkpr.hk_push import hk_push, hk_push_hkpr
from repro.hkpr.hk_push_plus import hk_push_plus, hk_push_plus_hkpr
from repro.hkpr.hk_relax import hk_relax
from repro.hkpr.monte_carlo import monte_carlo_hkpr
from repro.hkpr.params import HKPRParams, effective_failure_probability
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.result import HKPRResult
from repro.hkpr.tea import tea
from repro.hkpr.tea_plus import tea_plus

__all__ = [
    "HKPRParams",
    "HKPRResult",
    "PoissonWeights",
    "cluster_hkpr",
    "effective_failure_probability",
    "exact_hkpr",
    "hk_push",
    "hk_push_hkpr",
    "hk_push_plus",
    "hk_push_plus_hkpr",
    "hk_relax",
    "monte_carlo_hkpr",
    "tea",
    "tea_plus",
]
