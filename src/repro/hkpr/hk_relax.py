"""HK-Relax (Kloster & Gleich, KDD 2014) — deterministic Taylor-series push.

HK-Relax approximates the HKPR vector by relaxing the truncated Taylor
expansion

    rho_s ≈ e^{-t} * sum_{j=0}^{N} (t^j / j!) * (A D^{-1})^j e_s

with a coordinate-push scheme.  It keeps one residual vector per Taylor
level ``j``.  Pushing level-``j`` residual ``r_j(v)`` adds it to the solution
``x(v)`` and forwards ``t/(j+1) * r_j(v) / d(v)`` to each neighbor at level
``j + 1``; levels beyond ``N`` are dropped.  The push threshold

    r_j(v) >= e^t * eps_a * d(v) / (2 N psi_j(t)),
    psi_j(t) = sum_{m=0}^{N-j} t^m * j! / (j+m)!,

guarantees a degree-normalized absolute error below ``eps_a`` and a running
time of ``O(t e^t log(1/eps_a) / eps_a)`` — the ``e^t`` factor that motivates
the TEA/TEA+ algorithms.  ``psi_j`` is what a level-``j`` residual still
carries of the series: each push multiplies it by ``t/(j+1)``.

Scaled by ``e^{-t} psi_j``, this is HK-Push on the ``N``-truncated series,
so it runs on the layered push (:func:`repro.hkpr.hk_push.layered_push`):
level ``j`` settles a ``1/psi_j`` fraction of its residue (``psi_N = 1``),
every level pushes residue above the per-degree threshold ``eps_a / (2N)``
(strictly above, as every layered push does), and the seed starts with
``e^{-t} psi_0``.  The reserve is then the HKPR estimate itself.
Like every layered push, an isolated node settles all of its residue, so
an isolated seed gets ``e^{-t} psi_0 >= 1 - eps_a/2``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.hk_push import layered_push
from repro.hkpr.params import HKPRParams
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline

#: Default degree-normalized absolute error when none is supplied.
DEFAULT_EPS_A = 1e-4


def taylor_degree(t: float, eps_a: float) -> int:
    """Smallest Taylor truncation ``N`` with tail error below ``eps_a / 2``.

    The dropped tail ``e^{-t} sum_{j>N} t^j/j!`` must be at most ``eps_a/2``
    so that, combined with the push threshold, the total degree-normalized
    error stays below ``eps_a``.
    """
    if eps_a <= 0:
        raise ParameterError(f"eps_a must be positive, got {eps_a}")
    term = math.exp(-t)
    cumulative = term
    n = 0
    target = 1.0 - eps_a / 2.0
    while cumulative < target:
        n += 1
        term *= t / n
        cumulative += term
        if n > 100000:  # pragma: no cover - defensive bound
            break
    return max(1, n)


def _psi_table(t: float, degree: int) -> np.ndarray:
    """``psi_j(t) = sum_{m=0}^{N-j} t^m j!/(j+m)!`` for j = 0..N (Kloster & Gleich).

    By the recurrence ``psi_N = 1``, ``psi_j = 1 + t/(j+1) * psi_{j+1}``.
    """
    psi = np.ones(degree + 1)
    for j in range(degree - 1, -1, -1):
        psi[j] = 1.0 + t / (j + 1) * psi[j + 1]
    return psi


def hk_relax(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    eps_a: float | None = None,
    max_pushes: int | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Estimate the HKPR vector of ``seed_node`` with HK-Relax.

    Parameters
    ----------
    eps_a:
        Degree-normalized absolute error threshold (the method's single
        accuracy knob).  Defaults to ``eps_r * delta`` so that HK-Relax is
        comparable to the (d, eps_r, delta) estimators, matching how §3
        discusses using it for that guarantee.
    max_pushes:
        Optional safety cap on push operations (the guarantee is waived when
        the cap triggers, reported via ``counters.extras["push_cap_hit"]``);
        exactly ``max_pushes`` pushes are made when it does.  ``None``
        means run to completion.
    deadline:
        Optional cooperative :class:`~repro.utils.Deadline`; checked once
        per Taylor level with the level's pushed degree as the cost.
    """
    start = time.perf_counter()
    t = params.t
    eps_value = eps_a if eps_a is not None else params.absolute_error_target()
    if eps_value <= 0:
        raise ParameterError(f"eps_a must be positive, got {eps_value}")
    if max_pushes is not None and max_pushes < 1:
        raise ParameterError(f"max_pushes must be >= 1, got {max_pushes}")

    degree_n = taylor_degree(t, eps_value)
    psi = _psi_table(t, degree_n)
    counters = OperationCounters()
    counters.extras["taylor_degree"] = float(degree_n)
    outcome = layered_push(
        graph,
        seed_node,
        1.0 / psi,
        eps_value / (2.0 * degree_n),
        start_mass=math.exp(-t) * psi[0],
        budget=max_pushes,
        exact_budget=True,
        counters=counters,
        deadline=deadline,
    )
    if outcome.budget_exhausted:
        counters.extras["push_cap_hit"] = 1.0
    return HKPRResult(
        estimates=outcome.reserve,
        seed=seed_node,
        method="hk-relax",
        counters=counters,
        elapsed_seconds=time.perf_counter() - start,
    )
