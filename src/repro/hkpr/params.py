"""Parameter objects for (d, eps_r, delta)-approximate HKPR estimation.

The paper's problem statement (Definition 1) is parameterized by

* ``t``      — the heat constant,
* ``eps_r``  — relative error bound on degree-normalized HKPR above ``delta``,
* ``delta``  — the normalized-HKPR significance threshold,
* ``p_f``    — the allowed failure probability.

From these the algorithms derive

* ``p'_f``   — the per-node failure budget (Eq. 6), precomputable per graph,
* ``omega``  — the walk-count coefficient (TEA: Eq. in §4.2, TEA+: §5.3),
* ``K``      — the maximum push hop for HK-Push+ (Eq. 20),
* ``n_p``    — the push budget for HK-Push+ (``omega * t / 2``).

:class:`HKPRParams` holds the four user-facing parameters and exposes the
derived quantities as methods taking the graph (whose ``n`` and ``d̄`` they
depend on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.poisson import check_heat_constant

#: Default heat constant; the paper uses t = 5 following prior work.
DEFAULT_T = 5.0
#: Default relative error threshold used throughout the paper's experiments.
DEFAULT_EPS_R = 0.5
#: Default failure probability used throughout the paper's experiments.
DEFAULT_P_F = 1e-6
#: Default HK-Push+ hop-cap constant; the paper tunes this to 2.5 (Figure 2).
DEFAULT_C = 2.5


def default_delta(graph: Graph) -> float:
    """The paper's per-graph default significance threshold ``delta = 1/n``.

    The single definition every dispatch surface uses when no ``delta`` is
    supplied (guarded for the degenerate n < 2 graphs).
    """
    return 1.0 / max(graph.num_nodes, 2)


def effective_failure_probability(graph: Graph, p_f: float) -> float:
    """Per-node failure budget ``p'_f`` from Equation (6).

    ``p'_f = p_f`` when ``sum_v p_f^(d(v)-1) <= 1``; otherwise it is scaled
    down by that sum so the union bound over all nodes still yields overall
    failure probability at most ``p_f``.  The paper notes this can be
    precomputed once per graph: the (immutable) graph snapshot keeps the
    ``O(n)`` sum of the last ``p_f`` asked for, so a local query does not
    pay it.
    """
    if not 0.0 < p_f < 1.0:
        raise ParameterError(f"failure probability must be in (0, 1), got {p_f}")
    kept = getattr(graph, "_failure_sum", None)
    if kept is not None and kept[0] == p_f:
        total = kept[1]
    else:
        exponents = np.maximum(graph.degrees, 1) - 1
        total = float(np.power(p_f, exponents, dtype=float).sum())
        graph._failure_sum = (p_f, total)
    if total <= 1.0:
        return p_f
    if p_f / total == 0.0:
        raise ParameterError(
            f"failure probability p_f ({p_f:g}) is too small: the per-node "
            f"budget p_f / {total:g} underflows to zero"
        )
    return p_f / total


def checked_walk_ratio(numerator: float, denominator: float, culprits: str) -> float:
    """``numerator / denominator`` of a walk-count formula, kept finite.

    The walk counts divide by powers of the error parameters, and tiny
    in-range values underflow the denominator to zero or push the
    quotient past the float range.  Either raises :class:`ParameterError`
    naming ``culprits`` (the parameters to raise), not ZeroDivisionError
    or an infinite count.
    """
    if denominator > 0.0:
        quotient = numerator / denominator
        if math.isfinite(quotient):
            return quotient
    raise ParameterError(
        f"walk count {numerator:.3g} / {denominator:.3g} is not a finite "
        f"number; raise {culprits}"
    )


@dataclass(frozen=True)
class HKPRParams:
    """User-facing parameters of a (d, eps_r, delta)-approximate HKPR query.

    Examples
    --------
    >>> params = HKPRParams(t=5.0, eps_r=0.5, delta=1e-4, p_f=1e-6)
    >>> params.t
    5.0
    """

    t: float = DEFAULT_T
    eps_r: float = DEFAULT_EPS_R
    delta: float = 1e-4
    p_f: float = DEFAULT_P_F
    c: float = DEFAULT_C

    def __post_init__(self) -> None:
        check_heat_constant(self.t)
        if not 0.0 < self.eps_r < 1.0:
            raise ParameterError(
                f"relative error eps_r must be in (0, 1), got {self.eps_r}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ParameterError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.p_f < 1.0:
            raise ParameterError(f"p_f must be in (0, 1), got {self.p_f}")
        if self.c <= 0:
            raise ParameterError(f"hop-cap constant c must be positive, got {self.c}")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def with_delta(self, delta: float) -> "HKPRParams":
        """Return a copy with a different ``delta`` (used by parameter sweeps)."""
        return replace(self, delta=delta)

    def with_t(self, t: float) -> "HKPRParams":
        """Return a copy with a different heat constant."""
        return replace(self, t=t)

    def scaled_delta(self, graph: Graph) -> float:
        """``delta`` interpreted per-graph: the paper often uses ``delta = 1/n``."""
        return self.delta

    def effective_p_f(self, graph: Graph) -> float:
        """Per-node failure budget ``p'_f`` (Eq. 6) for ``graph``."""
        return effective_failure_probability(graph, self.p_f)

    def omega_tea(self, graph: Graph) -> float:
        """TEA's walk-count coefficient ``omega`` (Algorithm 3, Line 5)."""
        p_prime = self.effective_p_f(graph)
        return checked_walk_ratio(
            2.0 * (1.0 + self.eps_r / 3.0) * math.log(1.0 / p_prime),
            self.eps_r**2 * self.delta,
            self._error_culprits(),
        )

    def omega_tea_plus(self, graph: Graph) -> float:
        """TEA+'s walk-count coefficient ``omega`` (Algorithm 5, Line 5)."""
        p_prime = self.effective_p_f(graph)
        return checked_walk_ratio(
            8.0 * (1.0 + self.eps_r / 6.0) * math.log(1.0 / p_prime),
            self.eps_r**2 * self.delta,
            self._error_culprits(),
        )

    def omega_monte_carlo(self, graph: Graph) -> float:
        """The plain Monte-Carlo walk count from §3 (uses ``log(n / p_f)``)."""
        n = max(graph.num_nodes, 2)
        return checked_walk_ratio(
            2.0 * (1.0 + self.eps_r / 3.0) * math.log(n / self.p_f),
            self.eps_r**2 * self.delta,
            self._error_culprits(),
        )

    def _error_culprits(self) -> str:
        """The parameters in the omega denominators, for error messages."""
        return f"eps_r ({self.eps_r:g}) or delta ({self.delta:g})"

    def max_hop_tea_plus(self, graph: Graph) -> int:
        """HK-Push+'s hop cap ``K = c log(1/(eps_r delta)) / log(d̄)`` (Eq. 20).

        Clamped to at least 1; a graph with average degree <= 1 would make the
        denominator non-positive, in which case we fall back to ``log 2``.
        """
        avg_degree = graph.average_degree
        log_avg = math.log(avg_degree) if avg_degree > 1.0 + 1e-12 else math.log(2.0)
        k = self.c * math.log(1.0 / (self.eps_r * self.delta)) / log_avg
        return max(1, int(math.ceil(k)))

    def push_budget_tea_plus(self, graph: Graph) -> int:
        """HK-Push+'s push budget ``n_p = omega * t / 2`` (Algorithm 5, Line 5)."""
        return max(1, int(math.ceil(self.omega_tea_plus(graph) * self.t / 2.0)))

    def rmax_tea(self, graph: Graph) -> float:
        """TEA's recommended residue threshold ``r_max = 1 / (omega * t)`` (§4.2)."""
        return 1.0 / (self.omega_tea(graph) * self.t)

    def absolute_error_target(self) -> float:
        """The absolute error ``eps_a = eps_r * delta`` used by the early exit."""
        return self.eps_r * self.delta
