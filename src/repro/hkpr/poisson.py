"""Poisson hop-length weights used by heat kernel PageRank.

HKPR weights a ``k``-hop random-walk transition by the Poisson probability

    eta(k) = exp(-t) * t**k / k!                                (Eq. 1)

and the push/walk algorithms additionally need the Poisson tail

    psi(k) = sum_{l >= k} eta(l)                                (Eq. 3)

which is the probability that a walk survives to hop ``k`` or beyond.  The
ratio ``eta(k) / psi(k)`` is the probability that a walk which reached hop
``k`` terminates exactly there; this is the quantity both HK-Push and
k-RandomWalk use at every step.

:class:`PoissonWeights` precomputes ``eta`` and ``psi`` up to a truncation
hop where the remaining tail mass is negligible, so every per-step lookup is
O(1) and numerically stable (tails are accumulated from the small end).
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from repro.exceptions import ParameterError

#: Default bound on the Poisson tail mass ignored beyond the truncation hop.
DEFAULT_TAIL_TOLERANCE = 1e-12


def check_heat_constant(t: float) -> None:
    """Raise :class:`ParameterError` unless the tables can hold ``t``.

    ``t`` must be positive and finite, and ``eta(0) = exp(-t)`` (where the
    Poisson recurrence starts) must be a normal float.  Above t ≈ 708.4 it
    is subnormal, above t ≈ 745.1 it is zero, and the tables would keep
    only part of the Poisson mass, or none.
    """
    if not (t > 0 and math.isfinite(t)):
        raise ParameterError(f"heat constant t must be positive and finite, got {t}")
    if math.exp(-t) < sys.float_info.min:
        raise ParameterError(
            f"heat constant t={t} is too large: exp(-t) underflows "
            f"(t must be at most about 708)"
        )


class PoissonWeights:
    """Precomputed ``eta`` / ``psi`` tables for a heat constant ``t``.

    Parameters
    ----------
    t:
        The heat constant (positive, finite and at most about 708; see
        :func:`check_heat_constant`).  The paper uses ``t = 5`` by default
        and up to ``t = 40`` in the sensitivity study.
    tail_tolerance:
        Hops beyond the point where the remaining tail mass drops below this
        value are treated as having termination probability 1.

    Examples
    --------
    >>> w = PoissonWeights(5.0)
    >>> round(w.eta(0), 6) == round(math.exp(-5.0), 6)
    True
    >>> abs(w.psi(0) - 1.0) < 1e-9
    True
    """

    def __init__(self, t: float, *, tail_tolerance: float = DEFAULT_TAIL_TOLERANCE) -> None:
        check_heat_constant(t)
        if not 0 < tail_tolerance < 1:
            raise ParameterError(
                f"tail tolerance must be in (0, 1), got {tail_tolerance}"
            )
        self._t = float(t)
        self._tail_tolerance = float(tail_tolerance)

        max_hops = self._truncation_hop(self._t, tail_tolerance)
        ks = np.arange(max_hops + 1)
        # log eta(k) = -t + k log t - log k!  (stable for large t and k).
        log_eta = -self._t + ks * math.log(self._t) - np.array(
            [math.lgamma(k + 1) for k in ks]
        )
        eta = np.exp(log_eta)
        # psi(k) = sum_{l >= k} eta(l); accumulate from the tail so small
        # terms are added first.
        psi = np.cumsum(eta[::-1])[::-1]
        self._eta = eta
        self._psi = psi
        self._max_hop = max_hops
        self._stop_table: np.ndarray | None = None

    @staticmethod
    def _truncation_hop(t: float, tol: float) -> int:
        """Smallest K with Poisson tail mass beyond K below ``tol``."""
        eta = math.exp(-t)
        cumulative = eta
        k = 0
        # The Poisson tail decays super-exponentially past ~t, so this loop
        # runs O(t + log(1/tol)) times.
        while 1.0 - cumulative > tol:
            k += 1
            eta *= t / k
            cumulative += eta
            if k > 100000:  # pragma: no cover - defensive bound
                break
        return max(k, 1)

    @property
    def t(self) -> float:
        """The heat constant."""
        return self._t

    @property
    def max_hop(self) -> int:
        """Hop index beyond which the tail mass is below the tolerance."""
        return self._max_hop

    def eta(self, k: int) -> float:
        """Poisson probability ``eta(k)`` (Eq. 1).  Zero beyond the truncation."""
        if k < 0:
            raise ParameterError(f"hop index must be non-negative, got {k}")
        if k > self._max_hop:
            return 0.0
        return float(self._eta[k])

    def psi(self, k: int) -> float:
        """Poisson tail ``psi(k)`` (Eq. 3).  Zero beyond the truncation."""
        if k < 0:
            raise ParameterError(f"hop index must be non-negative, got {k}")
        if k > self._max_hop:
            return 0.0
        return float(self._psi[k])

    def stop_probability(self, k: int) -> float:
        """Probability ``eta(k)/psi(k)`` that a walk at hop ``k`` stops there.

        Beyond the truncation hop the tail mass is negligible, so the walk is
        forced to stop (probability 1).  This makes every walk finite.
        """
        if k < 0:
            raise ParameterError(f"hop index must be non-negative, got {k}")
        if k >= self._max_hop:
            return 1.0
        psi_k = self._psi[k]
        if psi_k <= 0.0:
            return 1.0
        return float(min(1.0, self._eta[k] / psi_k))

    def stop_probability_array(self) -> np.ndarray:
        """``stop_probability(k)`` for ``k = 0 .. max_hop`` as one array.

        Entry ``max_hop`` is 1.0 (forced stop), so batched kernels can look
        up hop ``k`` as ``table[min(k, max_hop)]``.  The array is cached and
        read-only; it is the vectorized counterpart of
        :meth:`stop_probability`.
        """
        if self._stop_table is None:
            table = np.ones(self._max_hop + 1, dtype=float)
            positive = self._psi[:-1] > 0.0
            table[:-1][positive] = np.minimum(
                1.0, self._eta[:-1][positive] / self._psi[:-1][positive]
            )
            table.flags.writeable = False
            self._stop_table = table
        return self._stop_table

    def eta_array(self, max_hop: int) -> np.ndarray:
        """``eta(0..max_hop)`` as an array (entries beyond truncation are 0)."""
        out = np.zeros(max_hop + 1, dtype=float)
        upto = min(max_hop, self._max_hop)
        out[: upto + 1] = self._eta[: upto + 1]
        return out

    def sample_walk_length(self, rng: np.random.Generator) -> int:
        """Sample a Poisson(t) walk length (used by the Monte-Carlo baseline)."""
        return int(rng.poisson(self._t))

    def tail_mass_beyond(self, k: int) -> float:
        """Poisson mass strictly beyond hop ``k`` (``psi(k+1)``)."""
        return self.psi(k + 1) if k + 1 <= self._max_hop else 0.0


@functools.lru_cache(maxsize=64)
def cached_weights(t: float) -> PoissonWeights:
    """The process-wide :class:`PoissonWeights` for heat constant ``t``.

    The tables depend on ``t`` alone, so every graph and query shares one
    object per ``t``.  Only the 64 most recently used heat constants stay
    cached, so requests with ever-new ``t`` cannot grow the cache.
    """
    return PoissonWeights(t)
