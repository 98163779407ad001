"""Declarative estimator specifications.

An :class:`EstimatorSpec` is the single description of one estimation
method: its canonical name and aliases, a declarative parameter schema
(:class:`ParamSpec` — types, bounds, defaults, error messages), capability
flags (``deterministic``, ``sweepable``, ``backend_aware``, ``family``),
the callable that answers a single query, an optional plan builder for
the serving layer (a method with one is *fusible*), and an
admission-control walk estimate.

Every query surface of the package — :func:`repro.clustering.local.local_cluster`,
the service planner, the CLI, and the benchmark harness — dispatches through
these specs (see :mod:`repro.estimators.registry`), so registering one spec
makes a method reachable everywhere at once.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams, default_delta

#: Valid values of :attr:`EstimatorSpec.family`.
FAMILIES = ("hkpr", "ppr", "baseline")

#: Keyword-only estimator arguments that are infrastructure, not method
#: parameters: they never appear in a spec's schema and are supplied by the
#: dispatching surface (rng by the caller, backend by the engine selection,
#: deadline by the serving layer's admission control).
INFRASTRUCTURE_KWARGS = frozenset({"rng", "backend", "weights", "counters", "deadline"})


def _cast_bool(value: Any) -> bool:
    """Boolean cast that survives JSON strings (``bool("false")`` is True)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
    raise ValueError(f"not a boolean: {value!r}")


_CASTS: dict[str, Callable[[Any], Any]] = {
    "int": int,
    "float": float,
    "bool": _cast_bool,
}


@dataclass(frozen=True)
class ParamSpec:
    """One declarative method parameter: type, bounds, default, help text.

    ``default=None`` means the estimator derives the value itself (for
    example the theory-driven walk count, or ``delta = 1/n``); the schema
    records that with ``default_doc``.

    ``feeds`` says where a supplied value goes when a query is dispatched:
    ``"params"`` fields are collected into the shared :class:`HKPRParams`
    object, ``"kwargs"`` fields are forwarded to the estimator as keyword
    arguments.
    """

    name: str
    type: str = "float"  # one of "int" | "float" | "bool"
    default: Any = None
    default_doc: str = ""
    doc: str = ""
    minimum: float | None = None
    maximum: float | None = None
    exclusive_minimum: bool = False
    exclusive_maximum: bool = False
    feeds: str = "kwargs"  # "params" (HKPRParams field) or "kwargs"

    def __post_init__(self) -> None:
        if self.type not in _CASTS:
            raise ValueError(f"unknown param type {self.type!r} for {self.name!r}")
        if self.feeds not in ("params", "kwargs"):
            raise ValueError(f"invalid feeds {self.feeds!r} for {self.name!r}")

    def cast(self, value: Any) -> Any:
        """Canonicalize ``value`` to this parameter's type."""
        return _CASTS[self.type](value)

    def in_range(self, value: Any) -> bool:
        """Whether a (cast) value satisfies the declared bounds."""
        if self.type == "bool":
            return True
        if self.minimum is not None:
            if self.exclusive_minimum and not value > self.minimum:
                return False
            if not self.exclusive_minimum and not value >= self.minimum:
                return False
        if self.maximum is not None:
            if self.exclusive_maximum and not value < self.maximum:
                return False
            if not self.exclusive_maximum and not value <= self.maximum:
                return False
        return True

    def range_text(self) -> str:
        """Human-readable bound description (used in help/error text)."""
        if self.type == "bool":
            return "true|false"
        parts = []
        if self.minimum is not None:
            parts.append((">" if self.exclusive_minimum else ">=") + f" {self.minimum:g}")
        if self.maximum is not None:
            parts.append(("<" if self.exclusive_maximum else "<=") + f" {self.maximum:g}")
        return " and ".join(parts) if parts else "any"

    def default_text(self) -> str:
        """The default rendered for help output."""
        if self.default is not None:
            return f"{self.default:g}" if isinstance(self.default, float) else str(self.default)
        return self.default_doc or "auto"

    def describe(self) -> dict:
        """JSON-able schema entry (the ``/methods`` payload shape)."""
        return {
            "name": self.name,
            "type": self.type,
            "default": self.default,
            "default_doc": self.default_doc or None,
            "range": self.range_text(),
            "doc": self.doc,
        }


class DirectPlan:
    """A plan whose work already happened: no walks, stored result.

    The uniform plan shape (``fused_queries``/``tasks``/``counters``/
    ``finalize``) lets the serving layer treat deterministic and
    already-executed methods exactly like fusible ones (see
    :mod:`repro.engine.multi`).
    """

    tasks = ()
    estimated_walks = 0

    def __init__(self, result) -> None:
        self._result = result
        self.counters = result.counters

    def fused_queries(self) -> list:
        return []

    def finalize(self, endpoints) -> object:
        return self._result


@dataclass(frozen=True)
class EstimatorSpec:
    """The complete declarative description of one estimation method."""

    #: Canonical method name (what every surface displays and caches under).
    name: str
    #: Estimator family: ``"hkpr"``, ``"ppr"`` or ``"baseline"``.
    family: str
    #: One-line summary shown by ``repro-cli methods`` and ``GET /methods``.
    doc: str
    #: Declarative parameter schema.
    params: tuple[ParamSpec, ...] = ()
    #: Alternative accepted spellings, resolved to :attr:`name`.
    aliases: tuple[str, ...] = ()
    #: Result is a pure function of the request (no randomness), so even
    #: rng-pinned service requests are cache-eligible.
    deterministic: bool = False
    #: Produces a diffusion vector that a sweep cut (and the service's
    #: top-k ranking) can consume.  Flow-based baselines are not sweepable.
    sweepable: bool = True
    #: Accepts a ``backend=`` keyword selecting the walk engine.
    backend_aware: bool = False
    #: Single-query estimator ``(graph, seed[, params], *, ...) -> HKPRResult``.
    estimate_fn: Callable | None = None
    #: Flow-baseline runner ``(graph, seed, **kwargs) -> BaselineClusteringResult``.
    cluster_fn: Callable | None = None
    #: Serving-layer plan builder
    #: ``(graph, seed, params_dict, rng, deadline=None) -> WalkPlan``;
    #: a method with one is fusible (its walk phase can batch across
    #: queries).  ``None`` falls back to a :class:`DirectPlan` around
    #: :meth:`estimate`.
    plan_fn: Callable | None = None
    #: Admission-control walk estimate ``(graph, params_dict) -> int``;
    #: ``None`` means the method performs no random walks.
    walks_fn: Callable | None = None
    #: Whether ``walks_fn`` predicts the *actual* walk count (tight) or a
    #: pessimistic upper bound.  Push-then-walk methods (tea, tea+, fora)
    #: run ``alpha * omega`` walks with ``alpha`` often near zero, so their
    #: omega-based estimates are upper bounds; the service only
    #: hard-rejects single over-budget queries when the estimate is tight.
    walks_tight: bool = True
    #: ``estimate_fn`` takes the shared :class:`HKPRParams` object as its
    #: third positional argument (the HKPR-estimator calling convention).
    takes_params_object: bool = False
    #: ``estimate_fn`` accepts an ``rng=`` keyword.
    takes_rng: bool = True
    #: ``estimate_fn`` accepts a ``deadline=`` keyword
    #: (:class:`repro.utils.Deadline`) and checks it cooperatively from its
    #: unbounded loops.  Methods with bounded, schema-capped work (``exact``,
    #: ``simple-local``) leave this False and silently ignore deadlines.
    takes_deadline: bool = False
    #: For methods without ``takes_params_object``: translate a supplied
    #: :class:`HKPRParams` into estimator kwargs (``None`` = not translatable).
    params_adapter: Callable[[HKPRParams], dict] | None = None
    #: Internal: schema indexed by name (derived in ``__post_init__``).
    _schema: dict[str, ParamSpec] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"{self.name!r}: family must be one of {FAMILIES}")
        if not (self.doc and self.doc.strip()):
            raise ValueError(f"{self.name!r}: spec docstring must not be empty")
        if self.estimate_fn is None and self.cluster_fn is None:
            raise ValueError(f"{self.name!r}: needs estimate_fn or cluster_fn")
        if self.sweepable and self.estimate_fn is None:
            raise ValueError(f"{self.name!r}: sweepable methods need estimate_fn")
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"{self.name!r}: duplicate parameter names")
        object.__setattr__(self, "_schema", {p.name: p for p in self.params})

    # -------------------------------------------------------------- #
    # Schema
    # -------------------------------------------------------------- #
    @property
    def servable(self) -> bool:
        """Whether the online service can answer this method (needs a
        rankable diffusion vector)."""
        return self.sweepable and self.estimate_fn is not None

    @property
    def accepts_params_object(self) -> bool:
        """Whether an :class:`HKPRParams` object is meaningful for this method."""
        return self.takes_params_object or self.params_adapter is not None

    def param_names(self) -> tuple[str, ...]:
        """Names of all declared parameters, in declaration order."""
        return tuple(p.name for p in self.params)

    def _feeds_params(self, name: str) -> bool:
        """Whether a declared parameter feeds the shared HKPRParams object."""
        param = self._schema.get(name)
        return param is not None and param.feeds == "params"

    def validate_params(self, raw: dict | None) -> dict:
        """Canonicalize a raw parameter dict against the schema.

        This is the one code path every surface uses for parameter
        validation: unknown names, bad types and out-of-range values all
        fail here with messages listing the valid options.
        """
        normalized: dict = {}
        for key, value in (raw or {}).items():
            param = self._schema.get(key)
            if param is None:
                raise ParameterError(
                    f"unknown parameter {key!r} for method {self.name!r}; "
                    f"allowed: {sorted(self._schema)}"
                )
            try:
                cast_value = param.cast(value)
            except (TypeError, ValueError):
                raise ParameterError(
                    f"parameter {key!r} has invalid value {value!r} "
                    f"(expected {param.type})"
                ) from None
            if not param.in_range(cast_value):
                raise ParameterError(
                    f"parameter {key!r} is out of range: {value!r} "
                    f"(expected {param.range_text()})"
                )
            normalized[key] = cast_value
        return normalized

    def with_defaults(self, params: dict) -> dict:
        """``params`` plus every declared concrete default.

        Plan builders and walk estimators read fallback values from here
        rather than re-hardcoding literals, so the declared schema stays
        the single source of defaults.  Parameters whose default is derived
        by the estimator (``default=None``) are left absent.
        """
        merged = {
            param.name: param.default
            for param in self.params
            if param.default is not None
        }
        merged.update(params)
        return merged

    def split_params(self, graph: Graph, params: dict) -> tuple[HKPRParams | None, dict]:
        """Split a validated parameter dict into (HKPRParams, kwargs).

        Fields whose :attr:`ParamSpec.feeds` is ``"params"`` populate the
        shared :class:`HKPRParams` object (with the paper's ``delta = 1/n``
        default); the rest are estimator keyword arguments.  Methods that do
        not take a params object get ``(None, dict(params))``.
        """
        if not self.takes_params_object:
            return None, dict(params)
        fields = {}
        kwargs = {}
        for key, value in params.items():
            if self._schema[key].feeds == "params":
                fields[key] = value
            else:
                kwargs[key] = value
        fields.setdefault("delta", default_delta(graph))
        return HKPRParams(**fields), kwargs

    # -------------------------------------------------------------- #
    # Dispatch
    # -------------------------------------------------------------- #
    def estimate(
        self,
        graph: Graph,
        seed_node: int,
        *,
        params: HKPRParams | None = None,
        rng=None,
        estimator_kwargs: dict | None = None,
        backend: str | None = None,
        deadline=None,
    ):
        """Answer one query, returning the unified :class:`~repro.hkpr.result.HKPRResult`.

        The single calling convention behind ``local_cluster``, the bench
        harness, ``batch_hkpr`` and the service's direct plans: signature
        differences between estimators (params object or not, rng or not,
        backend-aware or not) are absorbed here.  Declared knobs that feed
        the shared :class:`HKPRParams` object (``t``, ``eps_r``, ...) may
        be passed in ``estimator_kwargs`` like any other parameter; they
        are folded into the params object (overriding its fields) rather
        than forwarded to the estimator, so the declarative schema is the
        calling convention on every surface.
        """
        if self.estimate_fn is None:
            raise ParameterError(
                f"method {self.name!r} does not produce a diffusion vector; "
                f"use its clustering entry point"
            )
        kwargs = dict(estimator_kwargs or {})
        # Infrastructure keys (rng/backend/...) are supplied by the caller
        # or folded in below and are deliberately outside the schema; every
        # declared knob goes through the single validation path, so unknown
        # names and out-of-range values fail identically on every surface.
        infrastructure = {
            key: kwargs.pop(key) for key in list(kwargs)
            if key in INFRASTRUCTURE_KWARGS
        }
        kwargs = self.validate_params(kwargs)
        # rng/backend follow the same semantics as their dedicated
        # arguments: an rng for a deterministic method or a backend for a
        # backend-unaware one is ignored, never a raw TypeError.  The other
        # reserved infrastructure names have no estimator-level meaning, so
        # passing them is an error, not a silent drop.
        for key in infrastructure:
            if key not in ("rng", "backend", "deadline"):
                raise ParameterError(
                    f"infrastructure argument {key!r} is not accepted by "
                    f"method {self.name!r}; allowed parameters: "
                    f"{sorted(self._schema)}"
                )
        if self.takes_rng and "rng" in infrastructure:
            kwargs["rng"] = infrastructure["rng"]
        if self.backend_aware and "backend" in infrastructure:
            kwargs["backend"] = infrastructure["backend"]
        if self.takes_deadline and "deadline" in infrastructure:
            kwargs["deadline"] = infrastructure["deadline"]
        if backend is not None and self.backend_aware:
            kwargs.setdefault("backend", backend)
        if self.takes_rng:
            kwargs.setdefault("rng", rng)
        if deadline is not None and self.takes_deadline:
            kwargs.setdefault("deadline", deadline)
        if self.takes_params_object:
            fields = {
                key: kwargs.pop(key)
                for key in [k for k in kwargs if self._feeds_params(k)]
            }
            if params is None:
                fields.setdefault("delta", default_delta(graph))
                params = HKPRParams(**fields)
            elif fields:
                params = replace(params, **fields)
            return self.estimate_fn(graph, seed_node, params, **kwargs)
        if params is not None:
            if self.params_adapter is None:
                raise ParameterError(
                    f"method {self.name!r} does not take HKPRParams; pass its "
                    f"knobs via estimator_kwargs (allowed: {sorted(self._schema)})"
                )
            for key, value in self.params_adapter(params).items():
                kwargs.setdefault(key, value)
        return self.estimate_fn(graph, seed_node, **kwargs)

    def cluster(self, graph: Graph, seed_node: int, **kwargs):
        """Run a flow-baseline method (non-sweepable specs only).

        Kwargs go through the same declarative validation as
        :meth:`estimate`, so flow baselines report schema errors
        identically to every other method.
        """
        if self.cluster_fn is None:
            raise ParameterError(
                f"method {self.name!r} has no flow-clustering entry point"
            )
        return self.cluster_fn(graph, seed_node, **self.validate_params(kwargs))

    def estimate_walks(self, graph: Graph, params: dict) -> int:
        """Admission-control estimate of the walks one query will run."""
        if self.walks_fn is None:
            return 0
        return max(0, int(self.walks_fn(graph, params)))

    def build_plan(
        self,
        graph: Graph,
        seed_node: int,
        params: dict,
        rng,
        *,
        deadline=None,
    ):
        """Build this query's serving plan (``WalkPlan`` or :class:`DirectPlan`).

        The optional ``deadline`` bounds any deterministic work done at plan
        construction (push phases, direct execution).
        """
        if self.plan_fn is not None:
            return self.plan_fn(graph, seed_node, params, rng, deadline=deadline)
        hkpr_params, kwargs = self.split_params(graph, params)
        result = self.estimate(
            graph, seed_node, params=hkpr_params, rng=rng,
            estimator_kwargs=kwargs, deadline=deadline,
        )
        return DirectPlan(result)

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #
    def describe(self) -> dict:
        """JSON-able description (``repro-cli methods`` / ``GET /methods``)."""
        return {
            "name": self.name,
            "family": self.family,
            "doc": self.doc,
            "aliases": list(self.aliases),
            "fusible": self.plan_fn is not None,
            "deterministic": self.deterministic,
            "sweepable": self.sweepable,
            "servable": self.servable,
            "backend_aware": self.backend_aware,
            "params": [p.describe() for p in self.params],
        }

    def signature_kwargs(self) -> set[str]:
        """Keyword parameters of the underlying callable, minus infrastructure.

        Used by the registry-invariant tests to assert the declarative
        schema is complete (every real knob is declared) and sound (every
        declared kwarg is accepted).
        """
        target = self.estimate_fn if self.estimate_fn is not None else self.cluster_fn
        signature = inspect.signature(target)
        names = {
            name
            for name, parameter in signature.parameters.items()
            if parameter.kind == inspect.Parameter.KEYWORD_ONLY
        }
        return names - INFRASTRUCTURE_KWARGS


# ------------------------------------------------------------------ #
# Shared schema fragments (used by the catalog)
# ------------------------------------------------------------------ #
def hkpr_base_params(*, include_c: bool = False) -> tuple[ParamSpec, ...]:
    """The four (d, eps_r, delta)-query parameters shared by HKPR methods."""
    base = (
        ParamSpec("t", "float", default=5.0, minimum=0.0, exclusive_minimum=True,
                  doc="heat constant", feeds="params"),
        ParamSpec("eps_r", "float", default=0.5, minimum=0.0, maximum=1.0,
                  exclusive_minimum=True, exclusive_maximum=True,
                  doc="relative error bound", feeds="params"),
        ParamSpec("delta", "float", default=None, default_doc="1/n",
                  minimum=0.0, maximum=1.0, exclusive_minimum=True,
                  exclusive_maximum=True,
                  doc="significance threshold", feeds="params"),
        ParamSpec("p_f", "float", default=1e-6, minimum=0.0, maximum=1.0,
                  exclusive_minimum=True, exclusive_maximum=True,
                  doc="failure probability", feeds="params"),
    )
    if include_c:
        base = base + (
            ParamSpec("c", "float", default=2.5, minimum=0.0,
                      exclusive_minimum=True,
                      doc="hop-cap constant (Eq. 20)", feeds="params"),
        )
    return base


def ceil_int(value: float) -> int:
    """``ceil`` guarded against float overflow (admission estimates only)."""
    if value == math.inf:
        return 2**62
    return int(math.ceil(value))
