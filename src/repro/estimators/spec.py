"""Declarative estimator specifications.

An :class:`EstimatorSpec` is the single description of one estimation
method: its canonical name and aliases, a declarative parameter schema
(:class:`ParamSpec` — types, bounds, defaults, error messages), the
callable that answers a single query, and an optional plan builder for
the serving layer (a method with one is *fusible*).  How the callable is
called (``deterministic``, ``backend_aware``, ``takes_params_object``,
...) is read once from its signature, so a spec cannot declare a
convention its function does not have.

Every query surface of the package — :func:`repro.clustering.local.local_cluster`,
the service planner, the CLI, and the benchmark harness — dispatches through
these specs (see :mod:`repro.estimators.registry`), so registering one spec
makes a method reachable everywhere at once.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields, replace
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

    def __post_init__(self) -> None:
        if self.type not in _CASTS:
            raise ValueError(f"unknown param type {self.type!r} for {self.name!r}")

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
    """A deterministic method's plan: its work already happened, no walks.

    The uniform plan shape (``fused_queries``/``counters``/``finalize``)
    lets the serving layer treat deterministic methods exactly like
    fusible ones (see :mod:`repro.engine.multi`).
    """

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
    #: Single-query estimator ``(graph, seed[, params], *, ...) -> HKPRResult``.
    estimate_fn: Callable | None = None
    #: Flow-baseline runner ``(graph, seed, **kwargs) -> BaselineClusteringResult``.
    cluster_fn: Callable | None = None
    #: Plan builder ``(graph, seed[, params], *, deadline, **kwargs) ->
    #: ResiduePlan``, called like ``estimate_fn`` minus ``rng`` and
    #: ``backend``; a method with one is fusible (its walk phase can batch
    #: across queries).  A deterministic method without one is served as a
    #: :class:`DirectPlan` around :meth:`estimate`.
    plan_fn: Callable | None = None

    # Read once from the callable's signature in ``__post_init__``.
    #: ``estimate_fn`` (or ``cluster_fn``) accepts an ``rng=`` keyword.
    takes_rng: bool = field(init=False)
    #: No ``rng``: the result is a pure function of the request, so even
    #: rng-pinned service requests are cache-eligible.
    deterministic: bool = field(init=False)
    #: Has ``estimate_fn``: produces a diffusion vector that a sweep cut
    #: (and the service's top-k ranking) can consume.
    sweepable: bool = field(init=False)
    #: Accepts a ``backend=`` keyword selecting the walk engine.
    backend_aware: bool = field(init=False)
    #: Accepts a ``deadline=`` keyword (:class:`repro.utils.Deadline`) and
    #: checks it from its unbounded loops; the flow baselines
    #: (``simple-local``, ``crd``) run schema-capped work and ignore
    #: deadlines.
    takes_deadline: bool = field(init=False)
    #: Third positional parameter named ``params``: the shared
    #: :class:`HKPRParams` object (the HKPR-estimator calling convention).
    takes_params_object: bool = field(init=False)
    #: Declared names that fill the :class:`HKPRParams` object (its fields,
    #: for a method that takes one); the rest are estimator keywords.
    params_fields: frozenset[str] = field(init=False)
    #: For a method without the params object whose keywords share
    #: :class:`HKPRParams` field names (fora's ``eps_r``/``delta``/``p_f``):
    #: translate a supplied object into those keywords; else ``None``.
    params_adapter: Callable[[HKPRParams], dict] | None = field(
        init=False, repr=False, compare=False
    )
    #: Internal: schema indexed by name.
    _schema: dict[str, ParamSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"{self.name!r}: family must be one of {FAMILIES}")
        if not (self.doc and self.doc.strip()):
            raise ValueError(f"{self.name!r}: spec docstring must not be empty")
        if self.estimate_fn is None and self.cluster_fn is None:
            raise ValueError(f"{self.name!r}: needs estimate_fn or cluster_fn")
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"{self.name!r}: duplicate parameter names")
        signature = inspect.signature(self.estimate_fn or self.cluster_fn).parameters
        positional = [
            name for name, parameter in signature.items()
            if parameter.kind == parameter.POSITIONAL_OR_KEYWORD
        ]
        takes_params_object = positional[2:3] == ["params"]
        hkpr_fields = {f.name for f in fields(HKPRParams)}
        if takes_params_object:
            params_fields, translated = frozenset(hkpr_fields.intersection(names)), ()
        else:
            params_fields, translated = frozenset(), sorted(hkpr_fields & signature.keys())
        derived = {
            "takes_rng": "rng" in signature,
            "deterministic": "rng" not in signature,
            "sweepable": self.estimate_fn is not None,
            "backend_aware": "backend" in signature,
            "takes_deadline": "deadline" in signature,
            "takes_params_object": takes_params_object,
            "params_fields": params_fields,
            "params_adapter": (
                (lambda p: {name: getattr(p, name) for name in translated})
                if translated else None
            ),
            "_schema": {p.name: p for p in self.params},
        }
        for key, value in derived.items():
            object.__setattr__(self, key, value)

    # -------------------------------------------------------------- #
    # Schema
    # -------------------------------------------------------------- #
    @property
    def servable(self) -> bool:
        """Whether the online service can answer this method: it needs a
        rankable diffusion vector, and a randomized method needs a plan
        builder, so its walk phase runs on the service's backend."""
        return self.sweepable and (self.deterministic or self.plan_fn is not None)

    @property
    def accepts_params_object(self) -> bool:
        """Whether an :class:`HKPRParams` object is meaningful for this method."""
        return self.takes_params_object or self.params_adapter is not None

    def param_names(self) -> tuple[str, ...]:
        """Names of all declared parameters, in declaration order."""
        return tuple(p.name for p in self.params)

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

        Plan builders and the index combiner read fallback values from here
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

        The names in :attr:`params_fields` populate the shared
        :class:`HKPRParams` object (with the paper's ``delta = 1/n``
        default); the rest are estimator keyword arguments.  Methods that do
        not take a params object get ``(None, dict(params))``.
        """
        if not self.takes_params_object:
            return None, dict(params)
        kwargs = dict(params)
        values = {key: kwargs.pop(key) for key in self.params_fields & params.keys()}
        values.setdefault("delta", default_delta(graph))
        return HKPRParams(**values), kwargs

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
            values = {key: kwargs.pop(key) for key in self.params_fields & kwargs.keys()}
            if params is None:
                values.setdefault("delta", default_delta(graph))
                params = HKPRParams(**values)
            elif values:
                params = replace(params, **values)
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

    def build_plan(
        self,
        graph: Graph,
        seed_node: int,
        params: dict,
        *,
        deadline=None,
    ):
        """Build this query's serving plan (``ResiduePlan`` or :class:`DirectPlan`).

        ``params`` is split as :meth:`estimate` splits it.  Neither a plan
        builder nor a servable method's :class:`DirectPlan` (deterministic)
        draws a random number.  The optional ``deadline`` bounds the work
        done at plan construction (push phases, direct execution).
        """
        hkpr_params, kwargs = self.split_params(graph, params)
        if self.plan_fn is not None:
            args = (hkpr_params,) if self.takes_params_object else ()
            return self.plan_fn(graph, seed_node, *args, deadline=deadline, **kwargs)
        return DirectPlan(self.estimate(
            graph, seed_node, params=hkpr_params, estimator_kwargs=kwargs,
            deadline=deadline,
        ))

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
                  doc="heat constant"),
        ParamSpec("eps_r", "float", default=0.5, minimum=0.0, maximum=1.0,
                  exclusive_minimum=True, exclusive_maximum=True,
                  doc="relative error bound"),
        ParamSpec("delta", "float", default=None, default_doc="1/n",
                  minimum=0.0, maximum=1.0, exclusive_minimum=True,
                  exclusive_maximum=True,
                  doc="significance threshold"),
        ParamSpec("p_f", "float", default=1e-6, minimum=0.0, maximum=1.0,
                  exclusive_minimum=True, exclusive_maximum=True,
                  doc="failure probability"),
    )
    if include_c:
        base = base + (
            ParamSpec("c", "float", default=2.5, minimum=0.0,
                      exclusive_minimum=True,
                      doc="hop-cap constant (Eq. 20)"),
        )
    return base
