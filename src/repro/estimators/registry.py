"""The estimator registry: one name → :class:`EstimatorSpec` store.

Every query surface resolves method names here, so the set of available
methods, their aliases, their parameter schemas and their error messages
have exactly one source of truth.  Registering a new
:class:`~repro.estimators.spec.EstimatorSpec` makes the method available to

* :func:`repro.clustering.local.local_cluster` and
  :func:`repro.hkpr.batch.batch_hkpr` (library),
* the service planner, hence ``repro-cli serve`` and ``POST /query``
  (online serving; sweepable methods only),
* ``repro-cli cluster --method`` and ``repro-cli methods`` (CLI),
* :class:`repro.bench.harness.MethodConfig` (benchmark harness)

without touching any of those layers.
"""

from __future__ import annotations

from typing import Iterable

from repro.estimators.spec import EstimatorSpec
from repro.exceptions import ParameterError

_SPECS: dict[str, EstimatorSpec] = {}
_ALIASES: dict[str, str] = {}


def register(spec: EstimatorSpec) -> EstimatorSpec:
    """Add ``spec`` to the registry (returns it, for decorator-ish use).

    Canonical names and aliases share one namespace; collisions are
    programming errors and fail loudly at import time.
    """
    names = (spec.name, *spec.aliases)
    if len(set(names)) != len(names):
        raise ValueError(
            f"spec {spec.name!r} declares duplicate names/aliases: {names}"
        )
    taken = set(_SPECS) | set(_ALIASES)
    for name in names:
        if name in taken:
            raise ValueError(f"estimator name {name!r} is already registered")
    _SPECS[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def unregister(name: str) -> None:
    """Remove a spec (tests only); accepts the canonical name."""
    spec = _SPECS.pop(name, None)
    if spec is None:
        raise ParameterError(f"method {name!r} is not registered")
    for alias in spec.aliases:
        _ALIASES.pop(alias, None)


def canonical_name(method: str) -> str:
    """Resolve ``method`` (canonical or alias) to its canonical name."""
    return resolve(method).name


def resolve(method: str) -> EstimatorSpec:
    """Look up a method by canonical name or alias.

    Raises :class:`ParameterError` listing every valid method name — the
    one unknown-method error message every surface shows.
    """
    if method in _SPECS:
        return _SPECS[method]
    target = _ALIASES.get(method)
    if target is not None:
        return _SPECS[target]
    raise ParameterError(
        f"unknown method {method!r}; expected one of {sorted(_SPECS)} "
        f"(aliases: {sorted(_ALIASES)})"
    )


def all_specs() -> tuple[EstimatorSpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_SPECS.values())


def method_names(
    *,
    family: str | None = None,
    sweepable: bool | None = None,
    servable: bool | None = None,
) -> tuple[str, ...]:
    """Canonical names of registered methods matching the given filters."""
    names = []
    for spec in _SPECS.values():
        if family is not None and spec.family != family:
            continue
        if sweepable is not None and spec.sweepable != sweepable:
            continue
        if servable is not None and spec.servable != servable:
            continue
        names.append(spec.name)
    return tuple(names)


def alias_table() -> dict[str, str]:
    """A copy of the alias → canonical-name mapping."""
    return dict(_ALIASES)


def describe_methods(specs: Iterable[EstimatorSpec] | None = None) -> list[dict]:
    """JSON-able descriptions (``repro-cli methods`` / ``GET /methods``)."""
    chosen = all_specs() if specs is None else tuple(specs)
    return [spec.describe() for spec in chosen]
