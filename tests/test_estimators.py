"""Tests for the unified estimator registry (:mod:`repro.estimators`).

Three layers of coverage:

* **registry invariants** — every registered spec is complete (docstring,
  schema matching the estimator's real signature, resolvable aliases) and
  visible on every surface (``local_cluster``, ``SERVICE_METHODS``, the
  CLI);
* **one-code-path errors** — unknown-method and unknown-parameter errors
  from the library, the service and the CLI all come from the registry's
  single validation path and list the valid options;
* **shim parity** — the legacy free functions and the registry's
  declarative dispatch return byte-identical results for a fixed seed.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

from repro import estimators
from repro.baselines import nibble_hkpr, pr_nibble, pr_nibble_hkpr
from repro.bench.datasets import load_dataset
from repro.clustering.local import local_cluster
from repro.estimators import EstimatorSpec, ParamSpec
from repro.exceptions import ParameterError, ReproError, ServiceError
from repro.graph.generators import ring_graph
from repro.graph.graph import Graph
from repro.hkpr import (
    cluster_hkpr,
    exact_hkpr,
    hk_push_hkpr,
    hk_push_plus_hkpr,
    hk_relax,
    monte_carlo_hkpr,
    tea,
    tea_plus,
)
from repro.hkpr.params import HKPRParams
from repro.ppr import exact_ppr, fora, monte_carlo_ppr
from repro.service.planner import SERVICE_METHODS, normalize_request


_HKPR = frozenset({"t", "eps_r", "delta", "p_f"})
_HKPR_C = _HKPR | {"c"}
_NONE = frozenset()

#: Each built-in spec's capabilities: (deterministic, sweepable, servable,
#: backend_aware, takes_params_object, takes_deadline,
#: accepts_params_object, takes_rng, names filling HKPRParams).
CAPABILITY_TABLE = {
    "exact": (True, True, True, False, True, True, True, False, _HKPR),
    "monte-carlo": (False, True, True, True, True, True, True, True, _HKPR),
    "cluster-hkpr": (False, True, True, True, True, True, True, True, _HKPR),
    "hk-relax": (True, True, True, False, True, True, True, False, _HKPR),
    "hk-push": (True, True, True, False, True, True, True, False, _HKPR),
    "hk-push+": (True, True, True, False, True, True, True, False, _HKPR_C),
    "tea": (False, True, True, True, True, True, True, True, _HKPR),
    "tea+": (False, True, True, True, True, True, True, True, _HKPR_C),
    "exact-ppr": (True, True, True, False, False, True, False, False, _NONE),
    "fora": (False, True, True, True, False, True, True, True, _NONE),
    "mc-ppr": (False, True, True, True, False, True, False, True, _NONE),
    "nibble": (True, True, True, False, False, True, False, False, _NONE),
    "pr-nibble": (True, True, True, False, False, True, False, False, _NONE),
    "simple-local": (True, False, False, False, False, False, False, False, _NONE),
    "crd": (True, False, False, False, False, False, False, False, _NONE),
}


# ------------------------------------------------------------------ #
# Registry invariants
# ------------------------------------------------------------------ #
class TestRegistryInvariants:
    def test_every_spec_has_a_docstring(self):
        for spec in estimators.all_specs():
            assert spec.doc and spec.doc.strip(), spec.name

    def test_every_spec_has_a_valid_family(self):
        for spec in estimators.all_specs():
            assert spec.family in ("hkpr", "ppr", "baseline"), spec.name

    def test_schema_is_complete_and_sound(self):
        """Declared kwargs == the estimator's real keyword-only parameters.

        Completeness: every real knob is declared (a user reading
        ``repro-cli methods`` sees everything).  Soundness: every declared
        kwarg is accepted by the callable (no dead schema entries).
        """
        for spec in estimators.all_specs():
            declared = {
                param.name for param in spec.params
                if param.name not in spec.params_fields
            }
            actual = spec.signature_kwargs()
            assert declared == actual, (
                f"{spec.name}: schema kwargs {sorted(declared)} != "
                f"signature kwargs {sorted(actual)}"
            )

    def test_capabilities_read_from_signatures_match_the_table(self):
        for spec in estimators.all_specs():
            row = CAPABILITY_TABLE[spec.name]
            assert (
                spec.deterministic, spec.sweepable, spec.servable,
                spec.backend_aware, spec.takes_params_object,
                spec.takes_deadline, spec.accepts_params_object, spec.takes_rng,
                spec.params_fields,
            ) == row, spec.name
        assert set(CAPABILITY_TABLE) == set(estimators.method_names())
        # fora takes no params object; a supplied one becomes its keywords.
        adapted = estimators.resolve("fora").params_adapter(
            HKPRParams(t=3.0, eps_r=0.3, delta=1e-3, p_f=1e-5)
        )
        assert adapted == {"eps_r": 0.3, "delta": 1e-3, "p_f": 1e-5}
        assert all(
            spec.params_adapter is None
            for spec in estimators.all_specs() if spec.name != "fora"
        )

    def test_capabilities_are_read_only(self):
        spec = estimators.resolve("tea")
        for name in ("deterministic", "backend_aware", "takes_rng", "params_adapter"):
            with pytest.raises(AttributeError):
                setattr(spec, name, None)
        with pytest.raises(TypeError):
            EstimatorSpec(name="x", family="hkpr", doc="d",
                          estimate_fn=tea, deterministic=True)

    def test_hkpr_family_declares_the_shared_query_params(self):
        for spec in estimators.all_specs():
            if spec.takes_params_object:
                names = spec.param_names()
                for required in ("t", "eps_r", "delta", "p_f"):
                    assert required in names, (spec.name, required)

    def test_aliases_resolve_to_their_spec(self):
        for spec in estimators.all_specs():
            for alias in spec.aliases:
                assert estimators.resolve(alias) is spec
                assert estimators.canonical_name(alias) == spec.name

    def test_canonical_names_and_aliases_do_not_collide(self):
        names = [spec.name for spec in estimators.all_specs()]
        aliases = [a for spec in estimators.all_specs() for a in spec.aliases]
        assert len(names) == len(set(names))
        assert not set(names) & set(aliases)
        assert len(aliases) == len(set(aliases))

    def test_sweepable_filter_matches_specs(self):
        sweepable = set(estimators.method_names(sweepable=True))
        assert sweepable == {s.name for s in estimators.all_specs() if s.sweepable}
        assert set(estimators.method_names(family="hkpr")) <= sweepable

    def test_every_servable_method_in_service_methods(self):
        servable = {s.name for s in estimators.all_specs() if s.servable}
        assert servable == set(SERVICE_METHODS)
        for name in servable:
            assert SERVICE_METHODS[name].name == name

    def test_flow_baselines_are_not_sweepable_or_servable(self):
        for name in ("simple-local", "crd"):
            spec = estimators.resolve(name)
            assert not spec.sweepable and not spec.servable
            assert spec.cluster_fn is not None

    def test_flow_baseline_kwargs_validated_through_the_schema(self, small_ring):
        spec = estimators.resolve("crd")
        with pytest.raises(ParameterError, match="unknown parameter"):
            spec.cluster(small_ring, 0, bogus=1)
        with pytest.raises(ParameterError, match="out of range"):
            spec.cluster(small_ring, 0, iterations=0)
        assert spec.cluster(small_ring, 0, iterations=3).seed == 0

    def test_every_method_appears_in_cli_methods_output(self, capsys):
        from repro.cli import main

        assert main(["methods"]) == 0
        output = capsys.readouterr().out
        for spec in estimators.all_specs():
            assert spec.name in output
            for alias in spec.aliases:
                assert alias in output
            for param in spec.params:
                assert param.name in output

    def test_describe_methods_is_json_able(self):
        import json

        assert json.dumps(estimators.describe_methods())

    def test_expected_methods_registered(self):
        assert set(estimators.method_names()) == {
            "exact", "monte-carlo", "cluster-hkpr", "hk-relax",
            "hk-push", "hk-push+", "tea", "tea+",
            "exact-ppr", "fora", "mc-ppr",
            "nibble", "pr-nibble", "simple-local", "crd",
        }


# ------------------------------------------------------------------ #
# Parameter validation (the single code path)
# ------------------------------------------------------------------ #
class TestParamValidation:
    def test_casts_canonicalize(self):
        spec = estimators.resolve("monte-carlo")
        normalized = spec.validate_params({"t": "5", "num_walks": "100"})
        assert normalized == {"t": 5.0, "num_walks": 100}
        assert isinstance(normalized["t"], float)
        assert isinstance(normalized["num_walks"], int)

    def test_unknown_parameter_lists_allowed(self):
        spec = estimators.resolve("tea+")
        with pytest.raises(ParameterError, match="unknown parameter") as excinfo:
            spec.validate_params({"bogus": 1})
        assert "max_walks" in str(excinfo.value)  # lists the valid options

    def test_out_of_range_rejected(self):
        spec = estimators.resolve("monte-carlo")
        for bad in [{"num_walks": 0}, {"num_walks": -5}, {"t": -1.0},
                    {"eps_r": 1.5}, {"delta": 0.0}]:
            with pytest.raises(ParameterError, match="out of range"):
                spec.validate_params(bad)

    def test_bool_cast_survives_json_strings(self):
        spec = estimators.resolve("tea+")
        assert spec.validate_params({"apply_offset": "false"}) == {
            "apply_offset": False
        }
        assert spec.validate_params({"apply_offset": True}) == {
            "apply_offset": True
        }
        with pytest.raises(ParameterError, match="invalid value"):
            spec.validate_params({"apply_offset": "maybe"})

    def test_library_estimate_validates_through_the_schema(self, small_ring):
        """estimate()/local_cluster kwargs hit the same validation path as
        the CLI and the service — no raw TypeErrors for unknown knobs."""
        with pytest.raises(ParameterError, match="unknown parameter"):
            estimators.estimate(small_ring, 0, method="nibble", bogus=1)
        with pytest.raises(ParameterError, match="out of range"):
            local_cluster(
                small_ring, 0, method="monte-carlo",
                estimator_kwargs={"num_walks": 0},
            )
        # Backend selection (infrastructure, not a schema knob) still works.
        result = local_cluster(
            small_ring, 0, method="monte-carlo", rng=1,
            estimator_kwargs={"num_walks": 50, "backend": "reference"},
        )
        assert result.hkpr.counters.extras["backend"] == "reference"

    def test_unknown_method_error_lists_options_everywhere(self, small_ring):
        """Library, batch API, service and CLI all show the registry's list."""
        from repro.cli import main
        from repro.hkpr.batch import batch_hkpr

        with pytest.raises(ParameterError, match="unknown method") as lib_err:
            local_cluster(small_ring, 0, method="does-not-exist")
        with pytest.raises(ParameterError, match="unknown method") as batch_err:
            batch_hkpr(small_ring, [0], method="does-not-exist")
        with pytest.raises(ServiceError, match="unknown method") as svc_err:
            normalize_request("g", "does-not-exist", 0)
        for error in (lib_err, batch_err, svc_err):
            assert "tea+" in str(error.value)
            assert "nibble" in str(error.value)
        assert main([
            "cluster", "--dataset", "grid3d-sim", "--seed-node", "0",
            "--method", "does-not-exist",
        ]) == 2

    def test_with_defaults_fills_declared_schema_defaults(self):
        spec = estimators.resolve("mc-ppr")
        full = spec.with_defaults({})
        assert full == {"alpha": 0.15, "num_walks": 10_000}
        assert spec.with_defaults({"num_walks": 5})["num_walks"] == 5
        # Estimator-derived defaults (None) stay absent.
        assert "delta" not in estimators.resolve("fora").with_defaults({})


# ------------------------------------------------------------------ #
# Shim parity: legacy free functions == registry dispatch, byte for byte
# ------------------------------------------------------------------ #
PARITY_CASES = [
    ("exact", exact_hkpr, True, {}),
    ("monte-carlo", monte_carlo_hkpr, True, {"num_walks": 300}),
    ("cluster-hkpr", cluster_hkpr, True, {"eps": 0.2, "num_walks": 300}),
    ("hk-relax", hk_relax, True, {"eps_a": 1e-4}),
    ("hk-push", hk_push_hkpr, True, {}),
    ("hk-push+", hk_push_plus_hkpr, True, {}),
    ("tea", tea, True, {"max_walks": 500}),
    ("tea+", tea_plus, True, {"max_walks": 500}),
    ("fora", fora, False, {"max_walks": 300}),
    ("mc-ppr", monte_carlo_ppr, False, {"num_walks": 300}),
    ("exact-ppr", exact_ppr, False, {}),
    ("nibble", nibble_hkpr, False, {"steps": 10}),
    ("pr-nibble", pr_nibble_hkpr, False, {}),
]


class TestShimParity:
    @pytest.mark.parametrize(
        "method, legacy, takes_params, kwargs",
        PARITY_CASES,
        ids=[case[0] for case in PARITY_CASES],
    )
    def test_legacy_entry_point_byte_identical(
        self, clustered_graph, default_params, method, legacy, takes_params, kwargs
    ):
        spec = estimators.resolve(method)
        if spec.takes_rng:
            legacy_result = (
                legacy(clustered_graph, 0, default_params, rng=77, **kwargs)
                if takes_params
                else legacy(clustered_graph, 0, rng=77, **kwargs)
            )
        else:
            legacy_result = (
                legacy(clustered_graph, 0, default_params, **kwargs)
                if takes_params
                else legacy(clustered_graph, 0, **kwargs)
            )
        registry_result = estimators.estimate(
            clustered_graph,
            0,
            method=method,
            params=default_params if takes_params else None,
            rng=77,
            **kwargs,
        )
        assert legacy_result.estimates.to_dict() == registry_result.estimates.to_dict()
        assert legacy_result.offset_per_degree == registry_result.offset_per_degree
        assert (
            legacy_result.counters.random_walks
            == registry_result.counters.random_walks
        )

    def test_registry_points_at_the_legacy_functions(self):
        """The free functions ARE the implementation — no forked copies."""
        legacy = {
            "exact": exact_hkpr,
            "monte-carlo": monte_carlo_hkpr,
            "cluster-hkpr": cluster_hkpr,
            "hk-relax": hk_relax,
            "hk-push": hk_push_hkpr,
            "hk-push+": hk_push_plus_hkpr,
            "tea": tea,
            "tea+": tea_plus,
        }
        assert set(legacy) == set(estimators.method_names(family="hkpr"))
        for name, fn in legacy.items():
            assert estimators.resolve(name).estimate_fn is fn

    def test_pr_nibble_sweep_matches_baseline_cluster(self, clustered_graph):
        """Sweeping pr-nibble's registry vector reproduces the baseline cut."""
        baseline = pr_nibble(clustered_graph, 0, eps=1e-4)
        unified = local_cluster(clustered_graph, 0, method="pr-nibble")
        assert unified.cluster == baseline.cluster


# ------------------------------------------------------------------ #
# One registration lights up every surface
# ------------------------------------------------------------------ #
class TestDynamicRegistration:
    @pytest.fixture
    def toy_spec(self):
        def toy_estimator(graph, seed_node, *, scale: float = 1.0):
            from repro.hkpr.result import HKPRResult
            from repro.utils.sparsevec import SparseVector

            return HKPRResult(
                estimates=SparseVector({seed_node: scale}),
                seed=seed_node,
                method="toy",
            )

        spec = estimators.register(EstimatorSpec(
            name="toy",
            family="baseline",
            doc="Test-only estimator: the seed's indicator vector.",
            aliases=("toy-indicator",),
            params=(ParamSpec("scale", "float", default=1.0, minimum=0.0,
                              exclusive_minimum=True, doc="indicator mass"),),
            estimate_fn=toy_estimator,
        ))
        yield spec
        estimators.unregister("toy")

    def test_new_method_reaches_library_service_and_cli(self, toy_spec, small_ring, capsys):
        from repro.cli import main
        from repro.service import GraphRegistry, QueryService

        # Library surface (including alias resolution).
        assert "toy" in estimators.method_names(sweepable=True)
        result = local_cluster(small_ring, 3, method="toy-indicator")
        assert result.method == "toy" and result.cluster == {3}

        # Service surface: servable with no planner change.
        assert "toy" in SERVICE_METHODS
        registry = GraphRegistry()
        registry.add_graph("ring", small_ring)
        with QueryService(registry, max_batch=2) as service:
            response = service.query("ring", "toy", 5, {"scale": 2.0})
            assert response.result.estimates.to_dict() == {5: 2.0}

        # CLI surface.
        assert main(["methods"]) == 0
        assert "toy" in capsys.readouterr().out

    def test_duplicate_registration_rejected(self, toy_spec):
        with pytest.raises(ValueError, match="already registered"):
            estimators.register(toy_spec)

    def test_self_colliding_aliases_rejected(self, toy_spec):
        from dataclasses import replace

        with pytest.raises(ValueError, match="duplicate names/aliases"):
            estimators.register(
                replace(toy_spec, name="toy2", aliases=("toy2",))
            )
        with pytest.raises(ValueError, match="duplicate names/aliases"):
            estimators.register(
                replace(toy_spec, name="toy3", aliases=("t3", "t3"))
            )

    def test_unaccepted_infrastructure_kwargs(self, small_ring):
        # rng for a deterministic method / backend for a backend-unaware
        # one mirror their dedicated arguments: ignored, no TypeError.
        result = estimators.estimate(
            small_ring, 0, method="nibble", rng=1, backend="vectorized",
        )
        assert result.method == "nibble"
        spec = estimators.resolve("nibble")
        assert spec.estimate(
            small_ring, 0, estimator_kwargs={"rng": 1, "backend": "x", "steps": 5}
        ).method == "nibble"
        # weights/counters have no estimator-level meaning: loud error.
        with pytest.raises(ParameterError, match="infrastructure argument"):
            spec.estimate(small_ring, 0, estimator_kwargs={"counters": object()})

    def test_iteration_knobs_have_maxima(self):
        """Wire-exposed iteration counts are bounded so one request cannot
        run unbounded deterministic work on the service dispatch thread."""
        with pytest.raises(ParameterError, match="out of range"):
            estimators.resolve("nibble").validate_params({"steps": 2_000_000_000})
        with pytest.raises(ParameterError, match="out of range"):
            estimators.resolve("exact-ppr").validate_params(
                {"max_iterations": 10**9}
            )
        with pytest.raises(ParameterError, match="out of range"):
            estimators.resolve("crd").validate_params({"iterations": 10**9})

    def test_spec_construction_guards(self):
        with pytest.raises(ValueError, match="docstring"):
            EstimatorSpec(name="x", family="hkpr", doc="  ",
                          estimate_fn=lambda g, s: None)
        with pytest.raises(ValueError, match="family"):
            EstimatorSpec(name="x", family="magic", doc="d",
                          estimate_fn=lambda g, s: None)
        with pytest.raises(ValueError, match="estimate_fn or cluster_fn"):
            EstimatorSpec(name="x", family="hkpr", doc="d")


# ------------------------------------------------------------------ #
# The declarative estimate() entry point
# ------------------------------------------------------------------ #
class TestDeclarativeEstimate:
    def test_alias_dispatch(self, small_ring):
        result = estimators.estimate(
            small_ring, 0, method="teaplus", rng=3, max_walks=200
        )
        assert result.method == "tea+"

    def test_declared_hkpr_params_accepted_as_kwargs(self, small_ring):
        """Every declared knob works through estimate(), including the ones
        that feed the shared HKPRParams object (t, eps_r, delta, p_f)."""
        result = estimators.estimate(
            small_ring, 0, method="tea+", rng=3, t=8.0, eps_r=0.7,
            delta=0.01, max_walks=200,
        )
        assert result.method == "tea+"
        # Same through every takes_params_object method.
        exact = estimators.estimate(small_ring, 0, method="exact", t=2.0)
        assert exact.support_size() > 0

    def test_params_kwargs_override_params_object(self, small_ring):
        base = HKPRParams(t=5.0, delta=0.01)
        overridden = estimators.estimate(
            small_ring, 0, method="exact", params=base, t=2.0
        )
        plain = estimators.estimate(
            small_ring, 0, method="exact", params=HKPRParams(t=2.0, delta=0.01)
        )
        assert overridden.estimates.to_dict() == plain.estimates.to_dict()

    def test_harness_suppresses_experiment_params_for_non_hkpr_methods(
        self, small_ring
    ):
        """An experiment-wide HKPRParams sweep may include nibble/mc-ppr
        configs; the shared params simply don't apply to them."""
        from repro.bench.harness import MethodConfig, run_clustering_query

        record = run_clustering_query(
            small_ring, 0, MethodConfig(method="nibble"),
            params=HKPRParams(delta=1e-3), rng=1,
        )
        assert record.method == "nibble"
        assert record.cluster_size > 0

    def test_params_object_translated_for_fora(self, small_ring):
        params = HKPRParams(eps_r=0.3, delta=0.01, p_f=1e-4)
        result = estimators.estimate(small_ring, 0, method="fora", params=params, rng=3)
        assert result.method == "fora"

    def test_params_object_rejected_where_meaningless(self, small_ring):
        with pytest.raises(ParameterError, match="does not take HKPRParams"):
            estimators.estimate(
                small_ring, 0, method="nibble", params=HKPRParams(delta=0.1)
            )

    def test_flow_method_has_no_vector(self, small_ring):
        with pytest.raises(ParameterError, match="diffusion vector"):
            estimators.estimate(small_ring, 0, method="crd")

    def test_local_cluster_rejects_flow_methods(self, small_ring):
        with pytest.raises(ParameterError, match="sweepable"):
            local_cluster(small_ring, 0, method="simple-local")


# ------------------------------------------------------------------ #
# Default parameters
# ------------------------------------------------------------------ #
class _NoAnswer(Exception):
    pass


@contextmanager
def _alarm(seconds: float):
    """Raise :class:`_NoAnswer` in the body after ``seconds`` of wall time."""

    def ring(signum, frame):
        raise _NoAnswer(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def default_graphs():
    return {
        # A ring of 8 beside an isolated node.
        "ring-plus-isolated": (Graph(9, list(ring_graph(8).edges())), 0),
        "dblp-sim": (load_dataset("dblp-sim"), 42),
    }


class TestDefaultParameters:
    """Every method, given only a graph and a seed, answers or refuses."""

    @pytest.mark.parametrize("graph_name", ["ring-plus-isolated", "dblp-sim"])
    @pytest.mark.parametrize("method", estimators.method_names())
    def test_returns_or_raises_a_typed_error(self, default_graphs, graph_name, method):
        graph, seed = default_graphs[graph_name]
        spec = estimators.resolve(method)
        with _alarm(20):
            try:
                if spec.estimate_fn is not None:
                    spec.estimate(graph, seed, rng=1)
                else:
                    spec.cluster(graph, seed)
            except ReproError:
                pass
