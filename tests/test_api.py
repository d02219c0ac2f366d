"""The public surface: each module's ``__all__`` is exact, resolvable and pinned.

``__all__`` is the public API. Every entry must resolve and be public, and
every public function or class a module defines must be listed, so nothing
public exists outside the list. The lists themselves are pinned below: a
name dropped from the library leaves its list, and cannot return without
this file changing too. The benchmark's tracer wraps functions by walking
``__all__``, so a stale entry would silently lose a span.
"""

import importlib
import inspect

import pytest

PUBLIC = {
    "geometry": {
        "TorusSpec",
        "GridField",
        "HermitianFormField",
        "scaled_identity",
        "complex_hessian",
        "half_laplacian",
        "spectral_gradient",
        "invert_half_laplacian",
        "integrate",
        "min_eigenvalue_field",
    },
    "pluripotential": {
        "Pole",
        "SmoothMode",
        "QuasiPshModel",
        "RegularizationContractError",
        "evaluate",
        "regularize",
        "hessian_lower_bound",
        "lelong_number",
        "skoda_integrability",
        "SkodaResult",
        "density_lp_check",
        "DensityCheck",
    },
    "ma": {
        "AlphaModel",
        "CompatibilityError",
        "PositivityError",
        "IterationLimitError",
        "PositivityReport",
        "SolveResult",
        "ma_density",
        "positivity_check",
        "solve_ma",
        "solve_ma_detailed",
        "poisson_oracle_n1",
        "degeneracy_integrability",
    },
    "continuation": {
        "Scenario",
        "ContinuationState",
        "ContinuationError",
        "enforce_mass_balance",
        "delta_eps",
        "run_continuation",
        "rung_diagnostics",
        "smoothed_potentials",
    },
    "estimates": {
        "HOLDS",
        "VIOLATED",
        "INCONCLUSIVE",
        "Verdict",
        "EstimateReport",
        "EstimateError",
        "SobolevHolderReport",
        "c0_uniformity",
        "siu_residual",
        "comparison_residual",
        "c2_uniformity",
        "delta_trend",
        "holder_seminorms",
        "holder_seminorm",
        "has_admissible_pairs",
        "sobolev_holder_probe",
    },
    "config": {
        "ConfigError",
        "EstimateSettings",
        "OutputSettings",
        "ExperimentConfig",
        "parse_config",
        "canonical_text",
        "with_resolution",
    },
    "report": {
        "RunRecord",
        "build_record",
        "run_experiment",
        "render_csv",
        "render_verdicts",
        "write_artifacts",
        "load_states",
        "rebuild_states",
        "compare_records",
        "CompareResult",
        "SchemaMismatch",
    },
    "scenarios": {"bundled_names", "bundled_experiment", "bundled_descriptions"},
    "cli": {"main"},
}


@pytest.fixture(params=sorted(PUBLIC))
def module(request):
    return importlib.import_module(f"torusma.{request.param}")


def test_every_exported_name_resolves_and_is_public(module):
    assert len(module.__all__) == len(set(module.__all__))
    for name in module.__all__:
        assert not name.startswith("_"), name
        getattr(module, name)


def test_every_public_definition_is_exported(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)


def test_the_surface_is_pinned(module):
    assert set(module.__all__) == PUBLIC[module.__name__.rsplit(".", 1)[1]]
