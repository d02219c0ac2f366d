"""Ladder mechanics: mass balance, normalization constants, warm-started
continuation, the constant-background change of frame, and the per-rung
diagnostics shared by solving and re-checking.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from torusma import continuation, estimates, geometry, pluripotential
from torusma.continuation import (
    ContinuationError,
    Scenario,
    _Ladder,
    _shift_defect,
    delta_eps,
    enforce_mass_balance,
    run_continuation,
    rung_diagnostics,
    smoothed_potentials,
)
from torusma.estimates import (
    _RungMetric,
    _trace_identity_defect,
    comparison_residual,
    siu_residual,
)
from torusma.geometry import (
    GridField,
    HermitianFormField,
    TorusSpec,
    complex_hessian,
    half_laplacian,
    integrate,
    scaled_identity,
)
from torusma.ma import AlphaModel, ma_density, poisson_oracle_n1, solve_ma_detailed
from torusma.pluripotential import (
    Pole,
    QuasiPshModel,
    RegularizationContractError,
    SmoothMode,
    evaluate,
    hessian_lower_bound,
    regularize,
)
from torusma.report import rebuild_states


def _scenario(
    n=1,
    N=32,
    t=0.0,
    psi1=(),
    psi2=(),
    poles2=(),
    p=2.0,
    schedule=(0.1, 0.01),
    tol=1e-10,
    C=None,
):
    spec = TorusSpec(n, N)
    return Scenario(
        name="test",
        spec=spec,
        alpha=AlphaModel(spec, t=t),
        psi1=QuasiPshModel(spec, smooth=tuple(psi1)),
        psi2=QuasiPshModel(spec, smooth=tuple(psi2), poles=tuple(poles2)),
        p=p,
        eps_schedule=schedule,
        tol=tol,
        C_config=C,
    )


def _smooth_scenario(N=32, rungs=5):
    return enforce_mass_balance(
        _scenario(
            N=N,
            t=0.5,
            psi1=(SmoothMode(0.08, (1, 0), 0.3),),
            psi2=(SmoothMode(0.05, (0, 1), 1.1),),
            schedule=tuple(0.25 * 0.5**i for i in range(rungs)),
        )
    )


def _rhs(scenario, state):
    p1 = regularize(scenario.psi1, state.eps)
    p2 = regularize(scenario.psi2, state.eps)
    return GridField(
        scenario.spec, (1 + state.delta_eps) * np.exp(p1.values - p2.values)
    )


class TestScenarioValidation:
    def test_schedule_must_be_decreasing_in_range(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            _scenario(schedule=(0.1, 0.1))
        with pytest.raises(ValueError, match=r"\(0, 0.5\]"):
            _scenario(schedule=(0.6, 0.1))
        with pytest.raises(ValueError, match=r"\(0, 0.5\]"):
            _scenario(schedule=(0.1, -0.01))
        with pytest.raises(ValueError, match="at least one value"):
            _scenario(schedule=())

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            _scenario(p=1.0)

    def test_components_must_share_the_grid(self):
        spec = TorusSpec(1, 32)
        other = TorusSpec(1, 64)
        with pytest.raises(ValueError, match="share one grid"):
            Scenario(
                name="bad",
                spec=spec,
                alpha=AlphaModel(spec, t=0.0),
                psi1=QuasiPshModel(other),
                psi2=QuasiPshModel(spec),
                p=2.0,
                eps_schedule=(0.1,),
            )

    def test_resolved_constant_prefers_the_configured_value(self):
        assert _scenario(C=2.5).resolved_C() == 2.5
        # Without an override the constant is certified from psi2: a single
        # cosine of amplitude a needs C = pi^2 a plus the strictness margin.
        certified = _scenario(psi2=(SmoothMode(0.1, (1, 0)),)).resolved_C()
        assert certified == pytest.approx(0.1 * np.pi**2 + 1e-6, abs=1e-10)


class TestMassBalance:
    def test_balanced_scenarios_pass_through_unchanged(self):
        # t = 0 with empty densities: both masses are exactly 1.
        trivial = _scenario()
        assert enforce_mass_balance(trivial) is trivial
        # t = 1, n = 1: int (1 - cos) = 1 exactly on the grid, so the shift
        # constant is log 1 = 0 and the short-circuit fires again.
        degenerate = _scenario(N=64, t=1.0)
        assert enforce_mass_balance(degenerate) is degenerate

    def test_shift_constant_balances_a_smooth_mismatch(self):
        lopsided = _scenario(psi1=(SmoothMode(0.3, (0, 0)),))
        balanced = enforce_mass_balance(lopsided)
        diff = evaluate(balanced.psi1).values - evaluate(balanced.psi2).values
        assert float(np.exp(diff).mean()) == pytest.approx(1.0, rel=1e-10)

    def test_idempotent_after_balancing(self):
        balanced = _smooth_scenario()
        again = enforce_mass_balance(balanced)
        assert again is balanced

    def test_nonfinite_mass_is_rejected(self):
        overflowing = _scenario(psi1=(SmoothMode(800.0, (0, 0)),))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite and positive"):
                enforce_mass_balance(overflowing)


class TestDeltaEps:
    def test_trivial_closed_form(self):
        # Empty densities and flat background: (1 + delta) * 1 = (1 + eps)^n.
        for n, N in ((1, 16), (2, 8)):
            scenario = _scenario(n=n, N=N)
            for eps in (0.25, 0.1, 0.004):
                want = (1 + eps) ** n - 1
                assert delta_eps(scenario, eps) == pytest.approx(want, abs=1e-12)

    def test_decay_down_the_ladder(self):
        scenario = _smooth_scenario()
        deltas = [abs(delta_eps(scenario, 0.25 * 0.5**i)) for i in range(6)]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 1e-2

    def test_pole_value_agrees_across_resolutions(self):
        # Same balanced model sampled at N and 2N (the shift constant is
        # computed once and carried over verbatim, so the closed form is
        # identical): the quadratures of the smoothed densities agree to
        # refinement accuracy at eps = 1e-2.
        def scenario_at(N, kappa=None):
            spec = TorusSpec(1, N)
            smooth = () if kappa is None else (SmoothMode(kappa, (0, 0)),)
            return Scenario(
                name="pole",
                spec=spec,
                alpha=AlphaModel(spec, t=0.3),
                psi1=QuasiPshModel(spec, smooth=smooth),
                psi2=QuasiPshModel(
                    spec, poles=(Pole(center=(0.5, 0.5), weight=0.5),)
                ),
                p=1.5,
                eps_schedule=(0.1,),
            )
        balanced = enforce_mass_balance(scenario_at(64))
        kappa = balanced.psi1.smooth[-1].amplitude
        d64 = delta_eps(balanced, 1e-2)
        d128 = delta_eps(scenario_at(128, kappa), 1e-2)
        assert abs(d64 - d128) <= 1e-4


class TestRunContinuation:
    def test_trivial_scenario_solves_to_zero(self):
        states = run_continuation(_scenario())
        assert [s.eps for s in states] == [0.1, 0.01]
        for s in states:
            assert float(np.max(np.abs(s.phi.values))) == 0.0
            assert s.newton_steps == 0
            assert s.delta_eps == pytest.approx(s.eps, abs=1e-12)
            np.testing.assert_array_equal(s.Phi.values, s.phi.values)

    def test_states_hold_one_field_per_rung(self):
        # A state keeps its solved ``phi``; ``Phi`` is derived from ``rho``,
        # one array every rung shares.  A first run fills the grid-size
        # caches, so what the second leaves allocated is its states.
        scenario = _smooth_scenario(N=64)
        run_continuation(scenario)
        tracemalloc.start()
        try:
            states = run_continuation(scenario)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        field = scenario.spec.zeros().nbytes
        assert len(states) >= 5
        # one field per rung, ``rho``, and a quarter field for the small objects
        assert held <= (len(states) + 1) * field + field // 4
        assert all(s.rho is states[0].rho for s in states)

    def test_unbalanced_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="not mass-balanced"):
            run_continuation(_scenario(psi1=(SmoothMode(0.3, (0, 0)),)))

    def test_rung_equation_and_invariants_hold(self):
        scenario = _smooth_scenario()
        states = run_continuation(scenario)
        mass_a0 = 1.0  # int det(a + eps I) = (1 + eps)^n with n = 1
        for s in states:
            # defining equation within the solver tolerance
            F = _rhs(scenario, s)
            a = scenario.alpha.coefficients(s.eps)
            log_res = np.abs(
                np.log(ma_density(a, s.phi).values) - np.log(F.values)
            )
            assert float(np.max(log_res)) <= scenario.tol * 1.01
            # mean-zero normalization
            assert abs(integrate(s.phi)) <= 1e-10
            # delta consistency: (1+delta) int exp(...) = int det(a + eps I)
            mass_d = float((F.values / (1 + s.delta_eps)).mean())
            assert (1 + s.delta_eps) * mass_d == pytest.approx(
                (1 + s.eps) * mass_a0, rel=1e-10
            )
            # diagnostics are filled by the estimates layer
            for key in (
                "gmres_info_nonzero",
                "shift_defect",
                "siu_min_residual",
                "weighted_c2_sup",
                "sharp_weighted_sup",
                "trace_defect",
            ):
                assert key in s.diagnostics

    def test_rungs_match_the_linear_oracle(self):
        scenario = _smooth_scenario()
        for s in run_continuation(scenario):
            oracle = poisson_oracle_n1(
                _rhs(scenario, s), scenario.alpha.coefficients(s.eps)
            )
            assert float(np.max(np.abs(oracle.values - s.phi.values))) <= 1e-8

    def test_warm_start_saves_newton_steps(self):
        # Each rung solved again from a zero start is the cold baseline.
        scenario = _smooth_scenario()
        warm = run_continuation(scenario)
        cold = [
            solve_ma_detailed(
                scenario.alpha.coefficients(s.eps), _rhs(scenario, s), tol=scenario.tol
            )
            for s in warm[1:]
        ]
        for w, c in zip(warm[1:], cold):
            assert w.newton_steps <= c.newton_steps
        assert sum(w.newton_steps for w in warm[1:]) < sum(c.newton_steps for c in cold)

    def test_failed_rung_reports_earlier_states(self):
        # The above-threshold pole violates the smoothing-family guarantee at
        # mid-range widths: rung 0 (outside the contractual range) completes,
        # rung 1 fails, and the error carries the completed prefix.
        scenario = enforce_mass_balance(
            _scenario(
                N=128,
                poles2=(Pole(center=(0.5, 0.5), weight=1.4, r0=0.1, r1=0.2),),
                p=1.5,
                schedule=(0.25, 2.0**-8),
                tol=1e-6,
            )
        )
        with pytest.raises(ContinuationError) as info:
            run_continuation(scenario)
        err = info.value
        assert err.rung == 1
        assert err.eps == 2.0**-8
        assert len(err.states) == 1
        assert err.states[0].eps == 0.25
        assert isinstance(err.__cause__, RegularizationContractError)

    def test_programming_error_propagates_unwrapped(self, monkeypatch):
        # Only the failures a rung raises by design become ContinuationError.
        import torusma.continuation as continuation

        def broken(*args, **kwargs):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(continuation, "solve_ma_detailed", broken)
        with pytest.raises(TypeError, match="unexpected argument"):
            run_continuation(_smooth_scenario())


class TestShiftFrame:
    @pytest.mark.parametrize("n, N, t", [(1, 32, 0.7), (2, 16, 1.0)])
    def test_both_determinants_agree_pointwise(self, n, N, t):
        # det(a + eps I + H(phi)) and det((1+eps) I + H(phi + rho)) are the
        # same matrix determinant; computed through independent code paths
        # the gap is pure round-off.
        spec = TorusSpec(n, N)
        alpha = AlphaModel(spec, t=t)
        coords = spec.coordinates()
        vals = 0.01 * sum(np.cos(2 * np.pi * c) for c in coords)
        phi = GridField(spec, vals * np.ones(spec.shape))
        Phi = GridField(spec, phi.values + alpha.rho().values)
        det_g = ma_density(scaled_identity(spec, 1.1), Phi).values
        assert _shift_defect(phi, det_g, alpha, 0.1) <= 1e-12


_ESTIMATE_KEYS = (
    "shift_defect",
    "siu_min_residual",
    "weighted_c2_sup",
    "sharp_weighted_sup",
    "trace_defect",
    "comparison_min",
    "q_sup",
)


_LADDERS = [
    _scenario(
        N=32,
        t=0.5,
        psi1=(SmoothMode(0.08, (1, 0), 0.3),),
        psi2=(SmoothMode(0.05, (0, 1), 1.1),),
        poles2=(Pole(center=(0.5, 0.5), weight=0.3),),
        schedule=(0.25, 0.125, 0.0625),
    ),
    _scenario(
        n=2,
        N=8,
        t=0.5,
        psi1=(SmoothMode(0.05, (1, 0, 0, 0), 0.3),),
        psi2=(SmoothMode(0.03, (0, 0, 1, 0), 1.1),),
        schedule=(0.2, 0.05),
    ),
]


class TestOneDiagnosticsPath:
    """``run`` and ``verify`` compute per-rung estimates through one function."""

    @pytest.fixture(params=_LADDERS, ids=["n1", "n2"])
    def ladder(self, request):
        scenario = enforce_mass_balance(request.param)
        return scenario, run_continuation(scenario)

    @pytest.mark.parametrize("scenario", _LADDERS, ids=["n1", "n2"])
    def test_no_dense_form_is_built(self, scenario, monkeypatch):
        # Solving and re-checking a ladder touch only component forms.
        scenario = enforce_mass_balance(scenario)

        def refuse(*args):
            raise AssertionError("dense Hermitian form built on the ladder")

        monkeypatch.setattr(HermitianFormField, "__post_init__", refuse)
        monkeypatch.setattr(HermitianFormField, "values", property(refuse))
        states = run_continuation(scenario)
        rebuild_states(
            scenario,
            np.array([s.eps for s in states]),
            np.array([s.delta_eps for s in states]),
            np.array([s.newton_steps for s in states]),
            np.stack([s.phi.values for s in states]),
        )

    @pytest.mark.parametrize("eps", [0.25, 0.1, 0.01])
    def test_smoothed_potentials_certify_psi2_once(self, eps):
        # One rung's smoothing yields the same fields as ``regularize``, the
        # constant ``hessian_lower_bound`` certifies at sqrt(eps), and the
        # Hessian and half-Laplacian of the smoothed psi2, both inside the
        # guaranteed range (eps <= 0.1) and above it.
        scenario = enforce_mass_balance(_LADDERS[0])
        p1, p2, weight2 = smoothed_potentials(_Ladder.build(scenario), eps)
        np.testing.assert_array_equal(p1.values, regularize(scenario.psi1, eps).values)
        np.testing.assert_array_equal(p2.values, regularize(scenario.psi2, eps).values)
        H, laplacian, C_cert, _ = weight2
        assert C_cert == hessian_lower_bound(scenario.psi2, s_min=float(np.sqrt(eps)))
        for got, want in zip(H.parts, complex_hessian(p2).parts):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(laplacian, half_laplacian(p2).values)

    def test_rebuilt_diagnostics_equal_the_solved_ones(self, ladder):
        scenario, states = ladder
        rebuilt = rebuild_states(
            scenario,
            np.array([s.eps for s in states]),
            np.array([s.delta_eps for s in states]),
            np.array([s.newton_steps for s in states]),
            np.stack([s.phi.values for s in states]),
        )
        assert len(rebuilt) == len(states)
        for solved, again in zip(states, rebuilt):
            for key in _ESTIMATE_KEYS:
                assert again.diagnostics[key] == solved.diagnostics[key], key
            np.testing.assert_array_equal(again.Phi.values, solved.Phi.values)

    def test_comparison_min_is_the_worse_public_residual(self, ladder):
        scenario, states = ladder
        alpha = scenario.alpha
        for s in states:
            C_cert = hessian_lower_bound(scenario.psi2, s_min=float(np.sqrt(s.eps)))
            psi2_eps = regularize(scenario.psi2, s.eps)
            singular = comparison_residual(s.Phi, psi2_eps, C_cert, eps=s.eps)
            background = comparison_residual(s.Phi, alpha.eta(), alpha.t + 1e-6, eps=s.eps)
            assert s.diagnostics["comparison_min"] == min(
                float(np.min(singular.values)), float(np.min(background.values))
            )
            q = scenario.spec.n + half_laplacian(s.Phi).values / (1 + s.eps)
            assert s.diagnostics["q_sup"] == float(np.max(q))

    def test_every_diagnostic_is_its_public_one_off(self, ladder):
        scenario, states = ladder
        spec, C = scenario.spec, scenario.resolved_C()
        weight = evaluate(scenario.psi2).values
        keep = _away_from_poles(scenario.psi2)
        for s in states:
            F = _rhs(scenario, s)
            f = GridField(spec, np.log(F.values) - spec.n * np.log1p(s.eps))
            siu = siu_residual(s.Phi, f, s.eps, C)
            assert s.diagnostics["siu_min_residual"] == float(np.min(siu.values))
            m = _RungMetric.build(s.Phi, s.eps)
            assert s.diagnostics["trace_defect"] == _trace_identity_defect(m)
            det_g = ma_density(scaled_identity(spec, 1 + s.eps), s.Phi).values
            assert s.diagnostics["shift_defect"] == _shift_defect(
                s.phi, det_g, scenario.alpha, s.eps
            )
            # both weighted second-order suprema, from scratch: the smoothed
            # weight over the grid, the sharp one away from the poles
            q = spec.n + half_laplacian(s.Phi).values / (1 + s.eps)
            psi2_eps = regularize(scenario.psi2, s.eps).values
            S = np.log(q) + psi2_eps - 2.0 * C * s.Phi.values
            assert s.diagnostics["weighted_c2_sup"] == float(np.exp(np.max(S)))
            S = np.log(q) + weight - 2.0 * C * s.Phi.values
            assert s.diagnostics["sharp_weighted_sup"] == float(np.exp(np.max(S[keep])))


def _away_from_poles(model):
    """Grid points at least one spacing from every pole of ``model``."""
    spec = model.spec
    keep = np.ones(spec.shape, dtype=bool)
    for pole in model.poles:
        d2 = sum(
            (np.mod(c - a + 0.5, 1.0) - 0.5) ** 2
            for c, a in zip(spec.coordinates(), pole.center)
        )
        keep &= np.sqrt(d2) >= spec.h
    return keep


_POLE_LADDERS = {
    1: _scenario(
        N=32,
        t=0.5,
        psi1=(SmoothMode(0.08, (1, 0), 0.3),),
        poles2=(Pole(center=(0.5, 0.5), weight=0.3),),
        schedule=(0.1, 0.05, 0.025),
    ),
    2: _scenario(
        n=2,
        N=8,
        t=0.5,
        psi1=(SmoothMode(0.05, (1, 0, 0, 0), 0.3),),
        poles2=(Pole(center=(0.5,) * 4, weight=0.3),),
        schedule=(0.1, 0.05),
    ),
}


class TestRungWork:
    """Each field of a rung is transformed once; the sharp models once per ladder."""

    @pytest.mark.parametrize("n, limit", [(1, 20), (2, 42)])
    def test_transforms_per_guarded_rung(self, n, limit, monkeypatch):
        scenario = enforce_mass_balance(_POLE_LADDERS[n])
        ladder = _Ladder.build(scenario)
        eps = scenario.eps_schedule[-1]
        phi = GridField(scenario.spec, scenario.spec.zeros())
        count = []
        for name in ("_rfftn", "_irfftn"):
            real = getattr(geometry, name)

            def counted(*args, real=real):
                count.append(1)
                return real(*args)

            monkeypatch.setattr(geometry, name, counted)
        p1, p2, weight2 = smoothed_potentials(ladder, eps)
        rung_diagnostics(ladder, eps, 0.0, phi, p1, p2, weight2)
        assert len(count) <= limit

    def test_sharp_models_are_sampled_once_per_ladder(self, monkeypatch):
        # Every sampling at width 0 counts, the default argument included.
        # The ladder samples each model once, and takes the curvature bound
        # of ``resolved_C``, needed when C is not set, from the sharp psi2.
        scenario = enforce_mass_balance(_POLE_LADDERS[1])
        assert scenario.C_config is None
        assert _Ladder.build(scenario).C == scenario.resolved_C()
        sharp = []
        real = pluripotential.evaluate

        def counted(model, smoothing=0.0):
            if smoothing == 0.0:
                sharp.append(model)
            return real(model, smoothing)

        for module in (pluripotential, continuation, estimates):
            monkeypatch.setattr(module, "evaluate", counted, raising=False)
        once = [scenario.psi1, scenario.psi2]
        states = run_continuation(scenario)
        assert sharp == once
        rebuild_states(
            scenario,
            np.array([s.eps for s in states]),
            np.array([s.delta_eps for s in states]),
            np.array([s.newton_steps for s in states]),
            np.stack([s.phi.values for s in states]),
        )
        assert sharp == once * 2

