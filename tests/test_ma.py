"""Determinant-operator and solver checks against closed forms and oracles.

The background family has diagonal coefficients ``1 - t cos(2 pi x_j)`` per
complex axis, which is exactly ``I + H(rho)`` for the closed-form potential
``rho = (t/pi^2) sum_j cos(2 pi x_{2j})``; most expected values below follow
from that identity and from ``H(a cos(2 pi x_0)) = -pi^2 a cos(2 pi x_0)``.
"""

import numpy as np
import pytest

import torusma.ma as ma
from torusma.geometry import (
    GridField,
    HermitianFormField,
    TorusSpec,
    _MetricData,
    _hessian_parts,
    _prolong,
    _restrict,
    complex_hessian,
    half_laplacian,
    integrate,
    min_eigenvalue_field,
    scaled_identity,
)
from torusma.ma import (
    AlphaModel,
    CompatibilityError,
    IterationLimitError,
    PositivityError,
    degeneracy_integrability,
    ma_density,
    poisson_oracle_n1,
    positivity_check,
    solve_ma,
    solve_ma_detailed,
)
from conftest import trig_poly


SPEC1 = TorusSpec(1, 64)


def _mode(spec, amplitude, axis=0):
    x = spec.axis_coordinate(axis)
    return GridField(spec, amplitude * np.cos(2 * np.pi * x) * np.ones(spec.shape))


def _manufactured_n1(spec=SPEC1, amplitude=0.06):
    phi = _mode(spec, amplitude)
    return phi, ma_density(scaled_identity(spec), phi)


def _manufactured_n2(N=16, amplitude=0.1):
    spec = TorusSpec(2, N)
    vals = amplitude * (
        np.cos(2 * np.pi * spec.axis_coordinate(0))
        + np.cos(2 * np.pi * spec.axis_coordinate(2))
    )
    phi = GridField(spec, vals * np.ones(spec.shape))
    return spec, phi, ma_density(scaled_identity(spec), phi)


class TestAlphaModel:
    def test_potential_and_coefficients_are_linked(self):
        # I + H(rho) must equal the closed-form coefficient field: the model
        # is a potential and its curvature, not two unrelated formulas.
        for n, N, t in ((1, 32, 0.7), (2, 12, 1.0)):
            spec = TorusSpec(n, N)
            alpha = AlphaModel(spec, t=t)
            lhs = scaled_identity(spec).values + complex_hessian(alpha.rho()).values
            np.testing.assert_allclose(
                lhs, alpha.coefficients().values, atol=1e-12
            )

    def test_eta_is_minus_rho(self):
        alpha = AlphaModel(SPEC1, t=0.5)
        np.testing.assert_array_equal(alpha.eta().values, -alpha.rho().values)

    def test_total_mass_is_a_power_of_one_plus_eps(self):
        # int det(a + eps I) = prod_j int (1 - t cos + eps) = (1 + eps)^n,
        # exactly on any even grid because each cosine averages to zero.
        for n, N, t in ((1, 32, 1.0), (2, 12, 0.7)):
            spec = TorusSpec(n, N)
            alpha = AlphaModel(spec, t=t)
            for eps in (0.0, 0.1, 0.25):
                det = ma_density(alpha.coefficients(eps), GridField(spec, spec.zeros()))
                assert integrate(det) == pytest.approx((1 + eps) ** n, abs=1e-13)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="degeneracy parameter"):
            AlphaModel(SPEC1, t=1.5)
        with pytest.raises(ValueError, match="integrability exponent"):
            AlphaModel(SPEC1, t=0.5, eps0=0.0)


class TestMaDensity:
    def test_n1_is_affine_in_the_hessian(self):
        phi = GridField(SPEC1, trig_poly(SPEC1, 2, seed=5).values * 0.02)
        got = ma_density(scaled_identity(SPEC1), phi)
        want = 1.0 + half_laplacian(phi).values
        np.testing.assert_allclose(got.values, want, atol=1e-12)

    def test_n2_product_solution_factorizes(self):
        spec, phi, F = _manufactured_n2(N=12, amplitude=0.05)
        c0 = np.cos(2 * np.pi * spec.axis_coordinate(0))
        c2 = np.cos(2 * np.pi * spec.axis_coordinate(2))
        want = (1 - 0.05 * np.pi**2 * c0) * (1 - 0.05 * np.pi**2 * c2)
        np.testing.assert_allclose(F.values, want * np.ones(spec.shape), atol=1e-12)

    def test_positivity_check_reports_the_minimum_eigenvalue(self):
        good = positivity_check(scaled_identity(SPEC1), _mode(SPEC1, 0.05))
        assert good.ok
        assert good.min_eig == pytest.approx(1 - 0.05 * np.pi**2, abs=1e-10)
        bad = positivity_check(scaled_identity(SPEC1), _mode(SPEC1, 0.2))
        assert not bad.ok
        assert bad.min_eig == pytest.approx(1 - 0.2 * np.pi**2, abs=1e-10)


class TestSolve:
    def test_solve_builds_no_dense_form(self, monkeypatch):
        # Every form inside the solver is Hermitian by construction: neither
        # the validating dense constructor nor the dense view is used.
        spec, phi, F = _manufactured_n2(N=12, amplitude=0.05)
        a = scaled_identity(spec)

        def refuse(*args):
            raise AssertionError("dense Hermitian form built inside the solver")

        monkeypatch.setattr(HermitianFormField, "__post_init__", refuse)
        monkeypatch.setattr(HermitianFormField, "values", property(refuse))
        result = solve_ma_detailed(a, F)
        assert result.newton_steps > 0
        assert result.residual_sup <= 1e-10

    def test_n1_manufactured_recovery(self):
        phi_star, F = _manufactured_n1()
        result = solve_ma_detailed(scaled_identity(SPEC1), F)
        want = phi_star.values - phi_star.values.mean()
        assert float(np.max(np.abs(result.phi.values - want))) <= 1e-10
        assert abs(integrate(result.phi)) <= 1e-10

    def test_n2_manufactured_recovery(self):
        # lambda_min(I + H(phi*)) = 1 - 0.1 pi^2 ~ 0.013: Newton is damped at
        # first, and looser inner solves must not cost it outer steps.  The
        # fixed forcing min(1e-2, 0.05 r) took 7 steps here.
        spec, phi_star, F = _manufactured_n2(N=16, amplitude=0.1)
        result = solve_ma_detailed(scaled_identity(spec), F, tol=1e-11)
        assert float(np.max(np.abs(result.phi.values - phi_star.values))) <= 1e-10
        assert result.newton_steps <= 7

    def test_n1_direction_solves_the_linearization_exactly(self):
        # The n = 1 operator is u -> H(u)/g; its range is mean(g v) = 0, so
        # the direction leaves a constant linearized residual, nothing else.
        spec = TorusSpec(1, 64)
        a = AlphaModel(spec, t=0.7).coefficients(0.05)
        g = ma._metric_form(a, _mode(spec, 0.03, axis=1))
        data = _MetricData.from_form(g)
        rng = np.random.default_rng(7)
        for _ in range(3):
            r = rng.standard_normal(spec.shape)
            u, info = ma._newton_direction(spec, data, r, 0.1)
            lin = data.contract(_hessian_parts(u)) + r
            assert info == 0
            assert abs(u.mean()) <= 1e-15
            assert np.ptp(lin) <= 1e-12 * np.max(np.abs(r))

    def test_n1_solve_never_calls_gmres(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("GMRES called for an n = 1 Newton direction")

        monkeypatch.setattr(ma, "gmres", refuse)
        phi_star, F = _manufactured_n1()
        result = solve_ma_detailed(scaled_identity(SPEC1), F)
        assert result.newton_steps > 0
        assert result.gmres_info_nonzero == 0

    def test_residual_history_strictly_decreases(self):
        phi_star, F = _manufactured_n1()
        result = solve_ma_detailed(scaled_identity(SPEC1), F)
        hist = result.residual_history
        assert len(hist) == result.newton_steps + 1
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert hist[-1] == result.residual_sup <= 1e-10

    def test_warm_start_from_the_solution_is_immediate(self):
        phi_star, F = _manufactured_n1()
        cold = solve_ma_detailed(scaled_identity(SPEC1), F)
        mean_zero = GridField(SPEC1, phi_star.values - phi_star.values.mean())
        warm = solve_ma_detailed(scaled_identity(SPEC1), F, phi0=mean_zero)
        assert warm.newton_steps == 0
        assert cold.newton_steps > 0

    def test_solve_ma_returns_the_phi_field(self):
        phi_star, F = _manufactured_n1()
        phi = solve_ma(scaled_identity(SPEC1), F)
        want = phi_star.values - phi_star.values.mean()
        assert float(np.max(np.abs(phi.values - want))) <= 1e-10

    def test_rejects_nonpositive_density(self):
        with pytest.raises(ValueError, match="positive everywhere"):
            solve_ma_detailed(scaled_identity(SPEC1), _mode(SPEC1, 1.0))

    def test_rejects_mass_mismatch(self):
        _, F = _manufactured_n1()
        scaled = GridField(SPEC1, F.values * 1.01)
        with pytest.raises(CompatibilityError, match="differs from background mass"):
            solve_ma_detailed(scaled_identity(SPEC1), scaled)

    def test_rejects_indefinite_initial_iterate(self):
        _, F = _manufactured_n1()
        with pytest.raises(PositivityError, match="initial iterate"):
            solve_ma_detailed(scaled_identity(SPEC1), F, phi0=_mode(SPEC1, 0.2))

    def test_unreachable_tolerance_stalls_safely(self):
        # Below the spectral round-off floor no step can decrease the sup
        # residual; the stall is reported, not looped on.
        _, F = _manufactured_n1()
        with pytest.raises(PositivityError, match="no step length"):
            solve_ma_detailed(scaled_identity(SPEC1), F, tol=1e-16)

    def test_step_cap_raises_with_diagnostics(self, monkeypatch):
        _, F = _manufactured_n1()
        monkeypatch.setattr(ma, "_MAX_NEWTON_STEPS", 2)
        with pytest.raises(IterationLimitError) as info:
            solve_ma_detailed(scaled_identity(SPEC1), F)
        assert info.value.steps == 2
        assert info.value.residual > 0

    def test_gmres_shortfalls_are_counted(self, monkeypatch):
        spec, _, F = _manufactured_n2(N=12, amplitude=0.05)
        clean = solve_ma_detailed(scaled_identity(spec), F)
        assert clean.gmres_info_nonzero == 0
        real_gmres = ma.gmres

        def short(*args, **kwargs):
            x, _ = real_gmres(*args, **kwargs)
            return x, 1

        monkeypatch.setattr(ma, "gmres", short)
        result = solve_ma_detailed(scaled_identity(spec), F)
        assert result.newton_steps > 0
        assert result.gmres_info_nonzero == result.newton_steps

    def test_non_finite_newton_direction_is_rejected(self, monkeypatch):
        spec, _, F = _manufactured_n2(N=12, amplitude=0.05)

        def broken(A, b, **kwargs):
            return np.full_like(b, np.nan), 0

        monkeypatch.setattr(ma, "gmres", broken)
        with pytest.raises(ValueError, match="non-finite"):
            solve_ma_detailed(scaled_identity(spec), F)

    def test_non_finite_n1_newton_direction_is_rejected(self, monkeypatch):
        _, F = _manufactured_n1()

        def broken(values):
            return np.full_like(values, np.nan)

        monkeypatch.setattr(ma, "_solve_half_laplacian", broken)
        with pytest.raises(ValueError, match="non-finite"):
            solve_ma_detailed(scaled_identity(SPEC1), F)


def _indefinite(values, N):
    """A prolongation whose correction leaves ``a + H`` indefinite near I."""
    x = np.arange(N) / N
    shape = (N,) + (1,) * (values.ndim - 1)
    return np.broadcast_to(np.cos(2 * np.pi * x).reshape(shape), (N,) * values.ndim)


class TestNestedStart:
    @pytest.mark.parametrize("n, M", [(1, 16), (2, 8)])
    def test_prolongation_is_exact_on_band_limited_fields(self, n, M):
        # Every mode below the coarse Nyquist frequency is kept, so the
        # prolonged samples are the fine samples of the same polynomial, and
        # injection gives the coarse samples back.
        coarse, fine = TorusSpec(n, M), TorusSpec(n, 2 * M)
        u = trig_poly(coarse, M // 2 - 1, seed=3).values
        scale = 1.0 / np.max(np.abs(u))
        u *= scale
        want = trig_poly(fine, M // 2 - 1, seed=3).values * scale
        up = _prolong(u, 2 * M)
        assert float(np.max(np.abs(up - want))) <= 1e-14
        assert float(np.max(np.abs(_restrict(up) - u))) <= 1e-14

    def test_band_limited_cold_solve_needs_no_fine_step(self):
        # |k| <= 1 is resolved on the N = 12 grid, so the coarse solution
        # prolongs to the fine one and the fine start already meets tol.
        spec, phi_star, F = _manufactured_n2(N=24, amplitude=0.05)
        result = solve_ma_detailed(scaled_identity(spec), F)
        assert result.newton_steps == 0
        assert result.coarse_newton_steps > 0
        assert result.nested_fallbacks == 0
        assert result.residual_sup <= 1e-10
        assert float(np.max(np.abs(result.phi.values - phi_star.values))) <= 1e-10

    @pytest.mark.parametrize(
        "failure",
        [PositivityError("stalled"), IterationLimitError("capped", steps=3, residual=1.0)],
        ids=["positivity", "iteration-limit"],
    )
    def test_failed_coarse_solve_falls_back_to_the_given_start(self, failure, monkeypatch):
        spec, phi_star, F = _manufactured_n2(N=16, amplitude=0.05)
        a = scaled_identity(spec)
        real = ma.solve_ma_detailed

        def coarse_fails(a, F, phi0=None, tol=1e-10):
            if a.spec.N < spec.N:
                raise failure
            return real(a, F, phi0, tol)

        monkeypatch.setattr(ma, "solve_ma_detailed", coarse_fails)
        result = ma.solve_ma_detailed(a, F)
        zero_start = np.max(np.abs(np.log(a.det()) - np.log(F.values)))
        assert result.residual_history[0] == zero_start
        assert result.newton_steps > 0
        assert result.coarse_newton_steps == 0
        assert result.nested_fallbacks == 1
        assert float(np.max(np.abs(result.phi.values - phi_star.values))) <= 1e-10

    def test_indefinite_corrected_start_falls_back(self, monkeypatch):
        spec, phi_star, F = _manufactured_n2(N=16, amplitude=0.05)
        a = scaled_identity(spec)
        monkeypatch.setattr(ma, "_prolong", _indefinite)
        result = solve_ma_detailed(a, F)
        zero_start = np.max(np.abs(np.log(a.det()) - np.log(F.values)))
        assert result.residual_history[0] == zero_start
        assert result.coarse_newton_steps > 0
        assert result.nested_fallbacks == 1
        assert float(np.max(np.abs(result.phi.values - phi_star.values))) <= 1e-10

    def test_coarse_counts_add_up_through_every_level(self, monkeypatch):
        # N = 32 nests at 16 and again at 8.  |k| <= 3 is resolved at N = 8,
        # so only the N = 8 solve takes steps; its steps and GMRES shortfalls
        # reach the N = 32 result through the N = 16 one.
        spec = TorusSpec(2, 32)
        f = trig_poly(spec, 3, seed=1)
        lam = float(np.min(min_eigenvalue_field(complex_hessian(f)).values))
        a = scaled_identity(spec)
        F = ma_density(a, GridField(spec, f.values * (0.2 / -lam)))
        grids = []
        real_gmres = ma.gmres

        def short(A, b, **kwargs):
            grids.append(round(b.size**0.25))
            x, _ = real_gmres(A, b, **kwargs)
            return x, 1

        monkeypatch.setattr(ma, "gmres", short)
        result = solve_ma_detailed(a, F)
        assert result.newton_steps == 0
        assert grids and set(grids) == {8}
        assert result.coarse_newton_steps == result.gmres_info_nonzero == len(grids)
        assert result.nested_fallbacks == 0

    def test_no_coarse_solve_at_n1_or_where_half_the_grid_is_too_small(
        self, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("coarse solve where none applies")

        monkeypatch.setattr(ma, "_nested_start", refuse)
        spec, _, F = _manufactured_n2(N=12, amplitude=0.05)
        assert solve_ma_detailed(scaled_identity(spec), F).coarse_newton_steps == 0
        for N in (32, 64):
            phi_star, F = _manufactured_n1(TorusSpec(1, N))
            result = solve_ma_detailed(scaled_identity(phi_star.spec), F)
            assert result.newton_steps > 0
            assert result.coarse_newton_steps == result.nested_fallbacks == 0


class TestForcing:
    TOL = 1e-10

    @pytest.mark.parametrize(
        "r, r_prev, eta_prev",
        [
            (8.0, None, None),
            (3.0, 8.0, 0.05),
            (0.9, 1.0, 0.05),
            (1e-3, 1.0, 0.05),
            (1e-9, 1e-4, 1e-3),
            (1.1e-10, 1e-9, 0.4),
            (2e-10, 1e-3, 0.9),
        ],
    )
    def test_forcing_lies_between_the_floor_and_the_cap(self, r, r_prev, eta_prev):
        eta = ma._forcing(r, r_prev, eta_prev, self.TOL)
        floor = 0.5 * self.TOL / r
        assert floor <= eta <= max(0.1, floor)

    def test_first_step_uses_the_cap(self):
        assert ma._forcing(1.0, None, None, self.TOL) == ma._FORCING_MAX

    def test_choice_two_tracks_the_squared_residual_ratio(self):
        eta = ma._forcing(1e-3, 1e-1, 0.05, self.TOL)
        assert eta == pytest.approx(0.9 * 1e-4, rel=1e-12)

    def test_safeguard_keeps_a_large_previous_forcing(self):
        # 0.9 * 0.5^2 > 0.1: a sudden residual drop after a loose solve
        # does not tighten the next one below the cap.
        assert ma._forcing(1e-6, 1.0, 0.5, 1e-20) == ma._FORCING_MAX
        assert ma._forcing(1e-6, 1.0, 0.3, 1e-20) == pytest.approx(0.9e-12, rel=1e-12)

    def test_floor_stops_over_solving_the_last_step(self):
        assert ma._forcing(4e-10, 1e-5, 0.05, self.TOL) == 0.5 * self.TOL / 4e-10


class TestPoissonOracle:
    def test_round_trip_identity_background(self):
        phi_star, F = _manufactured_n1()
        got = poisson_oracle_n1(F)
        want = phi_star.values - phi_star.values.mean()
        np.testing.assert_allclose(got.values, want, atol=1e-13)

    def test_round_trip_with_background_coefficients(self):
        alpha = AlphaModel(SPEC1, t=0.5)
        a = alpha.coefficients(0.1)
        phi_star = _mode(SPEC1, 0.06)
        F = ma_density(a, phi_star)
        got = poisson_oracle_n1(F, a)
        want = phi_star.values - phi_star.values.mean()
        np.testing.assert_allclose(got.values, want, atol=1e-12)

    def test_oracle_matches_the_newton_solver(self):
        alpha = AlphaModel(SPEC1, t=0.5)
        a = alpha.coefficients(0.1)
        F = ma_density(a, _mode(SPEC1, 0.06))
        newton = solve_ma(a, F)
        oracle = poisson_oracle_n1(F, a)
        assert float(np.max(np.abs(newton.values - oracle.values))) <= 1e-12

    def test_rejects_mass_mismatch_and_higher_dimension(self):
        _, F = _manufactured_n1()
        with pytest.raises(CompatibilityError):
            poisson_oracle_n1(GridField(SPEC1, F.values * 1.01))
        spec2 = TorusSpec(2, 8)
        with pytest.raises(ValueError, match="dimension one"):
            poisson_oracle_n1(GridField(spec2, np.ones(spec2.shape)))


class TestDegeneracyIntegrability:
    def test_nondegenerate_background_is_flat_under_refinement(self):
        # At t = 0.9 the density is bounded away from zero, so midpoint
        # quadrature of the smooth integrand converges spectrally.
        vals = degeneracy_integrability(AlphaModel(TorusSpec(1, 32), t=0.9), 0.4)
        assert abs(vals[2] - vals[1]) / vals[1] <= 1e-10

    def test_degenerate_background_increment_dichotomy(self):
        # At t = 1 the reciprocal density behaves like x^{-2 eps0} across the
        # degenerate sheet: refinement increments die out for eps0 < 1/2 and
        # grow beyond it.
        alpha = AlphaModel(TorusSpec(1, 32), t=1.0)
        fine = degeneracy_integrability(alpha, 0.3)
        d = np.diff(fine)
        assert d[1] / d[0] < 0.9
        coarse = degeneracy_integrability(alpha, 0.6)
        d = np.diff(coarse)
        assert d[1] / d[0] > 1.1
