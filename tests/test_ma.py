"""Determinant-operator and solver checks against closed forms and oracles.

The background family has diagonal coefficients ``1 - t cos(2 pi x_j)`` per
complex axis, which is exactly ``I + H(rho)`` for the closed-form potential
``rho = (t/pi^2) sum_j cos(2 pi x_{2j})``; most expected values below follow
from that identity and from ``H(a cos(2 pi x_0)) = -pi^2 a cos(2 pi x_0)``.
"""

import ctypes
import mmap
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import torusma.krylov as krylov
import torusma.ma as ma
from torusma.continuation import _mass
from torusma.geometry import (
    GridField,
    HermitianFormField,
    TorusSpec,
    _MetricData,
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
from conftest import dense, trig_poly


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
            lhs = dense(scaled_identity(spec) + complex_hessian(alpha.rho()))
            np.testing.assert_allclose(lhs, dense(alpha.coefficients()), atol=1e-12)

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
        for eps0 in (0.0, float("nan")):
            with pytest.raises(ValueError, match="integrability exponent"):
                AlphaModel(SPEC1, t=0.5, eps0=eps0)


class TestBackgroundMass:
    # At n = 1 the determinant of a background form is its broadcast part,
    # and from N = 256 on numpy's pairwise mean of such a view can differ in
    # its last bit from the mean of the copy the form used to hold.
    @pytest.mark.parametrize("n,N", [(1, 32), (1, 256), (1, 512), (2, 8), (2, 16)])
    def test_the_mass_is_that_of_the_materialized_form(self, n, N):
        spec = TorusSpec(n, N)
        for t in (0.3, 0.7, 1.0):
            for eps in (0.0, 0.01, 0.1, 0.25):
                a = AlphaModel(spec, t=t).coefficients(eps)
                copy = HermitianFormField(spec, [np.array(p) for p in a.parts])
                assert _mass(a) == _mass(copy)


def _traced_fields(spec, call) -> float:
    """Traced peak of ``call()`` above its start, in grid fields, after one
    warm-up call that fills the multiplier caches."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (8 * np.prod(spec.shape))


class TestMemoryBudget:
    """Traced peaks at n = 2, N = 16, in grid fields.  The metric form is
    built in the Hessian's buffers, the determinant and the smallest
    eigenvalue take two fields of temporaries, and the Newton loop holds no
    stale form and no rejected trial; before that these read 9.0 and 30.0.
    The solve's fine grid backtracks once from a positive trial whose
    residual did not fall, so the release of rejected trials is covered."""

    @staticmethod
    def _problem():
        spec = TorusSpec(2, 16)
        u = trig_poly(spec, kmax=6, seed=1)  # beyond what N = 8 resolves
        lam = float(np.min(min_eigenvalue_field(complex_hessian(u)).values))
        phi = GridField(spec, u.values * (0.9 / -lam))  # min eig of I + H is 0.1
        a = scaled_identity(spec)
        return spec, a, phi, ma_density(a, phi)

    def test_the_density_and_positivity_check(self):
        spec, a, phi, _ = self._problem()
        fields = _traced_fields(spec, lambda: (ma_density(a, phi), positivity_check(a, phi)))
        assert fields <= 7.5  # 7.13 measured

    def test_one_solve(self):
        spec, a, _, F = self._problem()
        result = solve_ma_detailed(a, F)
        assert result.newton_steps > 0 and result.coarse is None
        fields = _traced_fields(spec, lambda: solve_ma_detailed(a, F))
        assert fields <= 20.0  # 19.33 measured


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

    def test_n1_direction_solves_the_equation_exactly(self):
        # At n = 1 det(a + H(phi)) is affine in phi, so the direction is the
        # exact correction: after a full step det - F is the constant (its
        # mean) that the spectral solve drops, and the direction has zero mean.
        spec = TorusSpec(1, 64)
        a = AlphaModel(spec, t=0.7).coefficients(0.05)
        phi = _mode(spec, 0.03, axis=1)
        data = _MetricData.from_form(ma._metric_form(a, phi))
        for seed in range(3):
            F = np.exp(0.3 * trig_poly(spec, 3, seed=seed).values)
            r = np.log(data.det) - np.log(F)
            u, info = ma._newton_direction(spec, data, r, 0.1)
            step = GridField(spec, phi.values + u)
            assert info == 0
            assert abs(u.mean()) <= 1e-15
            assert np.ptp(ma_density(a, step).values - F) <= 1e-12 * np.max(np.abs(F))

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
        assert hist[-1] <= 1e-10

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

    def test_rejects_a_tolerance_that_is_not_positive(self):
        _, F = _manufactured_n1()
        for tol in (float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                solve_ma_detailed(scaled_identity(SPEC1), F, tol=tol)

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

    def test_an_eigenvalue_below_the_positivity_margin_is_rejected(self):
        # 5e-11 I is positive definite but below the 1e-10 margin: the check
        # fails and the solver refuses the start, even though the zero start
        # already solves det(a) = F.
        a = scaled_identity(SPEC1, 5e-11)
        report = positivity_check(a, GridField(SPEC1, SPEC1.zeros()))
        assert not report.ok and report.min_eig == pytest.approx(5e-11, rel=1e-12)
        with pytest.raises(PositivityError, match="initial iterate"):
            solve_ma_detailed(a, GridField(SPEC1, a.det()))

    def test_unreachable_tolerance_stalls_safely(self):
        # Below the spectral round-off floor no step can decrease the sup
        # residual; the stall is reported as a stall, not looped on.
        _, F = _manufactured_n1()
        with pytest.raises(PositivityError, match="no step length") as info:
            solve_ma_detailed(scaled_identity(SPEC1), F, tol=1e-16)
        assert "residual: it stalled at" in str(info.value)
        assert "against tol 1e-16" in str(info.value)
        assert "positive form" not in str(info.value)

    def test_lost_positivity_is_reported_as_such(self, monkeypatch):
        # Only the start passes the gate: every trial of the first line
        # search leaves the form indefinite, which is not a stall.
        _, F = _manufactured_n1()
        real = ma._positivity
        calls = []

        def start_only(form):
            calls.append(form)
            report = real(form)
            return report if len(calls) == 1 else ma.PositivityReport(False, report.min_eig)

        monkeypatch.setattr(ma, "_positivity", start_only)
        with pytest.raises(PositivityError, match="admits a positive form"):
            solve_ma_detailed(scaled_identity(SPEC1), F)

    def test_step_cap_raises_with_diagnostics(self, monkeypatch):
        # n = 1 converges in one step, so the cap is met at n = 2.
        spec, _, F = _manufactured_n2(N=12, amplitude=0.05)
        monkeypatch.setattr(ma, "_MAX_NEWTON_STEPS", 2)
        with pytest.raises(IterationLimitError) as info:
            solve_ma_detailed(scaled_identity(spec), F)
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


def _three_level_problem():
    """An N = 32 n = 2 problem whose potential is resolved at N = 8."""
    spec = TorusSpec(2, 32)
    f = trig_poly(spec, 3, seed=1)
    lam = float(np.min(min_eigenvalue_field(complex_hessian(f)).values))
    a = scaled_identity(spec)
    return a, ma_density(a, GridField(spec, f.values * (0.2 / -lam)))


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
        assert result.coarse.newton_steps > 0
        assert not any(g.nested_rejected for g in result.grids())
        assert result.residual_history[-1] <= 1e-10
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
        assert result.coarse is None
        assert result.nested_rejected
        assert float(np.max(np.abs(result.phi.values - phi_star.values))) <= 1e-10

    def test_indefinite_corrected_start_falls_back(self, monkeypatch):
        spec, phi_star, F = _manufactured_n2(N=16, amplitude=0.05)
        a = scaled_identity(spec)
        monkeypatch.setattr(ma, "_prolong", _indefinite)
        result = solve_ma_detailed(a, F)
        zero_start = np.max(np.abs(np.log(a.det()) - np.log(F.values)))
        assert result.residual_history[0] == zero_start
        # The coarse solve converged, so it is kept although its start was not.
        assert result.coarse.newton_steps > 0
        assert result.nested_rejected
        assert float(np.max(np.abs(result.phi.values - phi_star.values))) <= 1e-10

    def test_coarse_counts_add_up_through_every_level(self, monkeypatch):
        # N = 32 nests at 16 and again at 8.  |k| <= 3 is resolved at N = 8,
        # so only the N = 8 solve takes steps; its steps and GMRES shortfalls
        # are on its own record, which the N = 32 result reaches through the
        # N = 16 one.
        a, F = _three_level_problem()
        grids = []
        real_gmres = ma.gmres

        def short(A, b, **kwargs):
            grids.append(round(b.size**0.25))
            x, _ = real_gmres(A, b, **kwargs)
            return x, 1

        monkeypatch.setattr(ma, "gmres", short)
        result = solve_ma_detailed(a, F)
        assert grids and set(grids) == {8}
        chain = list(result.grids())
        assert [g.phi.spec.N for g in chain] == [32, 16, 8]
        assert [g.newton_steps for g in chain] == [0, 0, len(grids)]
        assert [g.gmres_info_nonzero for g in chain] == [0, 0, len(grids)]
        assert not any(g.nested_rejected for g in chain)

    def test_every_grid_of_a_nested_solve_is_a_converged_solve(self):
        tol = 1e-10
        result = solve_ma_detailed(*_three_level_problem(), tol=tol)
        chain = list(result.grids())
        assert len(chain) == 3 and chain[-1].coarse is None
        for g in chain:
            assert g.newton_steps == len(g.residual_history) - 1
            assert g.residual_history[-1] <= tol
        for fine, coarse in zip(chain, chain[1:]):
            assert fine.coarse is coarse
            assert 2 * coarse.phi.spec.N == fine.phi.spec.N

    def test_no_coarse_solve_at_n1_or_where_half_the_grid_is_too_small(
        self, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("coarse solve where none applies")

        monkeypatch.setattr(ma, "_nested_start", refuse)
        spec, _, F = _manufactured_n2(N=12, amplitude=0.05)
        assert solve_ma_detailed(scaled_identity(spec), F).coarse is None
        for N in (32, 64):
            phi_star, F = _manufactured_n1(TorusSpec(1, N))
            result = solve_ma_detailed(scaled_identity(phi_star.spec), F)
            assert result.newton_steps > 0
            assert result.coarse is None and not result.nested_rejected


class TestForcing:
    TOL = 1e-10

    @pytest.mark.parametrize(
        "r, r_prev",
        [
            (8.0, None),
            (3.0, 8.0),
            (0.9, 1.0),
            (1e-3, 1.0),
            (1e-9, 1e-4),
            (1.1e-10, 1e-9),
            (2e-10, 1e-3),
        ],
    )
    def test_forcing_lies_between_the_floor_and_the_cap(self, r, r_prev):
        eta = ma._forcing(r, r_prev, self.TOL)
        floor = 0.5 * self.TOL / r
        assert floor <= eta <= max(0.1, floor)

    def test_first_step_uses_the_cap(self):
        assert ma._forcing(1.0, None, self.TOL) == ma._FORCING_MAX

    def test_choice_two_tracks_the_squared_residual_ratio(self):
        eta = ma._forcing(1e-3, 1e-1, self.TOL)
        assert eta == pytest.approx(0.9 * 1e-4, rel=1e-12)

    def test_floor_stops_over_solving_the_last_step(self):
        assert ma._forcing(4e-10, 1e-5, self.TOL) == 0.5 * self.TOL / 4e-10

    def test_the_solver_passes_gmres_the_forcing_of_its_residuals(self, monkeypatch):
        # N = 12 does not nest, so every GMRES call is a fine-grid Newton
        # direction, in step order: Eisenstat–Walker choice 2, capped at 0.05
        # and floored at tol / (2 r).
        spec, _, F = _manufactured_n2(N=12, amplitude=0.05)
        rtols = []
        real_gmres = ma.gmres

        def spy(*args, **kwargs):
            rtols.append(kwargs["rtol"])
            return real_gmres(*args, **kwargs)

        monkeypatch.setattr(ma, "gmres", spy)
        result = solve_ma_detailed(scaled_identity(spec), F, tol=self.TOL)
        history = result.residual_history
        assert result.newton_steps == len(rtols) > 1
        for k, rtol in enumerate(rtols):
            eta = 0.05 if k == 0 else min(0.9 * (history[k] / history[k - 1]) ** 2, 0.05)
            assert rtol == pytest.approx(max(eta, self.TOL / (2 * history[k])), rel=1e-12)


def _counted(matvec, n, calls, key):
    """An ``n x n`` operator that counts its applications in ``calls[key]``."""

    def apply(x):
        calls[key] += 1
        return matvec(x)

    return SimpleNamespace(shape=(n, n), dtype=float, matvec=apply)


class TestGmres:
    """``ma.gmres`` is restarted GMRES from a zero start, right-preconditioned,
    that stops once the true residual meets ``rtol``, with a basis that holds
    only the rows it writes."""

    def test_solves_seeded_systems_to_their_tolerance(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(33)
        seen = Counter()
        for case in range(280):
            n = int(rng.integers(1, 80))
            restart = case % 70 + 1
            maxiter = int(rng.integers(1, 6))
            # Every tenth system has b = 0, and every tenth rtol >= 1.
            kind = case % 10
            b = np.zeros(n) if kind == 1 else rng.standard_normal(n)
            if kind == 0:
                # The identity with a constant preconditioner spans the
                # solution in one step, and the Krylov space stops growing.
                A = np.eye(n)
                d = np.full(n, rng.uniform(0.5, 2.0))
                rtol = 1e-18
            else:
                scale = rng.uniform(0.01, 1.0) / np.sqrt(n)
                A = rng.uniform(0.5, 3.0) * np.eye(n) + scale * rng.standard_normal((n, n))
                d = rng.uniform(0.2, 2.0, n)
                rtol = 10.0 ** rng.uniform(-14, 0)
                if kind == 2:
                    rtol = 1.0 if case % 20 == 2 else 1.5
            calls = Counter()
            x, info = ma.gmres(
                _counted(lambda v, A=A: A @ v, n, calls, "A"),
                b,
                M=_counted(lambda v, d=d: v / d, n, calls, "M"),
                rtol=rtol,
                restart=restart,
                maxiter=maxiter,
            )
            want = np.linalg.solve(A, b)
            bnorm = np.linalg.norm(b)
            residual = np.linalg.norm(b - A @ x)
            assert info in (0, maxiter), case
            if kind in (1, 2):
                # Zero already meets the tolerance: no operator is applied.
                assert info == 0 and not calls and not x.any(), case
                seen["trivial"] += 1
            elif kind == 0:
                assert calls == {"A": 1, "M": 2}, case
                np.testing.assert_allclose(x, want, rtol=1e-14, atol=1e-14 * bnorm)
                seen["breakdown"] += 1
            elif info == 0:
                # The stopping test reads the Arnoldi residual, which is the
                # true one up to round-off: below rtol = 1e-10 that round-off
                # may show, and the bound is (rtol + 4 eps) |b|.
                bound = rtol if rtol >= 1e-10 else rtol + 4 * eps
                assert residual <= bound * bnorm, (case, residual / (rtol * bnorm))
                error = np.linalg.norm(x - want)
                assert error <= np.linalg.cond(A) * bound * np.linalg.norm(want) * (1 + 1e-6), case
                seen["converged"] += 1
            else:
                # Capped: every cycle ran to its end, and each restart
                # applied A once to the iterate.
                k = min(restart, n)
                assert calls == {"A": maxiter * (k + 1) - 1, "M": maxiter * (k + 1)}, case
                assert residual > rtol * bnorm, case
                seen["short"] += 1
        assert seen["short"] >= 20 and seen["converged"] >= 150, seen
        assert seen["breakdown"] == 28 and seen["trivial"] == 56, seen

    @pytest.mark.parametrize("restart, maxiter", [(5, 0), (0, 5), (-1, 5)])
    def test_a_restart_or_maxiter_below_one_is_rejected(self, restart, maxiter):
        # Named before any work, even for b = 0, where the solve returns at once.
        name = "restart" if restart < 1 else "maxiter"
        for b in (np.ones(4), np.zeros(4)):
            calls = Counter()
            with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
                ma.gmres(
                    _counted(lambda v: 2.0 * v, 4, calls, "A"),
                    b,
                    M=_counted(lambda v: v, 4, calls, "M"),
                    rtol=1e-8,
                    restart=restart,
                    maxiter=maxiter,
                )
            assert not calls

    def test_a_converged_one_cycle_solve_applies_the_preconditioner_once_more(self):
        # k iterations apply A M to k basis rows; the iterate takes one more M.
        rng = np.random.default_rng(2)
        n = 50
        A = 2.0 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
        d = rng.uniform(1.0, 3.0, n)
        b = rng.standard_normal(n)
        calls = Counter()
        _, info = ma.gmres(
            _counted(lambda v: A @ v, n, calls, "A"),
            b,
            M=_counted(lambda v: v / d, n, calls, "M"),
            rtol=1e-6,
            restart=n,
            maxiter=1,
        )
        assert info == 0
        assert calls["M"] == calls["A"] + 1 > 3

    def test_operators_may_return_their_input_or_a_reused_buffer(self):
        # An operator that returns its argument, or a preconditioner that
        # writes every result into one buffer, must not reach the basis: the
        # solve is the one with operators that return new arrays.
        rng = np.random.default_rng(3)
        n = 40
        d = rng.uniform(0.5, 2.0, n)
        out = np.empty(n)

        def into_buffer(v):
            np.divide(v, d, out=out)
            return out

        def solve(A, M):
            return ma.gmres(
                SimpleNamespace(matvec=A), b, M=SimpleNamespace(matvec=M), rtol=1e-12, restart=10, maxiter=5
            )

        def mixing(v):
            return 2.0 * v + v[::-1]

        for aliased, fresh in (
            ((lambda v: v, lambda v: v), (np.copy, np.copy)),
            ((mixing, into_buffer), (mixing, lambda v: v / d)),
        ):
            b = rng.standard_normal(n)
            got, info = solve(*aliased)
            want, want_info = solve(*fresh)
            assert info == want_info == 0
            assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads residency with mincore")
    @pytest.mark.parametrize("rtol", [ma._FORCING_MAX, 1e-8])
    def test_the_krylov_basis_grows_with_the_iterations(self, monkeypatch, rtol):
        # One n = 2, N = 16 direction on the near-degenerate background: at
        # the forcing cap one cycle of 7 operator applications, at 1e-8 one
        # of 34.  The basis block is (restart + 1) x points of address space
        # whose rows become resident as a cycle writes them.  What numpy
        # allocates besides (the right-hand side, the iterate, the
        # preconditioner's scaling and the operator's transient Hessian
        # parts) peaks at about 11 fields at both tolerances, so nothing
        # copies the basis.  A (restart + 1) x points allocation alone is 61
        # fields.
        spec = TorusSpec(2, 16)
        field = 8 * spec.N**4
        data = _MetricData.from_form(AlphaModel(spec, t=1.0).coefficients(0.01))
        r = np.log(data.det) - 0.3 * trig_poly(spec, 3, seed=3).values
        blocks, in_block = [], []
        real_gmres, real_block = ma.gmres, krylov._basis_block

        def spying(A, b, *, M, **kwargs):
            def precond(x):
                in_block.append(np.shares_memory(x, blocks[-1]))
                return M.matvec(x)

            return real_gmres(A, b, M=SimpleNamespace(matvec=precond), **kwargs)

        def kept(rows, n):
            blocks.append(real_block(rows, n))
            return blocks[-1]

        monkeypatch.setattr(ma, "gmres", spying)
        monkeypatch.setattr(krylov, "_basis_block", kept)
        ma._newton_direction(spec, data, r, rtol)  # warm the caches
        blocks.clear()
        in_block.clear()
        tracemalloc.start()
        try:
            _, info = ma._newton_direction(spec, data, r, rtol)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (block,) = blocks
        pages = (ctypes.c_ubyte * (block.nbytes // mmap.PAGESIZE))()
        mincore = ctypes.CDLL(None, use_errno=True).mincore
        rc = mincore(ctypes.c_void_p(block.ctypes.data), ctypes.c_size_t(block.nbytes), pages)
        assert rc == 0, ctypes.get_errno()
        resident = sum(page & 1 for page in pages) * mmap.PAGESIZE
        # Each cycle applies M to its basis rows, then once to the update.
        longest = max(map(len, "".join("v" if hit else " " for hit in in_block).split()))
        assert info == 0 and longest >= 7
        assert block.nbytes == 61 * field
        assert longest * field <= resident <= (longest + 1) * field
        assert traced < 13 * field


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
        vals = degeneracy_integrability(AlphaModel(TorusSpec(1, 32), t=0.9, eps0=0.4))
        assert abs(vals[2] - vals[1]) / vals[1] <= 1e-10

    def test_degenerate_background_increment_dichotomy(self):
        # At t = 1 the reciprocal density behaves like x^{-2 eps0} across the
        # degenerate sheet: refinement increments die out for eps0 < 1/2 and
        # grow beyond it.
        fine = degeneracy_integrability(AlphaModel(TorusSpec(1, 32), t=1.0, eps0=0.3))
        d = np.diff(fine)
        assert d[1] / d[0] < 0.9
        coarse = degeneracy_integrability(AlphaModel(TorusSpec(1, 32), t=1.0, eps0=0.6))
        d = np.diff(coarse)
        assert d[1] / d[0] > 1.1
