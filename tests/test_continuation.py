"""Ladder mechanics: mass balance, normalization constants, warm-started
continuation, the constant-background change of frame, and the per-rung
diagnostics shared by solving and re-checking.
"""

import gc
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from torusma import continuation, estimates, geometry, ma, pluripotential
from torusma.continuation import (
    ContinuationError,
    Scenario,
    _Rung,
    delta_eps,
    enforce_mass_balance,
    rebuild_states,
    run_continuation,
)
from torusma.estimates import (
    EstimateError,
    EstimateSettings,
    _RungMetric,
    _trace_identity_defect,
    comparison_residual,
    holder_seminorm,
    siu_residual,
)
from torusma.geometry import (
    GridField,
    TorusSpec,
    complex_hessian,
    half_laplacian,
    integrate,
    min_eigenvalue_field,
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
from torusma.scenarios import bundled_experiment


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


def _smooth_scenario(N=32, rungs=5, n=1):
    pad = (0, 0) * (n - 1)
    return enforce_mass_balance(
        _scenario(
            n=n,
            N=N,
            t=0.5,
            psi1=(SmoothMode(0.08, (1, 0) + pad, 0.3),),
            psi2=(SmoothMode(0.05, (0, 1) + pad, 1.1),),
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
        with pytest.raises(ValueError, match=r"\(0, 0.5\]"):
            _scenario(schedule=(0.2, float("nan")))
        with pytest.raises(ValueError, match="at least one value"):
            _scenario(schedule=())

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            _scenario(p=1.0)
        with pytest.raises(ValueError, match="exceed 1"):
            _scenario(p=float("nan"))

    def test_tolerance_is_positive_and_the_constant_nonnegative(self):
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                _scenario(tol=tol)
        for C in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="C must be nonnegative"):
                _scenario(C=C)
        assert _scenario(C=0.0).C_config == 0.0

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

    def test_the_ladder_constant_prefers_the_configured_value(self):
        assert estimates._LadderEstimates.build(_scenario(C=2.5)).C == 2.5
        # Without an override the constant is certified from psi2: a single
        # cosine of amplitude a needs C = pi^2 a plus the strictness margin.
        scenario = _scenario(psi2=(SmoothMode(0.1, (1, 0)),))
        certified = estimates._LadderEstimates.build(scenario).C
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
                "shift_defect",
                "min_siu_residual",
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

    def test_n1_rungs_take_one_newton_step(self):
        # At n = 1 the equation is linear and each Newton direction is its
        # exact correction, so every warm-started rung is solved by one full
        # step, far below the tolerance.
        scenario = bundled_experiment("smooth").scenario
        for s in run_continuation(scenario):
            assert s.newton_steps == 1
            assert s.solve.residual_history[-1] <= 1e-2 * scenario.tol

    def test_warm_start_saves_newton_steps(self):
        # Each rung solved again from a zero start is the cold baseline.  At
        # n = 2 Newton takes several steps, and N = 12 does not nest, so each
        # solve starts from the start it is given.
        scenario = _smooth_scenario(N=12, rungs=3, n=2)
        warm = run_continuation(scenario)
        assert all(s.solve.coarse is None for s in warm)
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
        lhs = ma_density(alpha.coefficients(0.1), phi).values
        assert float(np.max(np.abs(lhs - det_g))) <= 1e-12


_ESTIMATE_KEYS = (
    "shift_defect",
    "min_siu_residual",
    "weighted_c2_sup",
    "sharp_weighted_sup",
    "trace_defect",
    "comparison_min",
    "q_sup",
    "sup_phi",
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


def _rebuilt(scenario, states):
    """``states`` rebuilt from their stored per-rung arrays."""
    return rebuild_states(
        scenario,
        np.array([s.eps for s in states]),
        np.array([s.delta_eps for s in states]),
        np.array([s.newton_steps for s in states]),
        np.stack([s.phi.values for s in states]),
    )


@pytest.fixture(params=_LADDERS, ids=["n1", "n2"])
def ladder(request):
    """A solved ladder of ``_LADDERS``: its scenario and states."""
    scenario = enforce_mass_balance(request.param)
    return scenario, run_continuation(scenario)


class TestOneDiagnosticsPath:
    """``run`` and ``verify`` compute per-rung estimates through one function."""

    @pytest.mark.parametrize("eps", [0.25, 0.1, 0.01])
    def test_smoothed_potentials_certify_psi2_once(self, eps):
        # One rung's smoothing yields the same fields as ``regularize``, and
        # psi2's comparison weight: the constant ``hessian_lower_bound``
        # certifies at sqrt(eps), and the Hessian and half-Laplacian of the
        # smoothed psi2, both inside the guaranteed range (eps <= 0.1) and
        # above it.
        scenario = enforce_mass_balance(_LADDERS[0])
        sharp = (evaluate(scenario.psi1), evaluate(scenario.psi2))
        rung = _Rung.build(scenario, sharp, eps)
        p1 = regularize(scenario.psi1, eps)
        p2 = regularize(scenario.psi2, eps)
        np.testing.assert_array_equal(rung.p2.values, p2.values)
        density = np.exp(p1.values - p2.values)
        np.testing.assert_array_equal(rung.F.values, (1.0 + rung.delta) * density)
        H, laplacian, C_cert, _ = rung.weight2
        assert C_cert == hessian_lower_bound(scenario.psi2, s_min=float(np.sqrt(eps)))
        for got, want in zip(H.parts, complex_hessian(p2).parts):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(laplacian, half_laplacian(p2).values)

    @pytest.mark.parametrize("scenario", _LADDERS, ids=["n1", "n2"])
    def test_the_certificate_is_taken_once_per_rung(self, monkeypatch, scenario):
        # On a guarded rung (eps <= 0.1) the smoothing takes psi2's
        # certificate, min eig H(psi2_eps) + C_cert, for guarantee (b), and
        # the comparison precondition reads that number: measuring the rung
        # takes no eigenvalue of its own.
        scenario = enforce_mass_balance(scenario)
        eps = scenario.eps_schedule[-1]
        assert eps <= 0.1
        measured = estimates._LadderEstimates.build(scenario)
        rung = _Rung.build(scenario, measured.sharp, eps)
        C_cert = hessian_lower_bound(scenario.psi2, s_min=float(np.sqrt(eps)))
        lam = min_eigenvalue_field(complex_hessian(rung.p2)).values
        assert rung.weight2[2] == C_cert
        assert rung.weight2[3] == float(np.min(lam) + C_cert)
        phi = solve_ma_detailed(rung.a, rung.F, tol=scenario.tol).phi
        calls = []

        def counted(form):
            calls.append(form)
            return min_eigenvalue_field(form)

        for module in (continuation, estimates, geometry, ma, pluripotential):
            if hasattr(module, "min_eigenvalue_field"):
                monkeypatch.setattr(module, "min_eigenvalue_field", counted)
        diagnostics = measured.measure(len(scenario.eps_schedule) - 1, rung, phi)
        assert calls == []
        assert np.isfinite(diagnostics["comparison_min"])

    def test_rebuilt_diagnostics_equal_the_solved_ones(self, ladder):
        scenario, states = ladder
        rebuilt = _rebuilt(scenario, states)
        assert len(rebuilt) == len(states)
        for solved, again in zip(states, rebuilt):
            for key in _ESTIMATE_KEYS:
                assert again.diagnostics[key] == solved.diagnostics[key], key
            assert again.C == solved.C
            np.testing.assert_array_equal(again.Phi.values, solved.Phi.values)

    def test_solved_and_rebuilt_states_differ_only_by_the_solve(self, ladder):
        # A solved state keeps its solver result beside the estimate scalars;
        # a rebuilt one has no solve, and the same diagnostics keys.
        scenario, states = ladder
        rebuilt = _rebuilt(scenario, states)
        for solved, again in zip(states, rebuilt):
            assert solved.diagnostics.keys() == again.diagnostics.keys()
            assert solved.solve.phi is solved.phi
            assert solved.solve.newton_steps == solved.newton_steps
            assert solved.solve.residual_history[-1] <= scenario.tol
            assert again.solve is None

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
        spec, C = scenario.spec, hessian_lower_bound(scenario.psi2)
        weight = evaluate(scenario.psi2).values
        keep = _away_from_poles(scenario.psi2)
        for s in states:
            assert s.C == C
            assert s.diagnostics["sup_phi"] == float(np.max(np.abs(s.phi.values)))
            F = _rhs(scenario, s)
            f = GridField(spec, np.log(F.values) - spec.n * np.log1p(s.eps))
            siu = siu_residual(s.Phi, f, s.eps, C)
            assert s.diagnostics["min_siu_residual"] == float(np.min(siu.values))
            m = _RungMetric.build(s.Phi, s.eps)
            assert s.diagnostics["trace_defect"] == _trace_identity_defect(m)
            det_g = ma_density(scaled_identity(spec, 1 + s.eps), s.Phi).values
            lhs = ma_density(scenario.alpha.coefficients(s.eps), s.phi).values
            assert s.diagnostics["shift_defect"] == float(np.max(np.abs(lhs - det_g)))
            # both weighted second-order suprema, from scratch: the smoothed
            # weight over the grid, the sharp one away from the poles
            q = spec.n + half_laplacian(s.Phi).values / (1 + s.eps)
            psi2_eps = regularize(scenario.psi2, s.eps).values
            S = np.log(q) + psi2_eps - 2.0 * C * s.Phi.values
            assert s.diagnostics["weighted_c2_sup"] == float(np.exp(np.max(S)))
            S = np.log(q) + weight - 2.0 * C * s.Phi.values
            assert s.diagnostics["sharp_weighted_sup"] == float(np.exp(np.max(S[keep])))


def _cpus(monkeypatch, count):
    """Make ``count`` CPUs usable to this process, as rung pools see it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _rung_threads():
    return [t for t in threading.enumerate() if t.name.startswith("torusma-rung")]


class TestRungPool:
    """``rebuild_states`` rebuilds the rungs on a pool of threads: the same
    states whatever the worker count, the first failure in schedule order
    raised, and no rung left running or started past it."""

    def test_workers_follow_the_usable_cpus(self, monkeypatch):
        _cpus(monkeypatch, 3)
        assert [continuation._workers(r) for r in (1, 2, 3, 9)] == [1, 2, 3, 3]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert continuation._workers(5) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert continuation._workers(5) == 4

    def test_states_do_not_depend_on_the_worker_count(self, ladder, monkeypatch):
        scenario, states = ladder
        _cpus(monkeypatch, 1)
        reference = _rebuilt(scenario, states)
        # More workers than rungs, and than this machine's cores, switching
        # threads as often as the interpreter allows.
        _cpus(monkeypatch, 8)
        assert continuation._workers(len(states)) == len(states) > 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                pooled = _rebuilt(scenario, states)
                assert len(pooled) == len(reference)
                for got, want in zip(pooled, reference):
                    assert (got.eps, got.delta_eps, got.newton_steps) == (
                        want.eps, want.delta_eps, want.newton_steps
                    )
                    assert got.diagnostics == want.diagnostics
                    np.testing.assert_array_equal(got.phi.values, want.phi.values)
        finally:
            sys.setswitchinterval(interval)
        assert not _rung_threads()

    @pytest.mark.parametrize("stop", ["error", "interrupt"])
    def test_the_first_rung_to_fail_in_order_stops_the_pool(self, ladder, monkeypatch, stop):
        # Rung 0 fails last in time: every later rung fails at once, or rung
        # 0 interrupts the main thread (SIGINT, as Ctrl-C does) while it
        # waits on the pool, and every rung sleeps on.  Rung 0's failure is
        # the one raised, no rung past the first ``workers`` starts, and
        # every rung that started has finished.
        if stop == "interrupt" and not hasattr(signal, "pthread_kill"):
            pytest.skip("no signals to threads on this platform")
        scenario, states = ladder
        workers = 2
        _cpus(monkeypatch, workers)
        first = states[0].eps
        main = threading.get_ident()
        started, finished = [], []

        def rung(_, _sharp, eps, _delta=None):
            started.append(eps)
            try:
                if eps == first and stop == "interrupt":
                    time.sleep(0.05)
                    signal.pthread_kill(main, signal.SIGINT)
                if eps == first or stop == "interrupt":
                    time.sleep(0.2)
                raise EstimateError(f"rung at eps={eps} fails")
            finally:
                finished.append(eps)

        monkeypatch.setattr(continuation._Rung, "build", rung)
        if stop == "error":
            with pytest.raises(EstimateError, match=re.escape(f"eps={first} ")):
                _rebuilt(scenario, states)
        else:
            with pytest.raises(KeyboardInterrupt):
                _rebuilt(scenario, states)
        assert first in started
        assert len(started) <= workers
        assert sorted(finished) == sorted(started)
        assert not _rung_threads()

    def test_a_non_finite_field_is_rejected_before_any_rung_starts(
        self, ladder, monkeypatch
    ):
        # Rung 0's stored field fails an estimate; once the last rung's field
        # is non-finite too, validation rejects it before any rung is built.
        scenario, states = ladder
        spec = scenario.spec
        phi = np.stack([s.phi.values for s in states])
        phi[0] += 0.5 * np.cos(2 * np.pi * spec.axis_coordinate(0))
        arrays = (
            np.array([s.eps for s in states]),
            np.array([s.delta_eps for s in states]),
            np.array([s.newton_steps for s in states]),
        )
        with pytest.raises(EstimateError, match="metric trace must be positive"):
            rebuild_states(scenario, *arrays, phi)
        started = []
        real = continuation._Rung.build

        def rung(scenario, sharp, eps, delta=None):
            started.append(eps)
            return real(scenario, sharp, eps, delta)

        monkeypatch.setattr(continuation._Rung, "build", rung)
        phi[-1].flat[0] = np.nan
        with pytest.raises(ValueError, match="non-finite") as info:
            rebuild_states(scenario, *arrays, phi)
        assert not isinstance(info.value, EstimateError)
        assert started == []

    @pytest.mark.parametrize("scenario", _LADDERS, ids=["n1", "n2"])
    def test_ladder_arrays_refuse_in_place_writes(self, scenario):
        # Every rung, and every thread of the pool, reads them.
        built = estimates._LadderEstimates.build(enforce_mass_balance(scenario))
        H, laplacian, _, _ = built.eta
        shared = [built.rho, built.keep, *H.parts, laplacian, *built.stencil.masks]
        shared += [field.values for field in built.sharp]
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


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
    """Each field of a rung is transformed once, its background form built
    once; the sharp models are sampled once per ladder."""

    @pytest.mark.parametrize("n, limit", [(1, 18), (2, 42)])
    def test_transforms_per_guarded_rung(self, n, limit, monkeypatch):
        # The last rung as a ladder of its own, so it measures no Hoelder radius.
        eps = _POLE_LADDERS[n].eps_schedule[-1]
        scenario = enforce_mass_balance(replace(_POLE_LADDERS[n], eps_schedule=(eps,)))
        measured = estimates._LadderEstimates.build(scenario)
        phi = GridField(scenario.spec, scenario.spec.zeros())
        count = []
        for name in ("_rfftn", "_irfftn"):
            real = getattr(geometry, name)

            def counted(*args, real=real):
                count.append(1)
                return real(*args)

            monkeypatch.setattr(geometry, name, counted)
        measured.measure(0, _Rung.build(scenario, measured.sharp, eps, 0.0), phi)
        assert len(count) <= limit

    @pytest.mark.parametrize("n", [1, 2])
    def test_delta_eps_is_the_stored_delta(self, n):
        # ``delta_eps`` builds the rung that the solve built, so the bits agree.
        scenario = enforce_mass_balance(_POLE_LADDERS[n])
        for state in run_continuation(scenario):
            assert delta_eps(scenario, state.eps) == state.delta_eps

    def test_delta_eps_builds_no_ladder_estimates(self, monkeypatch):
        # A rung reads the scenario, the sharp models and eps alone; the
        # estimates of a ladder are built by the ladder's walk, once.
        scenario = enforce_mass_balance(_POLE_LADDERS[1])
        built = []
        real = estimates._LadderEstimates.build

        def counted(scenario):
            built.append(scenario)
            return real(scenario)

        monkeypatch.setattr(estimates._LadderEstimates, "build", counted)
        for eps in scenario.eps_schedule:
            delta_eps(scenario, eps)
        assert built == []
        run_continuation(scenario)
        assert built == [scenario]

    def test_background_form_is_built_once_per_rung(self, monkeypatch):
        # The solve, delta and the shift identity read one form per rung;
        # the ladder's mass check takes the form at eps = 0.
        scenario = enforce_mass_balance(_POLE_LADDERS[1])
        built = []
        real = AlphaModel.coefficients

        def counted(alpha, eps=0.0):
            built.append(eps)
            return real(alpha, eps)

        monkeypatch.setattr(AlphaModel, "coefficients", counted)
        states = run_continuation(scenario)
        schedule = list(scenario.eps_schedule)
        assert built == [0.0] + schedule
        _rebuilt(scenario, states)
        # the rungs are rebuilt concurrently, so in no fixed order
        assert built[: len(schedule) + 1] == [0.0] + schedule
        assert sorted(built[len(schedule) + 1 :], reverse=True) == schedule

    def test_sharp_models_are_sampled_once_per_ladder(self, monkeypatch):
        # Every sampling at width 0 counts, the default argument included.
        # The ladder samples each model once, and takes the curvature bound
        # ``hessian_lower_bound(psi2)``, needed when C is not set, from the
        # sharp psi2.
        scenario = enforce_mass_balance(_POLE_LADDERS[1])
        assert scenario.C_config is None
        assert estimates._LadderEstimates.build(scenario).C == hessian_lower_bound(
            scenario.psi2
        )
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
        _rebuilt(scenario, states)
        assert sharp == once * 2



# ``_POLE_LADDERS[2]`` has two rungs, too few for interior-regularity; three
# rungs of it measure, with an outer radius its N = 8 grid admits.
_HOLDER_LADDERS = {
    1: _POLE_LADDERS[1],
    2: replace(
        _POLE_LADDERS[2],
        eps_schedule=(0.1, 0.05, 0.025),
        settings=EstimateSettings(exclusion_outer=3.0),
    ),
}


class TestHolderPass:
    """Each of the last three rungs measures the Hoelder numbers of its own
    potential as it is built, bit for bit as a record measured them on the
    kept potentials: ``holder_seminorm`` at each radius, and the Sobolev
    norm of the final potential outside the outer radius."""

    @staticmethod
    def _sobolev(scenario, phi):
        spec, settings = scenario.spec, scenario.settings
        keep = estimates._exclusion_mask(
            spec, scenario.singular_centers, settings.exclusion_outer * spec.h
        )
        frob = geometry._frobenius(complex_hessian(phi))
        q, cell = settings.sobolev_q, spec.h**spec.num_axes
        return float((np.sum(frob[keep] ** q) * cell) ** (1.0 / q))

    @pytest.mark.parametrize("n", [1, 2])
    def test_each_rung_measures_its_own_potential(self, n):
        scenario = enforce_mass_balance(_HOLDER_LADDERS[n])
        spec, settings = scenario.spec, scenario.settings
        solved = run_continuation(scenario)
        for states in (solved, _rebuilt(scenario, solved)):
            assert len(states) == 3
            for k, s in enumerate(states):
                outer, inner = (
                    holder_seminorm(
                        s.phi, settings.holder_gamma, r * spec.h, scenario.singular_centers
                    )
                    for r in (settings.exclusion_outer, settings.exclusion_inner)
                )
                assert s.diagnostics["holder_outer"] == outer
                final = k == len(states) - 1
                assert ("holder_inner" in s.diagnostics) == final
                assert ("sobolev_norm" in s.diagnostics) == final
                if final:
                    assert s.diagnostics["holder_inner"] == inner
                    assert s.diagnostics["sobolev_norm"] == self._sobolev(scenario, s.phi)

    def test_a_two_rung_ladder_measures_nothing(self):
        scenario = enforce_mass_balance(_POLE_LADDERS[2])
        states = run_continuation(scenario)
        assert len(states) == 2
        for s in states:
            assert not {"holder_outer", "holder_inner", "sobolev_norm"} & set(s.diagnostics)
        verdicts = {v.name: v for v in estimates.record_verdicts(scenario, states)}
        assert verdicts["interior-regularity"].status == estimates.INCONCLUSIVE

    def test_only_the_warm_start_outlives_its_rung(self, monkeypatch):
        # With ``keep``, the loop drops each state once it is handed over:
        # while the next rung solves, no earlier state is alive, and the last
        # potential lives on only as the warm start.
        scenario = _smooth_scenario(N=32, rungs=4)
        handed, solves = [], []
        real = continuation.solve_ma_detailed

        def solve(a, F, phi0=None, tol=1e-10):
            assert [ref() for ref in handed] == [None] * len(handed)
            assert phi0 is (None if not handed else solves[-1].phi)
            solves.append(real(a, F, phi0=phi0, tol=tol))
            return solves[-1]

        def keep(state):
            handed.append(weakref.ref(state))
            return state.eps

        monkeypatch.setattr(continuation, "solve_ma_detailed", solve)
        assert run_continuation(scenario, keep) == list(scenario.eps_schedule)
        assert len(solves) == 4
