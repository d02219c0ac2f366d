"""Estimate layer: pointwise residual fields, exact identities, ladder
verdicts, and the interior-regularity probes, against closed forms.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from torusma import estimates
from torusma.config import parse_config
from torusma.continuation import ContinuationState, run_continuation
from torusma.estimates import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    EstimateSettings,
    Verdict,
    _RungMetric,
    _trace_identity_defect,
    _weighted_sup,
    c0_uniformity,
    c2_uniformity,
    comparison_residual,
    delta_trend,
    holder_seminorm,
    has_admissible_pairs,
    interior_regularity,
    siu_residual,
)
from torusma.geometry import (
    GridField,
    TorusSpec,
    _hessian_and_trace,
    complex_hessian,
    half_laplacian,
    min_eigenvalue_field,
    scaled_identity,
    spectral_gradient,
)
from torusma.ma import PositivityError, ma_density
from torusma.pluripotential import Pole, QuasiPshModel, _certified, evaluate
from torusma.report import build_record
from conftest import trig_poly


def _mode(spec, amplitude, axis=0):
    x = spec.axis_coordinate(axis)
    return GridField(spec, amplitude * np.cos(2 * np.pi * x) * np.ones(spec.shape))


def _zero(spec):
    return GridField(spec, spec.zeros())


def _state(phi, eps=0.1, delta=0.0):
    return ContinuationState(
        eps=eps, delta_eps=delta, phi=phi, rho=phi.spec.zeros(), C=0.0,
        newton_steps=0, diagnostics={"sup_phi": float(np.max(np.abs(phi.values)))},
    )


def _holder_states(fields, settings, singular=()):
    """States of ``fields`` as a ladder's rungs, their diagnostics holding
    the Hoelder numbers each rung measures on its potential."""
    stencil = estimates._HolderStencil.build(fields[0].spec, settings, singular)
    states = [_state(f, eps=0.25 * 0.5**i) for i, f in enumerate(fields)]
    for k, state in enumerate(states):
        radii = estimates._holder_radii(k, len(states))
        if radii:
            state.diagnostics.update(estimates._holder_pass(stencil, state.phi, radii))
    return states


def _ladder(spec, amplitudes, eps_start=0.25):
    return [
        _state(_mode(spec, a), eps=eps_start * 0.5**i)
        for i, a in enumerate(amplitudes)
    ]


def _certified_C(psi):
    eig = min_eigenvalue_field(complex_hessian(psi))
    return -float(np.min(eig.values)) + 1e-3


SPEC1 = TorusSpec(1, 32)


class TestVerdict:
    def test_status_vocabulary_is_closed(self):
        with pytest.raises(ValueError, match="unknown verdict status"):
            Verdict("check", "maybe", "nope")

    LADDER_VERDICTS = {
        "normalization": delta_trend,
        "uniform-bound": c0_uniformity,
        "weighted-second-order": c2_uniformity,
        "interior-regularity": lambda states: interior_regularity(
            states, EstimateSettings(), SPEC1.n
        ),
    }

    @pytest.mark.parametrize("name", LADDER_VERDICTS)
    @pytest.mark.parametrize("rungs", [0, 1, 2])
    def test_each_ladder_verdict_needs_three_rungs(self, name, rungs):
        # Nothing but the rung count is read, so the diagnostics may be absent.
        states = [replace(s, diagnostics={}) for s in _ladder(SPEC1, [0.1] * rungs)]
        assert self.LADDER_VERDICTS[name](states) == Verdict(
            name, INCONCLUSIVE, f"need at least 3 rungs, got {rungs}"
        )


_RECORD_VERDICTS = (
    "normalization",
    "uniform-bound",
    "weighted-second-order",
    "trace-identity",
    "shift-identity",
    "inequality-main",
    "inequality-comparison",
    "interior-regularity",
    "unweighted-growth",
    "singular-integrability",
    "density-hypothesis",
)
_POLE_ONLY = ("unweighted-growth", "singular-integrability")


@pytest.mark.parametrize("psi2", ["pole = 0.5 0.5, 0.3, 0.1, 0.2", "mode = 0.04, 0 1, 0.5"])
def test_build_record_lists_each_verdict_once_in_order(psi2):
    experiment = parse_config(
        "[torus]\nn = 1\nN = 32\n[alpha]\nt = 0.5\n"
        f"[psi2]\n{psi2}\n"
        "[continuation]\nschedule = 0.25 0.125 0.0625\n"
    )
    poles = bool(experiment.scenario.psi2.poles)
    record = build_record(experiment, run_continuation(experiment.scenario))
    assert tuple(v.name for v in record.verdicts) == tuple(
        name for name in _RECORD_VERDICTS if poles or name not in _POLE_ONLY
    )


class TestSiuResidual:
    def test_flat_data_gives_the_dimensional_constant(self):
        # Phi = 0, f = 0: lhs = 0, rhs = -C/n - C(1+eps) * n/(1+eps).
        for n, N, C, want in ((1, 16, 2.0, 4.0), (2, 8, 0.5, 1.25)):
            spec = TorusSpec(n, N)
            res = siu_residual(_zero(spec), _zero(spec), 0.3, C)
            assert np.max(np.abs(res.values - want)) <= 1e-13

    def test_dimension_one_with_zero_constant_is_an_identity(self):
        # In one complex dimension the equation reads log q = f, so both
        # sides of the inequality coincide and the residual is round-off.
        spec = TorusSpec(1, 64)
        phi = _mode(spec, 0.07)
        eps = 0.1
        q = 1.0 + half_laplacian(phi).values / (1.0 + eps)
        f = GridField(spec, np.log(q))
        res = siu_residual(phi, f, eps, 0.0)
        assert float(np.max(np.abs(res.values))) <= 1e-12

    def test_manufactured_two_dimensional_solution_stays_nonnegative(self):
        # Moderate curvature keeps the log density spectrally resolved at
        # this grid size, so the discretization allowance is tiny.
        spec = TorusSpec(2, 24)
        vals = 0.05 * (
            np.cos(2 * np.pi * spec.axis_coordinate(0))
            + np.cos(2 * np.pi * spec.axis_coordinate(2))
        )
        phi = GridField(spec, vals * np.ones(spec.shape))
        eps = 0.1
        F = ma_density(scaled_identity(spec, 1.0 + eps), phi)
        f = GridField(spec, np.log(F.values) - 2.0 * np.log1p(eps))
        res = siu_residual(phi, f, eps, 0.0)
        assert float(np.min(res.values)) >= -1e-4
        # a positive curvature constant only adds positive terms
        res_C = siu_residual(phi, f, eps, 0.5)
        assert float(np.min(res_C.values)) > 0

    def test_nonpositive_trace_is_rejected(self):
        spec = TorusSpec(1, 32)
        with pytest.raises(ValueError, match="must be positive"):
            siu_residual(_mode(spec, 0.2), _zero(spec), 0.0, 0.0)


class TestComparisonResidual:
    def test_dimension_one_is_an_identity(self):
        # With a single eigenvalue, "eigenvalue <= trace" is an equality, so
        # the residual is pure round-off for any admissible pair.
        spec = TorusSpec(1, 64)
        psi = GridField(spec, 0.01 * trig_poly(spec, kmax=3, seed=3).values)
        Phi = GridField(spec, 0.004 * trig_poly(spec, kmax=3, seed=5).values)
        res = comparison_residual(Phi, psi, _certified_C(psi), eps=0.2)
        assert float(np.max(np.abs(res.values))) <= 1e-12

    def test_constant_weight_gives_the_dimensional_gap(self):
        # psi constant, Phi = 0, eps = 0: lhs = C n, rhs = C, residual = C(n-1).
        spec = TorusSpec(2, 8)
        C = 0.8
        res = comparison_residual(_zero(spec), _zero(spec), C)
        assert np.max(np.abs(res.values - C * (spec.n - 1))) <= 1e-13

    def test_certified_random_weight_stays_nonnegative(self):
        spec = TorusSpec(2, 16)
        psi = GridField(spec, 0.01 * trig_poly(spec, kmax=2, seed=7).values)
        Phi = GridField(spec, 0.002 * trig_poly(spec, kmax=2, seed=11).values)
        res = comparison_residual(Phi, psi, _certified_C(psi), eps=0.1)
        assert float(np.min(res.values)) >= -1e-8

    def test_undersized_constant_is_rejected(self):
        spec = TorusSpec(1, 32)
        psi = _mode(spec, 0.1)  # curvature reaches -pi^2/10
        with pytest.raises(ValueError, match="not curvature-bounded"):
            comparison_residual(_zero(spec), psi, 0.5)


class TestFloors:
    """Boundary tests of two floors that no bundled record comes near: each
    passes at its floor and fails just below it.  No gate moves."""

    @pytest.fixture(scope="class")
    def ladder(self):
        experiment = parse_config(
            "[torus]\nn = 1\nN = 32\n[alpha]\nt = 0.5\n"
            "[psi2]\nmode = 0.04, 0 1, 0.5\n"
            "[continuation]\nschedule = 0.25 0.125 0.0625\n"
        )
        return experiment.scenario, run_continuation(experiment.scenario)

    @pytest.mark.parametrize(
        "worst,status", [(-1e-4, HOLDS), (-1.01e-4, VIOLATED), (-1e-3, VIOLATED)]
    )
    def test_the_log_trace_inequality_floor_is_minus_1e_minus_4(self, ladder, worst, status):
        scenario, states = ladder
        states = [
            replace(s, diagnostics={**s.diagnostics, "min_siu_residual": v})
            for s, v in zip(states, (0.0, worst, 0.0))
        ]
        verdicts = {v.name: v for v in estimates.record_verdicts(scenario, states)}
        assert verdicts["inequality-main"].status == status

    @pytest.mark.parametrize("certificate", [-1e-8, -1.01e-8, -1e-6])
    def test_the_comparison_needs_a_certificate_of_minus_1e_minus_8(self, certificate):
        spec = TorusSpec(2, 8)
        m = _RungMetric.build(_zero(spec), 0.1)
        H, laplacian, C, _ = _certified(_hessian_and_trace(_zero(spec)), 0.5)
        weight = (H, laplacian, C, certificate)
        if certificate >= -1e-8:
            assert float(np.min(estimates._comparison_residual(m, weight))) >= 0.0
        else:
            with pytest.raises(ValueError, match="not curvature-bounded"):
                estimates._comparison_residual(m, weight)


def _trace_defect(Phi, eps):
    return _trace_identity_defect(_RungMetric.build(Phi, eps))


class TestTraceIdentity:
    def test_flat_metric_cancels_exactly(self):
        assert _trace_defect(_zero(TorusSpec(2, 8)), 0.3) == 0.0

    @pytest.mark.parametrize(
        "n, N, seed, scale", [(1, 64, 3, 0.002), (2, 16, 9, 0.002)]
    )
    def test_random_potentials_cancel_to_round_off(self, n, N, seed, scale):
        spec = TorusSpec(n, N)
        Phi = GridField(spec, scale * trig_poly(spec, kmax=2, seed=seed).values)
        assert _trace_defect(Phi, 0.2) <= 1e-10

    def test_singular_metric_is_rejected(self):
        # n = 2, Phi = 0.15 cos(2 pi x0): g = diag(1 - 0.15 pi^2 cos, 1), so
        # the normalized trace stays positive while det g changes sign.
        with pytest.raises(PositivityError, match="determinant vanishes"):
            _trace_defect(_mode(TorusSpec(2, 8), 0.15), 0.0)


class TestWeightedSup:
    @pytest.mark.parametrize("n", [1, 2])
    def test_flat_state_reaches_the_dimension(self, n):
        spec = TorusSpec(n, 16 if n == 1 else 8)
        m = _RungMetric.build(_zero(spec), 0.0)
        assert _weighted_sup(m, _zero(spec).values, 1.0) == pytest.approx(n, rel=1e-14)

    def test_unit_mode_weight_peaks_at_e(self):
        # q = 1 at Phi = 0, and the weight cos(2 pi x0) peaks at 1.
        m = _RungMetric.build(_zero(SPEC1), 0.0)
        weight = _mode(SPEC1, 1.0).values
        assert _weighted_sup(m, weight, 0.5) == pytest.approx(np.e, rel=1e-14)


class TestC0Uniformity:
    def test_flat_ladder_holds(self):
        verdict = c0_uniformity(_ladder(SPEC1, [0.1] * 5))
        assert verdict.status == HOLDS
        keys = dict(verdict.witness)
        assert keys["first_sup"] == pytest.approx(0.1)
        assert abs(keys["slope"]) <= 1e-12

    def test_growing_ladder_is_violated_with_witness(self):
        verdict = c0_uniformity(_ladder(SPEC1, [0.1, 0.15, 0.2, 0.25, 0.3]))
        assert verdict.status == VIOLATED
        keys = dict(verdict.witness)
        assert set(keys) == {"worst_eps", "worst_sup", "first_sup", "slope"}
        assert keys["worst_sup"] == pytest.approx(0.3)
        assert keys["worst_eps"] == pytest.approx(0.25 * 0.5**4)
        assert keys["slope"] > 0.01

    def test_short_ladder_is_inconclusive(self):
        verdict = c0_uniformity(_ladder(SPEC1, [0.1, 0.1]))
        assert verdict.status == INCONCLUSIVE


class TestC2Uniformity:
    def _run(self, amplitudes):
        # With a pole-free zero weight and C = 0 the per-rung quantity is
        # the weighted supremum over the whole grid.
        zero = SPEC1.zeros()
        states = [
            replace(
                s,
                diagnostics={
                    "sharp_weighted_sup": _weighted_sup(
                        _RungMetric.build(s.Phi, s.eps), zero, 0.0
                    )
                },
            )
            for s in _ladder(SPEC1, amplitudes)
        ]
        return c2_uniformity(states)

    def test_steady_curvature_holds(self):
        verdict = self._run([0.01] * 5)
        assert verdict.status == HOLDS
        keys = dict(verdict.witness)
        assert keys["first_sup"] == pytest.approx(1.0 + 0.01 * np.pi**2 / 1.25)
        assert keys["relative_slope"] <= 0.05

    def test_growing_curvature_fails_the_slope_clause(self):
        verdict = self._run([0.01, 0.02, 0.03, 0.05, 0.08])
        assert verdict.status == VIOLATED
        assert "relative slope" in verdict.summary
        assert "exceeds 0.05 per e-fold" in verdict.summary
        keys = dict(verdict.witness)
        assert set(keys) == {
            "worst_eps",
            "worst_ratio",
            "first_sup",
            "relative_slope",
        }
        assert keys["relative_slope"] > 0.05

    def test_short_ladder_is_inconclusive(self):
        assert self._run([0.01, 0.01]).status == INCONCLUSIVE

    @pytest.mark.parametrize("bump, status", [(-1e-6, HOLDS), (1e-6, VIOLATED)])
    def test_the_factor_gate_sits_at_two(self, bump, status):
        # A bump in the middle rung of a symmetric ladder leaves the
        # least-squares slope at 0, so only the factor clause decides.
        states = [
            replace(s, diagnostics={"sharp_weighted_sup": r})
            for s, r in zip(_ladder(SPEC1, [0.0] * 5), [1.0, 1.0, 2.0 + bump, 1.0, 1.0])
        ]
        verdict = c2_uniformity(states)
        assert verdict.status == status
        keys = dict(verdict.witness)
        assert keys["worst_ratio"] == 2.0 + bump
        assert abs(keys["relative_slope"]) < 1e-12


class TestDeltaTrend:
    def _states(self, deltas):
        spec = TorusSpec(1, 8)
        return [
            _state(_zero(spec), eps=0.25 * 0.5**i, delta=d)
            for i, d in enumerate(deltas)
        ]

    def test_decaying_deltas_hold(self):
        verdict = delta_trend(self._states([0.3, 0.1, 0.03, 0.01, 0.003]))
        assert verdict.status == HOLDS
        assert dict(verdict.witness)["final_delta"] == pytest.approx(0.003)

    def test_rising_tail_is_violated(self):
        verdict = delta_trend(self._states([0.3, 0.1, 0.001, 0.002, 0.003]))
        assert verdict.status == VIOLATED
        assert "not decreasing" in verdict.summary

    def test_large_final_value_is_violated(self):
        verdict = delta_trend(self._states([0.5, 0.4, 0.3, 0.2, 0.1]))
        assert verdict.status == VIOLATED
        assert "exceeds" in verdict.summary

    def test_short_ladder_is_inconclusive(self):
        assert delta_trend(self._states([0.1, 0.01])).status == INCONCLUSIVE


class TestHolderSeminorm:
    def test_constant_field_has_zero_seminorm(self):
        spec = TorusSpec(1, 16)
        field = GridField(spec, np.full(spec.shape, 3.7))
        assert holder_seminorm(field, 0.5, 2 * spec.h) == 0.0

    def test_single_mode_matches_the_closed_form(self):
        # grad is a sine along axis 0; the worst difference quotient sits on
        # the four-step axis stencil: 4 pi a sin(4 pi h) / (4h)^gamma.
        spec = TorusSpec(1, 64)
        a = 0.3
        measured = holder_seminorm(_mode(spec, a), 0.5, 2 * spec.h)
        expected = 4 * np.pi * a * np.sin(4 * np.pi * spec.h) / (4 * spec.h) ** 0.5
        assert measured == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_the_exclusion_radius(self):
        spec = TorusSpec(1, 64)
        field = evaluate(
            QuasiPshModel(spec, poles=(Pole(center=(0.5, 0.5), weight=0.5),))
        )
        values = [
            holder_seminorm(field, 0.5, r * spec.h, ((0.5, 0.5),))
            for r in (2, 4, 8, 16)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[0] / values[-1] > 10  # roughness concentrates at the pole

    def test_parameter_validation(self):
        spec = TorusSpec(1, 16)
        field = _mode(spec, 0.1)
        with pytest.raises(ValueError, match=r"must lie in \(0,1\)"):
            holder_seminorm(field, 1.0, 2 * spec.h)
        for radius in (spec.h, float("nan")):
            with pytest.raises(ValueError, match="at least 2h"):
                holder_seminorm(field, 0.5, radius)
        with pytest.raises(ValueError, match="no admissible stencil pairs"):
            holder_seminorm(field, 0.5, 0.75, ((0.5, 0.5),))
        with pytest.raises(ValueError, match="needs 2 coordinates, got 1"):
            holder_seminorm(field, 0.5, 0.25, ((0.5,),))


def _one_radius_loop(phi, gamma, radius, centers):
    """Reference: one exclusion radius, every leg rolled and compared anew."""
    spec = phi.spec
    coords = spec.coordinates()
    keep = np.ones(spec.shape, dtype=bool)
    for center in centers:
        d2 = np.zeros(spec.shape)
        for axis in range(spec.num_axes):
            d2 = d2 + (np.mod(coords[axis] - center[axis] + 0.5, 1.0) - 0.5) ** 2
        keep &= np.sqrt(d2) >= radius
    grad = spectral_gradient(phi)
    axes = tuple(range(spec.num_axes))
    best = -np.inf
    for v in product((-1, 0, 1), repeat=spec.num_axes):
        if not any(v) or next(c for c in v if c != 0) < 0:
            continue
        for m in (1, 2, 4):
            separation = m * spec.h * float(np.linalg.norm(v))
            if separation > 0.25:
                continue
            shift = tuple(-m * c for c in v)
            valid = keep & np.roll(keep, shift, axis=axes)
            if not valid.any():
                continue
            diff2 = np.zeros(spec.shape)
            for comp in grad:
                diff2 += (np.roll(comp, shift, axis=axes) - comp) ** 2
            quotient = np.sqrt(diff2[valid]) / separation**gamma
            best = max(best, float(np.max(quotient)))
    return best


class TestHolderSeminorms:
    @pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
    def test_one_pass_equals_the_one_radius_loop_bitwise(self, n, N):
        spec = TorusSpec(n, N)
        center = (0.5,) * spec.num_axes
        pole = evaluate(QuasiPshModel(spec, poles=(Pole(center=center, weight=0.5),)))
        field = GridField(spec, pole.values + 0.1 * trig_poly(spec, 3, seed=n).values)
        radii = (8 * spec.h, 4 * spec.h, 2 * spec.h)
        masks = tuple(estimates._exclusion_mask(spec, (center,), r) for r in radii)
        measured = estimates._seminorms(field, 0.5, radii, masks)
        expected = tuple(_one_radius_loop(field, 0.5, r, (center,)) for r in radii)
        assert measured == expected
        assert measured[0] < measured[-1]  # the pole is felt at the inner radius

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
    def test_the_stencil_holds_two_read_only_masks(self, n, N):
        # The stencil keeps one boolean exclusion mask per radius, one byte
        # a point, and no per-leg pairs: each pass pairs the masks anew.
        spec = TorusSpec(n, N)
        stencil = estimates._HolderStencil.build(
            spec, EstimateSettings(), ((0.5,) * spec.num_axes,)
        )
        values = [
            item
            for value in vars(stencil).values()
            for item in (value if isinstance(value, tuple) else (value,))
        ]
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        assert len(arrays) == 2
        assert all(a.dtype == bool and a.shape == spec.shape for a in arrays)
        assert not any(a.flags.writeable for a in arrays)
        assert sum(a.nbytes for a in arrays) == 2 * N ** (2 * n)

    def test_an_empty_radius_is_named(self):
        spec = TorusSpec(1, 16)
        field = _mode(spec, 0.1)
        with pytest.raises(
            ValueError,
            match="exclusion radius 0.75 leaves no admissible stencil pairs",
        ):
            holder_seminorm(field, 0.5, 0.75, ((0.5, 0.5),))

    @pytest.mark.parametrize("n, N", [(1, 16), (2, 8)])
    def test_the_parse_time_check_agrees_with_the_seminorms(self, n, N):
        # Radii from 2h (the smallest any setting allows) to past the
        # half-diagonal; one pole, or two at varying distance.
        spec = TorusSpec(n, N)
        field = GridField(spec, trig_poly(spec, 2, seed=N).values)
        center = (0.5,) * spec.num_axes
        placements = [()] + [
            (center, tuple((c + k * spec.h) % 1.0 for c in center))
            for k in (0, 1, N // 4, N // 2)
        ]
        outcomes = set()
        for singular in placements:
            for r in np.linspace(2 * spec.h, 0.8, 13):
                try:
                    holder_seminorm(field, 0.5, r, singular)
                    measured = True
                except ValueError:
                    measured = False
                assert has_admissible_pairs(spec, r, singular) == measured, (r, singular)
                outcomes.add(measured)
            with pytest.raises(ValueError, match="at least 2h"):
                has_admissible_pairs(spec, float("nan"), singular)
        assert outcomes == {True, False}

    def test_the_ladder_differentiates_each_measured_field_once(self, monkeypatch):
        # Outer radius on the last three rungs, inner radius on the last:
        # three fields, three gradients, each taken as its rung is solved,
        # and one mask per radius (after the pole mask at one spacing) for
        # the whole ladder.  The record then reads the numbers.
        experiment = parse_config(
            "[torus]\nn = 1\nN = 32\n"
            "[alpha]\nt = 0.5\n"
            "[psi2]\npole = 0.5 0.5, 0.3, 0.1, 0.2\n"
            "[continuation]\nschedule = 0.25 0.125 0.0625 0.03125\n"
            "[output]\nname = holder\n"
        )
        measured = []
        masks = []
        exclusion_mask = estimates._exclusion_mask

        def counted(phi):
            measured.append(phi)
            return spectral_gradient(phi)

        def counted_mask(spec, centers, radius):
            masks.append(radius)
            return exclusion_mask(spec, centers, radius)

        monkeypatch.setattr(estimates, "spectral_gradient", counted)
        monkeypatch.setattr(estimates, "_exclusion_mask", counted_mask)
        states = run_continuation(experiment.scenario)
        assert len(measured) == 3
        assert all(a is s.phi for a, s in zip(measured, states[-3:]))
        h = experiment.scenario.spec.h
        assert masks == [h, 8 * h, 2 * h]
        build_record(experiment, states)
        assert len(measured) == 3


class TestInteriorRegularity:
    @staticmethod
    def _data(report):
        return dict(report.data)

    def test_single_mode_closed_forms_and_margins(self):
        spec = TorusSpec(1, 64)
        a = 0.3
        field = _mode(spec, a)
        settings = EstimateSettings(exclusion_outer=4.0)
        report = interior_regularity(_holder_states([field] * 3, settings), settings, 1)
        data = self._data(report)
        holder = holder_seminorm(field, 0.5, 4 * spec.h)
        assert data["outer_seminorm_final"] == holder
        # |H(phi)| = pi^2 a |cos|; the grid fourth-moment of the cosine is
        # exactly 3/8, so the L^4 norm is pi^2 a (3/8)^(1/4).
        assert data["sobolev_norm_final"] == pytest.approx(
            np.pi**2 * a * (3.0 / 8.0) ** 0.25, rel=1e-12
        )
        assert data["holder_to_sobolev_ratio"] == pytest.approx(
            holder / data["sobolev_norm_final"], rel=1e-14
        )
        # q(1-gamma) = 2: zero margin in real dimension 2n = 2, positive
        # margin in complex dimension n = 1.
        assert data["embedding_margin_real_dimension"] == pytest.approx(0.0, abs=1e-14)
        assert data["embedding_margin_complex_dimension"] == pytest.approx(1.0, abs=1e-14)
        # one field three times cannot spread
        assert report.status == HOLDS
        assert dict(report.witness) == {"spread": 1.0}

    def test_the_spread_reads_the_last_three_rungs(self):
        spec = TorusSpec(1, 32)
        settings = EstimateSettings()
        ladder = [_mode(spec, a) for a in (0.4, 0.1, 0.1, 0.1)]
        states = _holder_states(ladder, settings)
        assert ["holder_outer" in s.diagnostics for s in states] == [False] + [True] * 3
        assert interior_regularity(states, settings, 1).status == HOLDS
        ladder[-1] = _mode(spec, 0.2)
        rising = interior_regularity(_holder_states(ladder, settings), settings, 1)
        assert rising.status == VIOLATED
        assert dict(rising.witness)["spread"] == pytest.approx(2.0, rel=1e-12)

    def test_an_empty_radius_is_named_by_the_pass(self):
        # Settings built in Python skip the parse-time check; the first rung
        # that measures the radius names it.
        spec = TorusSpec(1, 16)
        settings = EstimateSettings(exclusion_outer=0.75 / spec.h)
        with pytest.raises(ValueError, match="radius 0.75 leaves no admissible stencil pairs"):
            _holder_states([_mode(spec, 0.1)] * 3, settings, ((0.5, 0.5),))
