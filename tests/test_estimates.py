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
    Verdict,
    _RungMetric,
    _trace_identity_defect,
    _weighted_sup,
    c0_uniformity,
    c2_uniformity,
    comparison_residual,
    delta_trend,
    holder_seminorm,
    holder_seminorms,
    siu_residual,
    sobolev_holder_probe,
)
from torusma.geometry import (
    GridField,
    HermitianFormField,
    TorusSpec,
    complex_hessian,
    half_laplacian,
    min_eigenvalue_field,
    scaled_identity,
    spectral_gradient,
)
from torusma.ma import PositivityError, ma_density
from torusma.pluripotential import Pole, QuasiPshModel, evaluate
from torusma.report import build_record
from conftest import trig_poly


def _mode(spec, amplitude, axis=0):
    x = spec.axis_coordinate(axis)
    return GridField(spec, amplitude * np.cos(2 * np.pi * x) * np.ones(spec.shape))


def _zero(spec):
    return GridField(spec, spec.zeros())


def _state(phi, eps=0.1, delta=0.0):
    return ContinuationState(
        eps=eps, delta_eps=delta, phi=phi, rho=phi.spec.zeros(), newton_steps=0,
        diagnostics={},
    )


def _ladder(spec, amplitudes, eps_start=0.25):
    return [
        _state(_mode(spec, a), eps=eps_start * 0.5**i)
        for i, a in enumerate(amplitudes)
    ]


def _certified_C(psi):
    eig = min_eigenvalue_field(
        HermitianFormField(psi.spec, complex_hessian(psi).values)
    )
    return -float(np.min(eig.values)) + 1e-3


SPEC1 = TorusSpec(1, 32)


class TestVerdict:
    def test_status_vocabulary_is_closed(self):
        with pytest.raises(ValueError, match="unknown verdict status"):
            Verdict("maybe", "nope")

    def test_ok_reads_the_status(self):
        assert Verdict(HOLDS, "yes").ok
        assert not Verdict(VIOLATED, "no").ok
        assert not Verdict(INCONCLUSIVE, "dunno").ok


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
        with pytest.raises(ValueError, match="at least 2h"):
            holder_seminorm(field, 0.5, spec.h)
        with pytest.raises(ValueError, match="no admissible stencil pairs"):
            holder_seminorm(field, 0.5, 0.75, ((0.5, 0.5),))


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
        measured = holder_seminorms(field, 0.5, radii, (center,))
        expected = tuple(_one_radius_loop(field, 0.5, r, (center,)) for r in radii)
        assert measured == expected
        assert measured[0] < measured[-1]  # the pole is felt at the inner radius

    def test_an_empty_radius_is_named(self):
        spec = TorusSpec(1, 16)
        field = _mode(spec, 0.1)
        with pytest.raises(
            ValueError,
            match="exclusion radius 0.75 leaves no admissible stencil pairs",
        ):
            holder_seminorms(field, 0.5, (2 * spec.h, 0.75), ((0.5, 0.5),))

    def test_build_record_differentiates_each_measured_field_once(self, monkeypatch):
        # Outer radius on the last three rungs, inner radius on the last:
        # three fields, three gradients.
        experiment = parse_config(
            "[torus]\nn = 1\nN = 32\n"
            "[alpha]\nt = 0.5\n"
            "[psi2]\npole = 0.5 0.5, 0.3, 0.1, 0.2\n"
            "[continuation]\nschedule = 0.25 0.125 0.0625 0.03125\n"
            "[output]\nname = holder\n"
        )
        states = run_continuation(experiment.scenario)
        measured = []

        def counted(phi):
            measured.append(phi)
            return spectral_gradient(phi)

        monkeypatch.setattr(estimates, "spectral_gradient", counted)
        build_record(experiment, states)
        assert len(measured) == 3
        assert all(a is s.phi for a, s in zip(measured, states[-3:]))


class TestSobolevHolderProbe:
    def test_single_mode_closed_forms_and_margins(self):
        spec = TorusSpec(1, 64)
        a = 0.3
        field = _mode(spec, a)
        holder = holder_seminorm(field, 0.5, 2 * spec.h)
        report = sobolev_holder_probe(field, 0.5, 4.0, 2 * spec.h, holder=holder)
        # |H(phi)| = pi^2 a |cos|; the grid fourth-moment of the cosine is
        # exactly 3/8, so the L^4 norm is pi^2 a (3/8)^(1/4).
        assert report.sobolev_norm == pytest.approx(
            np.pi**2 * a * (3.0 / 8.0) ** 0.25, rel=1e-12
        )
        assert report.ratio == pytest.approx(holder / report.sobolev_norm, rel=1e-14)
        # q(1-gamma) = 2: zero margin in real dimension 2n = 2, positive
        # margin in complex dimension n = 1.
        assert dict(report.margins) == {
            "real_dimension": pytest.approx(0.0, abs=1e-14),
            "complex_dimension": pytest.approx(1.0, abs=1e-14),
        }

    def test_parameter_validation(self):
        spec = TorusSpec(1, 16)
        field = _mode(spec, 0.1)
        with pytest.raises(ValueError, match="must be positive"):
            sobolev_holder_probe(field, 0.5, 0.0, 2 * spec.h, holder=1.0)
        with pytest.raises(ValueError, match="removes the whole grid"):
            sobolev_holder_probe(field, 0.5, 4.0, 0.75, ((0.5, 0.5),), holder=1.0)
