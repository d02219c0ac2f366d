"""Closed-form checks for the singular-potential library.

Every expected value below is hand-derived from the model definition:
smooth parts are finite cosine sums, singular parts are cutoff log poles
``w * chi(d) * log(d^2 + s^2)`` with a quintic cutoff that is identically 1
inside ``r0`` and identically 0 outside ``r1``.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from torusma import pluripotential
from torusma.geometry import (
    GridField,
    TorusSpec,
    complex_hessian,
    min_eigenvalue_field,
)
from torusma.pluripotential import (
    DensityCheck,
    Pole,
    QuasiPshModel,
    RegularizationContractError,
    SmoothMode,
    _logsumexp,
    density_lp_check,
    evaluate,
    hessian_lower_bound,
    lelong_number,
    regularize,
    skoda_integrability,
)


SPEC64 = TorusSpec(1, 64)


def _mode_field(spec, amplitude, axis=0, phase=0.0):
    x = spec.axis_coordinate(axis)
    return amplitude * np.cos(2 * np.pi * x + phase) * np.ones(spec.shape)


class TestEvaluation:
    def test_single_mode_closed_form(self):
        model = QuasiPshModel(SPEC64, smooth=(SmoothMode(0.3, (1, 0), 0.7),))
        got = evaluate(model)
        np.testing.assert_allclose(
            got.values, _mode_field(SPEC64, 0.3, 0, 0.7), atol=1e-14
        )

    def test_shifted_adds_a_constant(self):
        model = QuasiPshModel(SPEC64, smooth=(SmoothMode(0.3, (1, 0), 0.7),))
        base = evaluate(model)
        shifted = evaluate(model.shifted(2.5))
        np.testing.assert_allclose(shifted.values, base.values + 2.5, atol=1e-14)

    def test_pole_center_hits_the_grid_floor(self):
        # Sharp evaluation floors the pole argument at the cell scale h, and
        # the cutoff is 1 at the center, so the on-grid center value is
        # exactly  smooth(center) + w * log(h^2).
        model = QuasiPshModel(
            SPEC64,
            smooth=(SmoothMode(0.3, (1, 0)),),
            poles=(Pole(center=(0.5, 0.5), weight=0.7, r0=0.1, r1=0.2),),
        )
        field = evaluate(model, smoothing=0.0)
        want = 0.3 * np.cos(np.pi) + 0.7 * np.log(SPEC64.h**2)
        assert field.values[32, 32] == pytest.approx(want, abs=1e-12)

    def test_point_values_inside_plateau_and_outside_support(self):
        # Grid node (i, j) sits at (i/64, j/64); none below is within the
        # floor scale h of the center, so the floor plays no part.
        model = QuasiPshModel(
            SPEC64,
            smooth=(SmoothMode(0.3, (1, 0)),),
            poles=(Pole(center=(0.5, 0.5), weight=0.7, r0=0.1, r1=0.2),),
        )
        field = evaluate(model, smoothing=0.0)
        got = field.values[[35, 32, 61], [32, 46, 32]]
        want = np.array(
            [
                # distance 3/64 < r0: full pole term w log(d^2)
                0.3 * np.cos(2 * np.pi * 35 / 64) + 0.7 * np.log((3 / 64) ** 2),
                # distance 14/64 > r1: the pole contributes nothing
                0.3 * np.cos(np.pi),
                # distance 29/64 > r1 likewise
                0.3 * np.cos(2 * np.pi * 61 / 64),
            ]
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_distance_wraps_around_the_torus(self):
        model = QuasiPshModel(
            SPEC64, poles=(Pole(center=(0.95, 0.5), weight=0.6, r0=0.1, r1=0.2),)
        )
        got = evaluate(model, smoothing=0.0).values[2, 32]
        # periodic distance |2/64 - 0.95| -> 0.08125 through the seam
        assert got == pytest.approx(0.6 * np.log(0.08125**2), abs=1e-12)

    def test_positive_smoothing_widens_the_pole(self):
        model = QuasiPshModel(
            SPEC64, poles=(Pole(center=(0.5, 0.5), weight=0.7, r0=0.1, r1=0.2),)
        )
        got = evaluate(model, smoothing=0.05).values[33, 32]
        assert got == pytest.approx(0.7 * np.log((1 / 64) ** 2 + 0.05**2), abs=1e-12)

    def test_resolution_override_is_exact_for_band_limited_models(self):
        model = QuasiPshModel(TorusSpec(1, 16), smooth=(SmoothMode(0.4, (2, 1), 0.7),))
        coarse = evaluate(model)
        fine = evaluate(QuasiPshModel(TorusSpec(1, 32), model.smooth, model.poles))
        # The closed form is sampled, not interpolated: shared grid points agree.
        np.testing.assert_array_equal(fine.values[::2, ::2], coarse.values)


class TestValidation:
    def test_pole_rejects_bad_parameters(self):
        for weight in (0.0, float("nan")):
            with pytest.raises(ValueError, match="weight must be positive"):
                Pole(center=(0.5, 0.5), weight=weight)
        with pytest.raises(ValueError, match="cutoff radii"):
            Pole(center=(0.5, 0.5), weight=0.5, r0=0.2, r1=0.1)
        with pytest.raises(ValueError, match="cutoff radii"):
            Pole(center=(0.5, 0.5), weight=0.5, r0=0.1, r1=0.3)
        with pytest.raises(ValueError, match="center must lie in"):
            Pole(center=(1.5, 0.5), weight=0.5)

    def test_mode_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="wavenumbers must be integers"):
            SmoothMode(0.1, (0.5, 0))
        for amplitude, phase in ((float("nan"), 0.0), (0.1, float("inf"))):
            with pytest.raises(ValueError, match="must be finite"):
                SmoothMode(amplitude, (1, 0), phase)

    def test_model_rejects_dimension_mismatches(self):
        with pytest.raises(ValueError, match="mode frequency"):
            QuasiPshModel(SPEC64, smooth=(SmoothMode(0.1, (1, 0, 0, 0)),))
        with pytest.raises(ValueError, match="pole center"):
            QuasiPshModel(SPEC64, poles=(Pole(center=(0.5,) * 4, weight=0.5),))
        # a point is never truncated to fewer axes than the grid has
        model = QuasiPshModel(SPEC64, poles=(Pole(center=(0.5, 0.5), weight=0.5),))
        with pytest.raises(ValueError, match="needs 2 coordinates, got 1"):
            lelong_number(model, (0.5,))
        with pytest.raises(ValueError, match="needs 2 coordinates, got 1"):
            skoda_integrability(model, 1.5, (0.5,))

    def test_evaluate_rejects_bad_overrides(self):
        model = QuasiPshModel(SPEC64)
        for smoothing in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="nonnegative"):
                evaluate(model, smoothing=smoothing)
            with pytest.raises(ValueError, match="nonnegative"):
                hessian_lower_bound(model, smoothing)


class TestHessianLowerBound:
    def test_single_cosine_exact_constant(self):
        # psi = cos(2 pi x0) has complex Hessian -pi^2 cos(2 pi x0); the grid
        # contains x0 = 0, so the certified constant is pi^2 plus the 1e-6
        # strictness margin.
        model = QuasiPshModel(SPEC64, smooth=(SmoothMode(1.0, (1, 0)),))
        assert hessian_lower_bound(model) == pytest.approx(
            np.pi**2 + 1e-6, abs=1e-10
        )

    def test_flat_model_keeps_only_the_margin(self):
        assert hessian_lower_bound(QuasiPshModel(SPEC64)) == 1e-6

    def test_bound_grows_as_the_pole_sharpens(self):
        model = QuasiPshModel(
            SPEC64, poles=(Pole(center=(0.5, 0.5), weight=0.5, r0=0.1, r1=0.2),)
        )
        assert hessian_lower_bound(model, 0.05) > hessian_lower_bound(model, 0.1)


class TestRegularize:
    MODEL = QuasiPshModel(
        SPEC64, poles=(Pole(center=(0.5, 0.5), weight=0.5, r0=0.1, r1=0.2),)
    )

    def test_smooth_model_reduces_to_heat_decay(self):
        # A single mode is an eigenfunction of the heat kernel: amplitude
        # decays by exp(-4 pi^2 eps |k|^2) and nothing else happens.
        model = QuasiPshModel(SPEC64, smooth=(SmoothMode(0.5, (1, 0), 0.2),))
        eps = 0.02
        out = regularize(model, eps)
        want = np.exp(-4 * np.pi**2 * eps) * _mode_field(SPEC64, 0.5, 0, 0.2)
        np.testing.assert_allclose(out.values, want, atol=1e-13)

    def test_lower_guarantee_against_the_sharp_field(self):
        sharp = evaluate(self.MODEL, smoothing=0.0)
        for eps in (0.1, 0.025, 0.00390625):
            out = regularize(self.MODEL, eps)
            assert float(np.min(out.values - sharp.values)) >= -1.0 - 1e-9

    def test_curvature_guarantee_with_certified_constant(self):
        eps = 0.01
        out = regularize(self.MODEL, eps)
        C = hessian_lower_bound(self.MODEL, s_min=float(np.sqrt(eps)))
        lam = float(np.min(min_eigenvalue_field(complex_hessian(out)).values))
        assert lam + C >= -1e-8

    @pytest.mark.parametrize("certificate", [-1e-8, -1.01e-8, -1e-6])
    def test_the_curvature_guarantee_floor_is_minus_1e_minus_8(self, monkeypatch, certificate):
        # The certificate is replaced by a value at or below the floor; the
        # smoothing itself is the certified one of the test above.
        real = pluripotential._certified
        monkeypatch.setattr(
            pluripotential, "_certified", lambda calc, C: (*real(calc, C)[:3], certificate)
        )
        if certificate >= -1e-8:
            assert regularize(self.MODEL, 0.01).values.shape == SPEC64.shape
        else:
            with pytest.raises(RegularizationContractError, match="curvature bound fails"):
                regularize(self.MODEL, 0.01)

    def test_l1_distance_to_sharp_decreases_with_eps(self):
        sharp = evaluate(self.MODEL, smoothing=0.0)
        dists = [
            float(np.mean(np.abs(regularize(self.MODEL, eps).values - sharp.values)))
            for eps in (0.05, 0.0125, 0.003125, 0.00078125)
        ]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_inconsistent_pole_trips_the_contract(self):
        # A weight far past the dimensional threshold carries more negative
        # mass than the contractual slack of 1 at mid-range smoothing widths.
        spec = TorusSpec(1, 128)
        hot = QuasiPshModel(
            spec, poles=(Pole(center=(0.5, 0.5), weight=1.4, r0=0.1, r1=0.2),)
        )
        with pytest.raises(RegularizationContractError, match="below the sharp field"):
            regularize(hot, 2.0**-8)
        # The same call without enforcement still returns a field, and
        # parameters beyond the contractual range are never checked.
        assert regularize(hot, 2.0**-8, check=False).values.shape == spec.shape
        assert regularize(hot, 0.25).values.shape == spec.shape

    def test_requires_positive_parameter(self):
        for eps in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="regularization parameter must be positive"):
                regularize(self.MODEL, eps)


class TestLelong:
    def test_number_reads_off_matching_weights(self):
        model = QuasiPshModel(
            SPEC64,
            smooth=(SmoothMode(0.1, (1, 0)),),
            poles=(Pole(center=(0.5, 0.5), weight=0.8, r0=0.2, r1=0.24),),
        )
        assert lelong_number(model, (0.5, 0.5)) == 0.8
        assert lelong_number(model, (0.1, 0.1)) == 0.0

    def test_coincident_poles_add(self):
        model = QuasiPshModel(
            SPEC64,
            poles=(
                Pole(center=(0.5, 0.5), weight=0.3, r0=0.2, r1=0.24),
                Pole(center=(0.5, 0.5), weight=0.4, r0=0.1, r1=0.2),
            ),
        )
        assert lelong_number(model, (0.5, 0.5)) == pytest.approx(0.7)


class TestSkodaDichotomy:
    # Exponential integrability of exp(-p psi) near an isolated log pole of
    # weight w is decided by the sign of n - p w.
    N1 = TorusSpec(1, 64)

    def _model(self, spec, weight):
        center = (0.5,) * spec.num_axes
        return QuasiPshModel(
            spec, poles=(Pole(center=center, weight=weight, r0=0.1, r1=0.2),)
        )

    @pytest.mark.parametrize(
        "factor, verdict",
        [(0.4, "integrable"), (0.9, "integrable"), (1.1, "non-integrable")],
    )
    def test_verdict_matches_the_margin_sign_n1(self, factor, verdict):
        n, p = 1, 1.5
        result = skoda_integrability(self._model(self.N1, factor * n / p), p, (0.5, 0.5))
        assert result.numeric_verdict == verdict
        assert result.integrable is (factor < 1.0)
        assert result.margin == pytest.approx(n * (1 - factor), abs=1e-12)
        assert not result.borderline

    @pytest.mark.parametrize("factor, verdict", [(0.4, "integrable"), (1.1, "non-integrable")])
    def test_verdict_matches_the_margin_sign_n2(self, factor, verdict):
        n, p = 2, 1.5
        spec = TorusSpec(2, 16)
        center = (0.5,) * 4
        result = skoda_integrability(self._model(spec, factor * n / p), p, center)
        assert result.numeric_verdict == verdict

    def test_threshold_weight_is_borderline(self):
        result = skoda_integrability(self._model(self.N1, 1.0 / 1.5), 1.5, (0.5, 0.5))
        assert result.borderline
        assert result.margin == pytest.approx(0.0, abs=1e-12)

    def test_refinement_increments_shrink_when_integrable(self):
        result = skoda_integrability(self._model(self.N1, 0.3), 1.5, (0.5, 0.5))
        i1, i2, i3 = result.integrals
        assert i1 < i2 < i3  # the deepening grid floor adds mass...
        assert result.increment_ratio < 0.95  # ...at a geometrically dying rate

    def test_rejects_exponent_below_one(self):
        for p in (0.5, float("nan")):
            with pytest.raises(ValueError, match="must be >= 1"):
                skoda_integrability(self._model(self.N1, 0.3), p, (0.5, 0.5))

    @staticmethod
    def _whole_grid_log_integrals(model, p, x, base_resolution):
        """Ball quadrature that samples the whole torus, then masks the ball."""
        radius = min(pl.r1 for pl in model.poles)
        out = []
        for N in (base_resolution, 2 * base_resolution, 4 * base_resolution):
            sub = TorusSpec(model.spec.n, N)
            psi = evaluate(QuasiPshModel(sub, model.smooth, model.poles), 0.0)
            d2 = 0.0
            for cj, aj in zip(sub.coordinates(), x):
                d2 = d2 + (np.mod(cj - aj + 0.5, 1.0) - 0.5) ** 2
            mask = np.broadcast_to(d2 <= radius**2, sub.shape)
            log_sum = float(logsumexp(-p * psi.values[mask]))
            out.append(log_sum - sub.num_axes * np.log(N))
        return out

    @pytest.mark.parametrize(
        "spec, x, base",
        [
            (TorusSpec(1, 64), (0.03, 0.97), 64),
            (TorusSpec(2, 16), (0.9, 0.05, 0.5, 0.23), 12),
        ],
        ids=["n1", "n2"],
    )
    def test_ball_window_equals_the_whole_grid(self, spec, x, base):
        # The centre sits near the seam, so the index window wraps around.
        model = QuasiPshModel(
            spec,
            smooth=(SmoothMode(0.2, (1,) + (0,) * (spec.num_axes - 2) + (1,), 0.4),),
            poles=(Pole(center=x, weight=0.9, r0=0.08, r1=0.2),),
        )
        result = skoda_integrability(model, 1.5, x)
        l1, l2, l3 = self._whole_grid_log_integrals(model, 1.5, x, base)
        assert result.integrals == tuple(float(np.exp(v)) for v in (l1, l2, l3))
        d1 = np.exp(l1) * np.expm1(l2 - l1)
        d2 = np.exp(l1) * (np.exp(l3 - l1) - np.exp(l2 - l1))
        assert result.increment_ratio == float(d2 / d1)

    def test_n2_quadrature_samples_only_the_ball(self):
        # The whole 48^4 torus is 5.3 M points (42 MiB per real field); the
        # ball of radius 0.2 needs a window of at most 21^4 points.
        model = self._model(TorusSpec(2, 16), 0.5)
        tracemalloc.start()
        try:
            skoda_integrability(model, 1.5, (0.5,) * 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestLogSumExp:
    """``pluripotential._logsumexp`` is scipy's ``logsumexp`` bit for bit on
    the finite 1-D real arrays the ball quadrature passes it."""

    @staticmethod
    def _assert_bits(a):
        got, want = np.float64(_logsumexp(a)), np.float64(logsumexp(a))
        assert got.view(np.int64) == want.view(np.int64), (got, want)

    def test_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            self._assert_bits(rng.normal(size=rng.integers(2, 5000)) * rng.uniform(0.01, 50))

    def test_ties_at_the_maximum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = np.round(rng.normal(size=rng.integers(2, 2000)) * 3)
            a[rng.integers(0, a.size, size=4)] = a.max()
            assert np.count_nonzero(a == a.max()) > 1
            self._assert_bits(a)
        self._assert_bits(np.full(7, -2.5))

    @pytest.mark.parametrize("value", [0.0, -3.25, 812.0])
    def test_a_single_element(self, value):
        self._assert_bits(np.array([value]))
        assert _logsumexp(np.array([value])) == value

    def test_a_spread_wider_than_exp_can_hold(self):
        # exp overflows above log(DBL_MAX) = 709.78: only the shift by the
        # maximum keeps these finite.
        a = np.random.default_rng(7).uniform(-400.0, 1500.0, size=3000)
        assert np.ptp(a) > 700 and a.max() > np.log(np.finfo(float).max)
        self._assert_bits(a)
        self._assert_bits(-a)
        assert np.isfinite(_logsumexp(a))


class TestDensityCheck:
    def test_identical_factors_have_unit_norm(self):
        model = QuasiPshModel(SPEC64, smooth=(SmoothMode(0.2, (1, 0)),))
        result = density_lp_check(model, model, 1.5)
        assert isinstance(result, DensityCheck)
        assert result.norm == pytest.approx(1.0, abs=1e-12)
        assert result.refinement_ratio == pytest.approx(1.0, abs=1e-12)
        assert not result.flagged

    def test_above_threshold_pole_is_flagged(self):
        spec = TorusSpec(1, 32)
        psi2 = QuasiPshModel(
            spec, poles=(Pole(center=(0.5, 0.5), weight=1.4, r0=0.1, r1=0.2),)
        )
        result = density_lp_check(QuasiPshModel(spec), psi2, 1.5)
        # exp(-psi2) ~ d^{-2.8} is not L^{1.5} in two real dimensions: the
        # norm tracks the resolution-dependent pole floor instead of converging.
        assert result.flagged
        assert result.refinement_ratio > 1.5

    def test_below_threshold_pole_is_stable(self):
        spec = TorusSpec(1, 32)
        psi2 = QuasiPshModel(
            spec, poles=(Pole(center=(0.5, 0.5), weight=0.5, r0=0.1, r1=0.2),)
        )
        result = density_lp_check(QuasiPshModel(spec), psi2, 1.5)
        assert not result.flagged

    @staticmethod
    def _n2_factors():
        spec = TorusSpec(2, 16)
        psi1 = QuasiPshModel(spec, smooth=(SmoothMode(0.3, (1, 0, 0, 1), 0.3),))
        psi2 = QuasiPshModel(
            spec, poles=(Pole(center=(0.5, 0.4, 0.25, 0.3), weight=0.5, r0=0.1, r1=0.2),)
        )
        return psi1, psi2

    @pytest.mark.parametrize("n", [1, 2])
    def test_slabs_equal_the_whole_grid(self, n):
        # Reference: both grids sampled whole and reduced by one logsumexp.
        # The slabbed sum adds the same terms in another order, so the
        # norms agree to a few ulps of the 2^20-term sum, not bit for bit.
        if n == 1:
            spec = TorusSpec(1, 512)
            psi1 = QuasiPshModel(spec, smooth=(SmoothMode(0.2, (1, 1), 0.1),))
            psi2 = QuasiPshModel(
                spec, poles=(Pole(center=(0.3, 0.6), weight=1.4, r0=0.1, r1=0.2),)
            )
        else:
            psi1, psi2 = self._n2_factors()
            spec = psi1.spec
        p = 1.5
        want = []
        for scale in (1, 2):
            sub = TorusSpec(n, spec.N * scale)
            diff = (
                evaluate(QuasiPshModel(sub, psi1.smooth, psi1.poles), 0.0).values
                - evaluate(QuasiPshModel(sub, psi2.smooth, psi2.poles), 0.0).values
            )
            log_sum = logsumexp(p * diff) - sub.num_axes * np.log(sub.N)
            want.append(float(np.exp(log_sum / p)))
        got = density_lp_check(psi1, psi2, p)
        assert got.norm == pytest.approx(want[0], rel=1e-13)
        assert got.refined_norm == pytest.approx(want[1], rel=1e-13)

    def test_n2_refinement_holds_no_whole_grid_field(self):
        # The 2N grid is 32^4 = 1 M points, 8 MiB per real field; a
        # whole-grid logsumexp needs several such temporaries at once.
        psi1, psi2 = self._n2_factors()
        tracemalloc.start()
        try:
            density_lp_check(psi1, psi2, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_rejects_bad_inputs(self):
        model = QuasiPshModel(SPEC64)
        for p in (1.0, float("nan")):
            with pytest.raises(ValueError, match="exponent must be > 1"):
                density_lp_check(model, model, p)
        with pytest.raises(ValueError, match="different grids"):
            density_lp_check(model, QuasiPshModel(TorusSpec(1, 32)), 1.5)
