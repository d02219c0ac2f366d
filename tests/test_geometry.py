"""Spectral calculus on the flat torus: closed-form and finite-difference oracles."""

import numpy as np
import pytest

from torusma.geometry import (
    GridField,
    HermitianFormField,
    TorusSpec,
    _heat_multiplier,
    _hessian_and_trace,
    _spectral,
    complex_hessian,
    half_laplacian,
    integrate,
    invert_half_laplacian,
    min_eigenvalue_field,
    spectral_gradient,
)

from conftest import trig_poly


def coord_field(spec, expr):
    """Evaluate ``expr(coords)`` and broadcast to the full grid."""
    vals = expr(spec.coordinates())
    return GridField(spec, np.broadcast_to(vals, spec.shape).copy())


class TestSingleModeOracles:
    """Hand-derived derivatives of single trigonometric modes."""

    def test_h11_of_cos_x1_n1(self):
        spec = TorusSpec(1, 32)
        f = coord_field(spec, lambda c: np.cos(2 * np.pi * c[0]) + 0 * c[1])
        H = complex_hessian(f)
        expected = -np.pi**2 * np.broadcast_to(
            np.cos(2 * np.pi * spec.axis_coordinate(0)), spec.shape
        )
        np.testing.assert_allclose(H.entry(0, 0), expected, atol=1e-11)

    def test_h11_of_cos_y1_n1(self):
        spec = TorusSpec(1, 32)
        f = coord_field(spec, lambda c: np.cos(2 * np.pi * c[1]) + 0 * c[0])
        H = complex_hessian(f)
        expected = -np.pi**2 * np.broadcast_to(
            np.cos(2 * np.pi * spec.axis_coordinate(1)), spec.shape
        )
        np.testing.assert_allclose(H.entry(0, 0), expected, atol=1e-11)

    def test_mixed_entry_of_diagonal_mode_n2(self):
        # f = cos(theta), theta = 2 pi (x1 + y2):
        #   H12 f = -i pi^2 cos(theta)   (purely imaginary off-diagonal)
        #   H11 f = H22 f = -pi^2 cos(theta)
        spec = TorusSpec(2, 16)
        f = coord_field(
            spec, lambda c: np.cos(2 * np.pi * (c[0] + c[3])) + 0 * c[1] + 0 * c[2]
        )
        H = complex_hessian(f)
        theta = np.broadcast_to(
            2 * np.pi * (spec.axis_coordinate(0) + spec.axis_coordinate(3)), spec.shape
        )
        np.testing.assert_allclose(H.entry(0, 1), -1j * np.pi**2 * np.cos(theta), atol=1e-11)
        np.testing.assert_allclose(H.entry(1, 0), 1j * np.pi**2 * np.cos(theta), atol=1e-11)
        np.testing.assert_allclose(H.entry(0, 0), -np.pi**2 * np.cos(theta), atol=1e-11)
        np.testing.assert_allclose(H.entry(1, 1), -np.pi**2 * np.cos(theta), atol=1e-11)

    def test_gradient_of_single_mode(self):
        spec = TorusSpec(1, 32)
        f = coord_field(spec, lambda c: np.cos(2 * np.pi * c[0]) + 0 * c[1])
        g = spectral_gradient(f)
        expected = -2 * np.pi * np.broadcast_to(
            np.sin(2 * np.pi * spec.axis_coordinate(0)), spec.shape
        )
        np.testing.assert_allclose(g[0], expected, atol=1e-11)
        np.testing.assert_allclose(g[1], 0.0, atol=1e-11)


class TestFiniteDifferenceOracle:
    """Spectral Hessian agrees with centered differences at the h^2 rate."""

    @staticmethod
    def fd_second(values, a, b, h):
        if a == b:
            return (np.roll(values, -1, a) - 2 * values + np.roll(values, 1, a)) / h**2
        pp = np.roll(np.roll(values, -1, a), -1, b)
        pm = np.roll(np.roll(values, -1, a), 1, b)
        mp = np.roll(np.roll(values, 1, a), -1, b)
        mm = np.roll(np.roll(values, 1, a), 1, b)
        return (pp - pm - mp + mm) / (4 * h**2)

    def fd_hessian_entry(self, f, j, k):
        v, h = f.values, f.spec.h
        real = self.fd_second(v, 2 * j, 2 * k, h) + self.fd_second(v, 2 * j + 1, 2 * k + 1, h)
        imag = self.fd_second(v, 2 * j, 2 * k + 1, h) - self.fd_second(v, 2 * j + 1, 2 * k, h)
        return 0.25 * (real + 1j * imag)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 24)])
    def test_agreement_within_h2_bound(self, n, N):
        spec = TorusSpec(n, N)
        f = trig_poly(spec, kmax=2, seed=7)
        H = complex_hessian(f)
        # Centered differences of a C^4 field err by <= (h^2/12)*max|d^4 f| per
        # 1-d stencil; for frequencies <= kmax the fourth derivative is at most
        # (2 pi kmax)^4 * sum|amplitudes|.  Factor 2 of headroom.
        amp = np.sum(np.abs(f.values)) / f.values.size * 4  # crude amplitude proxy
        sup = np.max(np.abs(f.values))
        bound = 2 * (spec.h**2 / 12) * (2 * np.pi * 2) ** 4 * max(amp, sup)
        for j in range(n):
            for k in range(j, n):
                fd = self.fd_hessian_entry(f, j, k)
                assert np.max(np.abs(H.entry(j, k) - fd)) < bound

    def test_fd_error_shrinks_at_second_order(self):
        errs = []
        for N in (32, 64):
            spec = TorusSpec(1, N)
            f = trig_poly(spec, kmax=2, seed=7)
            H = complex_hessian(f)
            fd = self.fd_hessian_entry(f, 0, 0)
            errs.append(np.max(np.abs(H.entry(0, 0) - fd)))
        rate = errs[0] / errs[1]
        assert 3.0 < rate < 5.0  # second order: factor 4 per halving of h


class TestSpectralExactness:
    def test_band_limited_fields_resolution_independent(self):
        # A trig polynomial with |k| <= N/4 is represented exactly at both N
        # and 2N; its Hessian values must then agree at the shared points.
        coarse = TorusSpec(1, 32)
        fine = TorusSpec(1, 64)
        fc = trig_poly(coarse, kmax=8, seed=3)
        ff = trig_poly(fine, kmax=8, seed=3)
        Hc = complex_hessian(fc).entry(0, 0)
        Hf = complex_hessian(ff).entry(0, 0)[::2, ::2]
        np.testing.assert_allclose(Hc, Hf, atol=1e-10)

    def test_half_laplacian_integrates_to_zero(self):
        for n, N, seed in [(1, 64, 0), (2, 16, 1)]:
            spec = TorusSpec(n, N)
            f = trig_poly(spec, kmax=3, seed=seed)
            res = integrate(half_laplacian(f))
            assert abs(res) < 1e-12 * max(1.0, np.max(np.abs(f.values)))

    def test_half_laplacian_equals_hessian_trace(self):
        spec = TorusSpec(2, 16)
        f = trig_poly(spec, kmax=3, seed=5)
        np.testing.assert_allclose(
            half_laplacian(f).values, complex_hessian(f).trace(), atol=1e-10
        )

    def test_hessian_linearity(self):
        spec = TorusSpec(2, 12)
        f = trig_poly(spec, kmax=2, seed=10)
        g = trig_poly(spec, kmax=2, seed=11)
        lhs = complex_hessian(GridField(spec, 2.5 * f.values - 0.5 * g.values)).values
        rhs = 2.5 * complex_hessian(f).values - 0.5 * complex_hessian(g).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_hessian_output_is_hermitian(self):
        spec = TorusSpec(2, 12)
        H = complex_hessian(trig_poly(spec, kmax=3, seed=2)).values
        np.testing.assert_allclose(H, np.conj(np.swapaxes(H, -1, -2)), atol=0)


def _reference_wavenumbers(spec, odd):
    """Full-spectrum integer frequencies; ``odd`` zeroes the Nyquist entry."""
    k = np.fft.fftfreq(spec.N, d=1.0 / spec.N)
    if odd:
        k[spec.N // 2] = 0.0
    ks = []
    for axis in range(spec.num_axes):
        shape = [1] * spec.num_axes
        shape[axis] = spec.N
        ks.append(k.reshape(shape))
    return ks


def reference_hessian(f):
    """Complex-FFT Hessian, Nyquist zeroed in every first-derivative factor."""
    spec = f.spec
    fhat = np.fft.fftn(f.values)
    even = _reference_wavenumbers(spec, odd=False)
    odd = _reference_wavenumbers(spec, odd=True)
    out = np.zeros(spec.shape + (spec.n, spec.n), dtype=complex)
    for j in range(spec.n):
        kx, ky = even[2 * j], even[2 * j + 1]
        out[..., j, j] = np.real(np.fft.ifftn(-np.pi**2 * (kx**2 + ky**2) * fhat))
        for k in range(j + 1, spec.n):
            kxj, kyj, kxk, kyk = odd[2 * j], odd[2 * j + 1], odd[2 * k], odd[2 * k + 1]
            mult = -np.pi**2 * (kxj * kxk + kyj * kyk + 1j * (kxj * kyk - kyj * kxk))
            ent = np.fft.ifftn(mult * fhat)
            out[..., j, k] = ent
            out[..., k, j] = np.conj(ent)
    return out


def reference_gradient(f):
    fhat = np.fft.fftn(f.values)
    ks = _reference_wavenumbers(f.spec, odd=True)
    return np.stack([np.real(np.fft.ifftn(2j * np.pi * k * fhat)) for k in ks])


class TestRealSpectralCore:
    """Real-to-complex operators on white noise, which fills every mode
    including the Nyquist frequency, against a complex-FFT reference."""

    CASES = [(1, 8, 20), (1, 10, 21), (2, 8, 22)]

    @staticmethod
    def noise(n, N, seed):
        spec = TorusSpec(n, N)
        return GridField(spec, np.random.default_rng(seed).normal(size=spec.shape))

    @pytest.mark.parametrize("n,N,seed", CASES)
    def test_hessian_is_exactly_hermitian(self, n, N, seed):
        H = complex_hessian(self.noise(n, N, seed)).values
        for j in range(n):
            assert np.all(np.imag(H[..., j, j]) == 0.0)
        if n == 2:
            assert np.array_equal(H[..., 1, 0], np.conj(H[..., 0, 1]))

    @pytest.mark.parametrize("n,N,seed", CASES)
    def test_hessian_matches_complex_reference(self, n, N, seed):
        f = self.noise(n, N, seed)
        H = complex_hessian(f).values
        ref = reference_hessian(f)
        scale = np.max(np.abs(H))
        assert scale > 0
        assert np.max(np.abs(H - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("n,N,seed", CASES)
    def test_gradient_matches_complex_reference(self, n, N, seed):
        f = self.noise(n, N, seed)
        g = spectral_gradient(f)
        ref = reference_gradient(f)
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(g))

    @pytest.mark.parametrize("n,N,seed", CASES)
    def test_half_laplacian_is_hessian_trace(self, n, N, seed):
        f = self.noise(n, N, seed)
        lap = half_laplacian(f).values
        trace = complex_hessian(f).trace()
        assert np.max(np.abs(lap - trace)) <= 1e-12 * np.max(np.abs(lap))

    @pytest.mark.parametrize("n,N,seed", CASES + [(1, 512, 23)])
    def test_shared_transform_keeps_the_bits(self, n, N, seed):
        # One forward transform feeds the Hessian and the half-Laplacian;
        # both equal the one-off operators bit for bit (at n = 1 the trace
        # multiplier is the H_00 multiplier, so H_00 is the half-Laplacian).
        f = self.noise(n, N, seed)
        H, trace = _hessian_and_trace(f)
        for got, want in zip(H.parts, complex_hessian(f).parts, strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(trace, half_laplacian(f).values)

    @pytest.mark.parametrize("n,N,seed", CASES)
    def test_inverse_half_laplacian_round_trip(self, n, N, seed):
        f = self.noise(n, N, seed)
        mean_zero = f.values - f.values.mean()
        u = invert_half_laplacian(half_laplacian(f)).values
        assert np.max(np.abs(u - mean_zero)) <= 1e-12 * np.max(np.abs(mean_zero))


class TestInverseAndHeat:
    def test_invert_half_laplacian_round_trip(self):
        spec = TorusSpec(1, 64)
        f = trig_poly(spec, kmax=5, seed=4)
        mean_zero = f.values - f.values.mean()
        u = invert_half_laplacian(half_laplacian(f))
        np.testing.assert_allclose(u.values, mean_zero, atol=1e-11)
        assert abs(u.values.mean()) < 1e-14

    def test_invert_projects_out_mean(self):
        spec = TorusSpec(1, 32)
        const = GridField(spec, np.full(spec.shape, 3.7))
        u = invert_half_laplacian(const)
        np.testing.assert_allclose(u.values, 0.0, atol=1e-13)

    # The heat multiplier is the smoothing step of ``pluripotential.regularize``.
    @staticmethod
    def _heat(f, eps):
        mult = _heat_multiplier(f.spec.n, f.spec.N, eps)
        return GridField(f.spec, _spectral(f.values, (mult,))[0])

    def test_heat_semigroup(self):
        spec = TorusSpec(1, 32)
        f = trig_poly(spec, kmax=4, seed=8)
        one_step = self._heat(f, 0.003)
        two_step = self._heat(self._heat(f, 0.001), 0.002)
        np.testing.assert_allclose(one_step.values, two_step.values, atol=1e-12)

    def test_heat_preserves_mean_and_contracts_sup(self):
        spec = TorusSpec(1, 64)
        f = trig_poly(spec, kmax=4, seed=9)
        s = self._heat(f, 0.01)
        assert abs(integrate(s) - integrate(f)) < 1e-13
        assert np.max(np.abs(s.values)) <= np.max(np.abs(f.values)) + 1e-13


class TestEigenvaluesAndNorms:
    def test_min_eigenvalue_matches_dense_solver(self, rng):
        spec = TorusSpec(2, 8)
        A = rng.normal(size=spec.shape + (2, 2)) + 1j * rng.normal(size=spec.shape + (2, 2))
        form = HermitianFormField(spec, A + np.conj(np.swapaxes(A, -1, -2)))
        lam = min_eigenvalue_field(form)
        np.testing.assert_allclose(
            lam.values, np.linalg.eigvalsh(form.values)[..., 0], atol=1e-12
        )

    def test_min_eigenvalue_n1_is_the_entry(self):
        spec = TorusSpec(1, 16)
        f = trig_poly(spec, kmax=2, seed=6)
        form = HermitianFormField(spec, f.values[..., None, None].astype(complex))
        np.testing.assert_allclose(min_eigenvalue_field(form).values, f.values, atol=0)

    def test_det_matches_dense_solver(self, rng):
        spec = TorusSpec(2, 8)
        A = rng.normal(size=spec.shape + (2, 2)) + 1j * rng.normal(size=spec.shape + (2, 2))
        form = HermitianFormField(spec, A + np.conj(np.swapaxes(A, -1, -2)))
        np.testing.assert_allclose(
            form.det(), np.real(np.linalg.det(form.values)), atol=1e-11
        )

    def test_integrate_constant(self):
        spec = TorusSpec(2, 8)
        assert integrate(GridField(spec, np.full(spec.shape, 2.5))) == pytest.approx(2.5)


class TestValidation:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            TorusSpec(3, 16)

    def test_rejects_odd_or_tiny_grid(self):
        with pytest.raises(ValueError):
            TorusSpec(1, 15)
        with pytest.raises(ValueError):
            TorusSpec(1, 4)

    def test_accepts_non_power_of_two(self):
        spec = TorusSpec(2, 24)
        assert spec.shape == (24, 24, 24, 24)

    def test_field_shape_mismatch(self):
        with pytest.raises(ValueError):
            GridField(TorusSpec(1, 16), np.zeros((16, 8)))

    def test_field_rejects_nan(self):
        spec = TorusSpec(1, 16)
        vals = spec.zeros()
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            GridField(spec, vals)

    def test_form_shape_mismatch(self):
        with pytest.raises(ValueError):
            HermitianFormField(TorusSpec(2, 8), np.zeros((8, 8, 8, 8, 2, 3)))
