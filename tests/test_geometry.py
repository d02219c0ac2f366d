"""Spectral calculus on the flat torus: closed-form and finite-difference oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusma.geometry import (
    GridField,
    HermitianFormField,
    TorusSpec,
    _MetricData,
    _half_wavenumbers,
    _heat_multiplier,
    _hessian_and_trace,
    _hessian_multipliers,
    _inverse_k_squared,
    _irfftn,
    _k_squared,
    _metric_density,
    _metric_form,
    _rfftn,
    _spectral,
    complex_hessian,
    half_laplacian,
    integrate,
    invert_half_laplacian,
    min_eigenvalue_field,
    scaled_identity,
    spectral_gradient,
)
from torusma.ma import AlphaModel

from conftest import dense, form_from_dense, trig_poly


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
        np.testing.assert_allclose(dense(H)[..., 0, 0], expected, atol=1e-11)

    def test_h11_of_cos_y1_n1(self):
        spec = TorusSpec(1, 32)
        f = coord_field(spec, lambda c: np.cos(2 * np.pi * c[1]) + 0 * c[0])
        H = complex_hessian(f)
        expected = -np.pi**2 * np.broadcast_to(
            np.cos(2 * np.pi * spec.axis_coordinate(1)), spec.shape
        )
        np.testing.assert_allclose(dense(H)[..., 0, 0], expected, atol=1e-11)

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
        D = dense(H)
        np.testing.assert_allclose(D[..., 0, 1], -1j * np.pi**2 * np.cos(theta), atol=1e-11)
        np.testing.assert_allclose(D[..., 1, 0], 1j * np.pi**2 * np.cos(theta), atol=1e-11)
        np.testing.assert_allclose(D[..., 0, 0], -np.pi**2 * np.cos(theta), atol=1e-11)
        np.testing.assert_allclose(D[..., 1, 1], -np.pi**2 * np.cos(theta), atol=1e-11)

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
                assert np.max(np.abs(dense(H)[..., j, k] - fd)) < bound

    def test_fd_error_shrinks_at_second_order(self):
        errs = []
        for N in (32, 64):
            spec = TorusSpec(1, N)
            f = trig_poly(spec, kmax=2, seed=7)
            H = complex_hessian(f)
            fd = self.fd_hessian_entry(f, 0, 0)
            errs.append(np.max(np.abs(dense(H)[..., 0, 0] - fd)))
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
        Hc = dense(complex_hessian(fc))[..., 0, 0]
        Hf = dense(complex_hessian(ff))[::2, ::2, 0, 0]
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
        lhs = dense(complex_hessian(GridField(spec, 2.5 * f.values - 0.5 * g.values)))
        rhs = 2.5 * dense(complex_hessian(f)) - 0.5 * dense(complex_hessian(g))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_hessian_output_is_hermitian(self):
        spec = TorusSpec(2, 12)
        H = dense(complex_hessian(trig_poly(spec, kmax=3, seed=2)))
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
        H = dense(complex_hessian(self.noise(n, N, seed)))
        for j in range(n):
            assert np.all(np.imag(H[..., j, j]) == 0.0)
        if n == 2:
            assert np.array_equal(H[..., 1, 0], np.conj(H[..., 0, 1]))

    @pytest.mark.parametrize("n,N,seed", CASES)
    def test_hessian_matches_complex_reference(self, n, N, seed):
        f = self.noise(n, N, seed)
        H = dense(complex_hessian(f))
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
        form = form_from_dense(spec, A + np.conj(np.swapaxes(A, -1, -2)))
        lam = min_eigenvalue_field(form)
        np.testing.assert_allclose(
            lam.values, np.linalg.eigvalsh(dense(form))[..., 0], atol=1e-12
        )

    def test_min_eigenvalue_n1_is_the_entry(self):
        spec = TorusSpec(1, 16)
        f = trig_poly(spec, kmax=2, seed=6)
        form = HermitianFormField(spec, (f.values,))
        np.testing.assert_allclose(min_eigenvalue_field(form).values, f.values, atol=0)

    def test_det_matches_dense_solver(self, rng):
        spec = TorusSpec(2, 8)
        A = rng.normal(size=spec.shape + (2, 2)) + 1j * rng.normal(size=spec.shape + (2, 2))
        form = form_from_dense(spec, A + np.conj(np.swapaxes(A, -1, -2)))
        np.testing.assert_allclose(
            form.det(), np.real(np.linalg.det(dense(form))), atol=1e-11
        )

    def test_integrate_constant(self):
        spec = TorusSpec(2, 8)
        assert integrate(GridField(spec, np.full(spec.shape, 2.5))) == pytest.approx(2.5)


def _positive_form(spec, seed):
    """A random Hermitian form, positive definite with eigenvalues at least 0.1."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=spec.shape + (spec.n, spec.n))
    B = B + 1j * rng.normal(size=B.shape)
    return form_from_dense(spec, B @ np.conj(np.swapaxes(B, -1, -2)) + 0.1 * np.eye(spec.n))


def _backgrounds(spec, seed):
    return [
        scaled_identity(spec, 1.3),
        AlphaModel(spec, t=0.7).coefficients(0.05),
        _positive_form(spec, seed),
    ]


# The formulas each in-place path replaced, written out with a fresh array
# for every operation.
def _formula_det(form):
    if form.spec.n == 1:
        return form.parts[0]
    g00, g11, re, im = form.parts
    return g00 * g11 - (re * re + im * im)


def _formula_min_eig(form):
    if form.spec.n == 1:
        return form.parts[0]
    a, d, re, im = form.parts
    return 0.5 * (a + d) - np.sqrt((0.5 * (a - d)) ** 2 + (re * re + im * im))


def _formula_contract(g, M):
    if g.spec.n == 1:
        num = 1.0 * M.parts[0]
    else:
        g00, g11, re, im = g.parts
        weights = (g11, g00, -2.0 * re, -2.0 * im)
        num = weights[0] * M.parts[0]
        for w, p in zip(weights[1:], M.parts[1:]):
            num += w * p
    return num / _formula_det(g)


def _same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


_SEEDED = [(n, seed) for n in (1, 2) for seed in range(4)]


class TestInPlaceForms:
    """Every path that writes into fresh buffers, or saves a temporary, keeps
    the bits of the formula it replaced (compared byte for byte, so a
    flipped sign of zero counts), on seeded fields at n = 1 and n = 2."""

    @staticmethod
    def _spec(n):
        return TorusSpec(n, 32 if n == 1 else 8)

    @pytest.mark.parametrize("n,seed", _SEEDED)
    def test_metric_form_and_density(self, n, seed):
        spec = self._spec(n)
        phi = GridField(spec, 0.01 * trig_poly(spec, kmax=3, seed=seed).values)
        for a in _backgrounds(spec, seed):
            want = a + complex_hessian(phi)
            got = _metric_form(a, phi)
            assert all(_same_bits(x, y) for x, y in zip(got.parts, want.parts))
            assert _same_bits(got.det(), _formula_det(want))
            assert _same_bits(_metric_density(a, phi), _formula_det(want))

    @pytest.mark.parametrize("n,seed", _SEEDED)
    def test_min_eigenvalue(self, n, seed):
        spec = self._spec(n)
        rng = np.random.default_rng(seed)
        A = rng.normal(size=spec.shape + (n, n)) + 1j * rng.normal(size=spec.shape + (n, n))
        forms = [form_from_dense(spec, A + np.conj(np.swapaxes(A, -1, -2)))]
        forms += _backgrounds(spec, seed)
        for form in forms:
            assert _same_bits(min_eigenvalue_field(form).values, _formula_min_eig(form))

    @pytest.mark.parametrize("n,seed", _SEEDED)
    def test_contractions(self, n, seed):
        spec = self._spec(n)
        u = trig_poly(spec, kmax=3, seed=seed + 10)
        for g in _backgrounds(spec, seed):
            data = _MetricData.from_form(g)
            M = complex_hessian(u)
            before = [p.copy() for p in M.parts]
            want = _formula_contract(g, M)
            assert _same_bits(data.contract(M), want)
            assert all(_same_bits(p, q) for p, q in zip(M.parts, before))
            assert _same_bits(data.contract_hessian(u.values), want)

    @pytest.mark.parametrize("n", [1, 2])
    def test_background_parts_are_read_only_views(self, n):
        spec = TorusSpec(n, 16)
        natural = 8 * spec.N**n  # bytes of one value per x_j axis point
        alpha = AlphaModel(spec, t=0.5)
        forms = [scaled_identity(spec, 2.0), alpha.coefficients(0.1)]
        arrays = [p for form in forms for p in form.parts] + [alpha.rho().values]
        for array in arrays:
            root = array
            while root.base is not None:
                root = root.base
            assert array.shape == spec.shape
            assert root.nbytes <= natural
            with pytest.raises(ValueError):
                array[...] = 0.0
        if n == 2:
            assert all(form.parts[2] is form.parts[3] for form in forms)

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_a_mean_reads_a_broadcast_as_its_copy(self, N):
        # numpy's pairwise sum visits a broadcast view in another order than
        # the contiguous copy, which can move the last bit of a mean.
        spec = TorusSpec(2, N)
        rng = np.random.default_rng(N)
        for _ in range(10):
            view = np.broadcast_to(rng.normal(size=(N, 1, N, 1)), spec.shape)
            copy = np.ascontiguousarray(view)
            assert integrate(GridField(spec, view)) == float(copy.mean())


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

    @pytest.mark.parametrize("n,count", [(1, 4), (2, 1), (2, 3)])
    def test_form_rejects_a_wrong_part_count(self, n, count):
        spec = TorusSpec(n, 8)
        with pytest.raises(ValueError, match=f"has {n * n} parts, got {count}"):
            HermitianFormField(spec, [spec.zeros() for _ in range(count)])

    def test_form_rejects_a_part_off_the_grid(self):
        spec = TorusSpec(2, 8)
        parts = [spec.zeros(), spec.zeros(), spec.zeros(), np.zeros((8, 8, 8, 4))]
        with pytest.raises(ValueError, match="do not match grid"):
            HermitianFormField(spec, parts)

    def test_form_stores_its_parts_as_a_tuple(self):
        spec = TorusSpec(1, 8)
        part = spec.zeros()
        form = HermitianFormField(spec, [part])
        assert type(form.parts) is tuple
        assert len(form.parts) == 1 and form.parts[0] is part


class TestCachedMultipliers:
    @pytest.mark.parametrize("n", [1, 2])
    def test_cached_arrays_refuse_in_place_writes(self, n):
        # Every caller, and every thread of a rung pool, shares one array.
        N = 8
        cached = [
            *_half_wavenumbers(n, N, False),
            *_half_wavenumbers(n, N, True),
            _k_squared(n, N),
            _inverse_k_squared(n, N),
            *_hessian_multipliers(n, N),
        ]
        for array in cached:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


# Grids to compare on: every one the bundled scenarios transform on (n = 1 at
# N = 32, 64, 256 and 512; n = 2 at N = 16 and its nested 8), the n = 2
# benchmark's 24 and its nested 12, and besides these N = 10 and 128 at
# n = 1 and every even N from 6 to 32 at n = 2.
_GRIDS = [(1, N) for N in (10, 32, 64, 128, 256, 512)] + [(2, N) for N in range(6, 33, 2)]


def _bits(a):
    """An array's bits, so that ``-0.0`` and ``0.0`` differ."""
    a = np.ascontiguousarray(a)
    return a.dtype, a.shape, a.view(np.int64).tobytes()


def _scipy_mismatches(grids):
    """Every grid where the direct pocketfft calls, or the frequencies, differ
    in any bit from ``scipy.fft``'s ``rfftn``/``irfftn``/``fftfreq``."""
    import scipy.fft

    bad = []
    for n, N in grids:
        shape = (N,) * (2 * n)
        values = np.random.default_rng(1000 * n + N).normal(size=shape)
        spectrum = scipy.fft.rfftn(values)
        if _bits(_rfftn(values)) != _bits(spectrum):
            bad.append(f"rfftn n={n} N={N}")
        if _bits(_irfftn(spectrum, shape)) != _bits(scipy.fft.irfftn(spectrum, s=shape)):
            bad.append(f"irfftn n={n} N={N}")
        # The last multiplier reuses the spectrum's buffer in place.
        for mults in (_hessian_multipliers(n, N) + (_k_squared(n, N),), (_k_squared(n, N),)):
            got = _spectral(values, mults)
            want = [scipy.fft.irfftn(m * spectrum, s=shape) for m in mults]
            if [_bits(g) for g in got] != [_bits(w) for w in want]:
                bad.append(f"_spectral n={n} N={N} with {len(mults)} multipliers")
        for derivative in (False, True):
            freqs = [scipy.fft.fftfreq(N, d=1.0 / N) for _ in range(2 * n - 1)]
            freqs.append(scipy.fft.rfftfreq(N, d=1.0 / N))
            for k, f in zip(_half_wavenumbers(n, N, derivative), freqs, strict=True):
                if derivative:
                    f[N // 2] = 0.0
                if _bits(k.ravel()) != _bits(f):
                    bad.append(f"wavenumbers n={n} N={N} derivative={derivative}")
    return bad


class TestScipyBits:
    """The transforms call scipy's compiled pocketfft with the arguments of
    ``scipy.fft.rfftn``/``irfftn`` (``norm="backward"``, one worker), so every
    bit is scipy's; this is what guards a scipy other than 1.17.1."""

    @pytest.mark.parametrize("n,N", _GRIDS)
    def test_transforms_and_frequencies_equal_scipy_fft(self, n, N):
        assert _scipy_mismatches([(n, N)]) == []

    @pytest.mark.parametrize("first", ["scipy.fft", "torusma.cli"])
    def test_either_import_order(self, first):
        # In a fresh interpreter, so that the order of the first imports is
        # the one named here, whatever pytest has loaded.
        second = "torusma.cli" if first == "scipy.fft" else "scipy.fft"
        code = (
            f"import {first}, {second}, test_geometry as t\n"
            "print(t._scipy_mismatches(t._GRIDS))\n"
        )
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_frequencies_are_exact_integers(self):
        # scipy's fftfreq(N, 1/N) scales by 1/(N * (1/N)), which rounds away
        # from 1 at some even N (98, 196, 206, ...); these stay integers.
        for N in range(6, 1026, 2):
            *ks, last = (k.ravel() for k in _half_wavenumbers(2, N, False))
            assert np.array_equal(last, np.arange(N // 2 + 1))
            for k in ks:
                assert np.array_equal(k, np.r_[0 : N // 2, -N // 2 : 0])
