"""Property tests: Hermitian forms stored by their independent components.

Every component-level operation is compared with a dense NumPy reference on
random Hermitian fields at n = 1 and n = 2: the determinant, the smallest
eigenvalue, the trace, the metric contraction ``trace(g^{-1} M)``, and the
round trip of a dense array through the public constructor.  Every form,
however it is built, stores the real float64 parts that ``_hessian_parts``
produces.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from torusma.geometry import (  # noqa: E402
    GridField,
    HermitianFormField,
    TorusSpec,
    _MetricData,
    _hessian_parts,
    complex_hessian,
    min_eigenvalue_field,
    scaled_identity,
)
from torusma.ma import AlphaModel  # noqa: E402

SPECS = {1: TorusSpec(1, 8), 2: TorusSpec(2, 8)}

dims = st.sampled_from([1, 2])
seeds = st.integers(min_value=0, max_value=2**32 - 1)
scales = st.floats(min_value=1e-3, max_value=1e3)


def _dense_hermitian(spec, seed, scale):
    """A random Hermitian ``grid + (n, n)`` array with entries of size ``scale``."""
    rng = np.random.default_rng(seed)
    shape = spec.shape + (spec.n, spec.n)
    A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return scale * (A + np.conj(np.swapaxes(A, -1, -2)))


def _dense_positive(spec, seed, scale):
    """A random positive-definite Hermitian array, eigenvalues at least ``scale / 10``."""
    rng = np.random.default_rng(seed)
    shape = spec.shape + (spec.n, spec.n)
    B = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    eye = np.eye(spec.n)
    return scale * (B @ np.conj(np.swapaxes(B, -1, -2)) + 0.1 * eye)


@settings(max_examples=60, deadline=None)
@given(n=dims, seed=seeds, scale=scales)
def test_dense_round_trip(n, seed, scale):
    spec = SPECS[n]
    v = _dense_hermitian(spec, seed, scale)
    form = HermitianFormField(spec, v)
    assert np.array_equal(form.values, v)
    again = HermitianFormField(spec, form.values)
    for a, b in zip(again.parts, form.parts):
        assert np.array_equal(a, b)
    for j in range(n):
        for k in range(n):
            assert np.array_equal(form.entry(j, k), v[..., j, k])


@settings(max_examples=60, deadline=None)
@given(n=dims, seed=seeds, scale=scales)
def test_constructor_symmetrises_the_dense_input(n, seed, scale):
    spec = SPECS[n]
    rng = np.random.default_rng(seed)
    shape = spec.shape + (n, n)
    v = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    want = 0.5 * (v + np.conj(np.swapaxes(v, -1, -2)))
    assert np.array_equal(HermitianFormField(spec, v).values, want)


@settings(max_examples=60, deadline=None)
@given(n=dims, seed=seeds, scale=scales)
def test_det_matches_dense_determinant(n, seed, scale):
    spec = SPECS[n]
    v = _dense_hermitian(spec, seed, scale)
    want = np.real(np.linalg.det(v))
    got = HermitianFormField(spec, v).det()
    assert got.shape == spec.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale**n)


@settings(max_examples=60, deadline=None)
@given(n=dims, seed=seeds, scale=scales)
def test_min_eigenvalue_matches_eigvalsh(n, seed, scale):
    spec = SPECS[n]
    v = _dense_hermitian(spec, seed, scale)
    got = min_eigenvalue_field(HermitianFormField(spec, v)).values
    np.testing.assert_allclose(
        got, np.linalg.eigvalsh(v)[..., 0], rtol=0, atol=1e-12 * scale
    )


@settings(max_examples=60, deadline=None)
@given(n=dims, seed=seeds, scale=scales)
def test_trace_matches_dense_trace(n, seed, scale):
    spec = SPECS[n]
    v = _dense_hermitian(spec, seed, scale)
    want = np.real(np.trace(v, axis1=-2, axis2=-1))
    np.testing.assert_allclose(
        HermitianFormField(spec, v).trace(), want, rtol=0, atol=1e-13 * scale
    )


@settings(max_examples=60, deadline=None)
@given(n=dims, seed=seeds, scale=scales, field_seed=seeds)
def test_contraction_matches_dense_inverse(n, seed, scale, field_seed):
    spec = SPECS[n]
    g = _dense_positive(spec, seed, scale)
    u = GridField(spec, np.random.default_rng(field_seed).normal(size=spec.shape))
    M = complex_hessian(u).values
    want = np.real(np.trace(np.linalg.inv(g) @ M, axis1=-2, axis2=-1))
    data = _MetricData.from_form(HermitianFormField(spec, g))
    tol = 1e-9 * np.max(np.abs(M)) / scale
    np.testing.assert_allclose(
        data.contract(complex_hessian(u).parts), want, rtol=0, atol=tol
    )
    np.testing.assert_allclose(
        data.inverse_trace(),
        np.real(np.trace(np.linalg.inv(g), axis1=-2, axis2=-1)),
        rtol=1e-9,
    )


@settings(max_examples=30, deadline=None)
@given(n=dims, seed=seeds, scale=scales)
def test_sum_of_forms_is_the_dense_sum(n, seed, scale):
    spec = SPECS[n]
    a = _dense_hermitian(spec, seed, scale)
    b = _dense_hermitian(spec, seed + 1, 1.0)
    got = HermitianFormField(spec, a) + HermitianFormField(spec, b)
    assert np.array_equal(got.values, a + b)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=20, deadline=None)
@given(seed=seeds, scale=scales)
def test_every_form_stores_real_grid_fields(n, seed, scale):
    spec = SPECS[n]
    u = GridField(spec, np.random.default_rng(seed).normal(size=spec.shape))
    H = complex_hessian(u)
    forms = [
        H,
        scaled_identity(spec, scale),
        AlphaModel(spec, t=0.5).coefficients(scale),
        H + scaled_identity(spec, scale),
        HermitianFormField(spec, _dense_hermitian(spec, seed, scale)),
    ]
    for form in forms:
        assert len(form.parts) == (1 if n == 1 else 4)
        for part in form.parts:
            assert part.dtype == np.float64
            assert part.shape == spec.shape
    # The Hessian is the FFT output itself, bit for bit.
    want = _hessian_parts(u.values)
    assert [p.tobytes() for p in H.parts] == [p.tobytes() for p in want]
