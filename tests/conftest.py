"""Shared test helpers: reproducible band-limited random fields, and a dense
NumPy reference for Hermitian forms stored by their parts."""

import numpy as np
import pytest

from torusma.geometry import GridField, HermitianFormField, TorusSpec


def trig_poly(spec: TorusSpec, kmax: int, seed: int, num_modes: int = 6) -> GridField:
    """Random real trigonometric polynomial with frequencies bounded by ``kmax``.

    Built directly as a sum of cosine modes, so the field is *exactly*
    band-limited and can be resampled at any resolution without error.
    """
    rng = np.random.default_rng(seed)
    coords = spec.coordinates()
    values = np.zeros(spec.shape)
    for _ in range(num_modes):
        k = rng.integers(-kmax, kmax + 1, size=spec.num_axes)
        if not np.any(k):
            k[0] = 1
        amp = rng.normal()
        phase = rng.uniform(0, 2 * np.pi)
        arg = sum(2 * np.pi * kj * cj for kj, cj in zip(k, coords))
        values = values + amp * np.cos(arg + phase)
    return GridField(spec, values)


def dense(form: HermitianFormField) -> np.ndarray:
    """The ``grid + (n, n)`` complex array of a form, assembled from its parts
    ``(g00,)`` or ``(g00, g11, Re g01, Im g01)``."""
    n = form.spec.n
    out = np.zeros(form.spec.shape + (n, n), dtype=complex)
    for j in range(n):
        out[..., j, j] = form.parts[j]
    if n == 2:
        re, im = form.parts[2:]
        out[..., 0, 1] = re + 1j * im
        out[..., 1, 0] = re - 1j * im
    return out


def form_from_dense(spec: TorusSpec, values: np.ndarray) -> HermitianFormField:
    """The form with the diagonal and upper entry of a Hermitian array."""
    parts = [values[..., j, j].real.copy() for j in range(spec.n)]
    if spec.n == 2:
        parts += [values[..., 0, 1].real.copy(), values[..., 0, 1].imag.copy()]
    return HermitianFormField(spec, parts)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
