"""Flat-torus grids and spectral calculus.

The computational domain is the flat complex torus ``C^n / Z^{2n}`` with
coordinates ``z_j = x_j + i y_j`` and fundamental domain ``[0,1)^{2n}``.
All fields live on a uniform vertex grid with ``N`` points per real axis,
axis order ``(x_1, y_1, ..., x_n, y_n)``, and all derivatives are taken
spectrally (trigonometric differentiation via the FFT), so band-limited
fields are differentiated exactly up to round-off.

Conventions
-----------
* ``d/dz_j = (d/dx_j - i d/dy_j) / 2`` and ``d/dzbar_j`` its conjugate.
* The complex Hessian is ``H(f)_{jk} = d^2 f / dz_j dzbar_k``; for a single
  mode ``f = cos(2 pi x_1)`` this gives ``H_{11} = -pi^2 cos(2 pi x_1)``.
* The half-Laplacian is ``trace H(f) = (1/4) * (ordinary Laplacian)``.
* The background form ``omega`` is the identity coefficient matrix and the
  volume normalisation is Lebesgue measure, so ``Vol = 1`` and the density
  of a Hermitian coefficient field is simply its pointwise determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

__all__ = [
    "TorusSpec",
    "GridField",
    "HermitianFormField",
    "scaled_identity",
    "complex_hessian",
    "half_laplacian",
    "spectral_gradient",
    "invert_half_laplacian",
    "integrate",
    "min_eigenvalue_field",
]


@dataclass(frozen=True)
class TorusSpec:
    """Discretisation of the flat torus.

    Parameters
    ----------
    n : int
        Complex dimension, 1 or 2 (real dimension ``2n``).
    N : int
        Grid points per real axis.  Must be even and at least 8; powers of
        two give the fastest transforms but any even size is accepted.
    """

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"complex dimension must be 1 or 2, got {self.n}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.N}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * (2 * self.n)

    @property
    def h(self) -> float:
        """Grid spacing 1/N."""
        return 1.0 / self.N

    @property
    def volume(self) -> float:
        """Lebesgue volume of the fundamental domain."""
        return 1.0

    @property
    def num_axes(self) -> int:
        return 2 * self.n

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Grid coordinate along ``axis`` broadcast to the full grid shape."""
        c = np.arange(self.N) / self.N
        shape = [1] * self.num_axes
        shape[axis] = self.N
        return c.reshape(shape)

    def coordinates(self) -> list[np.ndarray]:
        """All ``2n`` broadcastable coordinate arrays."""
        return [self.axis_coordinate(a) for a in range(self.num_axes)]

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)


@lru_cache(maxsize=32)
def _half_wavenumbers(n: int, N: int, derivative: bool) -> tuple[np.ndarray, ...]:
    """Integer frequencies on the ``rfftn`` half spectrum, one per real axis.

    Every axis runs over ``-N/2 .. N/2-1`` except the last, which keeps only
    ``0 .. N/2``.  With ``derivative`` the Nyquist frequency is set to zero:
    an odd multiplier is not Hermitian there, so only with that entry zeroed
    is every product of first-derivative factors exact under ``irfftn``.
    """
    ks = []
    for axis in range(2 * n):
        if axis == 2 * n - 1:
            k = scipy.fft.rfftfreq(N, d=1.0 / N)
        else:
            k = scipy.fft.fftfreq(N, d=1.0 / N)
        if derivative:
            k[N // 2] = 0.0
        shape = [1] * (2 * n)
        shape[axis] = k.size
        ks.append(k.reshape(shape))
    return tuple(ks)


@lru_cache(maxsize=32)
def _k_squared(n: int, N: int) -> np.ndarray:
    return sum(k**2 for k in _half_wavenumbers(n, N, False))


def _heat_multiplier(n: int, N: int, eps: float) -> np.ndarray:
    return np.exp(-eps * 4.0 * np.pi**2 * _k_squared(n, N))


@lru_cache(maxsize=32)
def _inverse_k_squared(n: int, N: int) -> np.ndarray:
    """Multiplier of the mean-zero inverse half-Laplacian (zero on the mean mode)."""
    k2 = _k_squared(n, N)
    mult = np.zeros_like(k2)
    nz = k2 > 0
    mult[nz] = -1.0 / (np.pi**2 * k2[nz])
    return mult


@lru_cache(maxsize=32)
def _hessian_multipliers(n: int, N: int) -> tuple[np.ndarray, ...]:
    """Real Fourier multipliers of the independent complex-Hessian parts.

    With ``H_jk = (1/4) [ dx_j dx_k + dy_j dy_k + i (dx_j dy_k - dy_j dx_k) ]``
    the parts are ``(H_00,)`` for ``n = 1`` and ``(H_00, H_11, Re H_01,
    Im H_01)`` for ``n = 2``.  Diagonal entries are second derivatives and
    keep the Nyquist frequency; the off-diagonal parts are products of
    first-derivative factors, Nyquist zeroed.
    """
    ks = _half_wavenumbers(n, N, False)
    mults = [-np.pi**2 * (ks[2 * j] ** 2 + ks[2 * j + 1] ** 2) for j in range(n)]
    if n == 2:
        kx0, ky0, kx1, ky1 = _half_wavenumbers(n, N, True)
        mults.append(-np.pi**2 * (kx0 * kx1 + ky0 * ky1))
        mults.append(-np.pi**2 * (kx0 * ky1 - ky0 * kx1))
    return tuple(mults)


@dataclass
class GridField:
    """A real scalar field sampled on the torus grid."""

    spec: TorusSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.spec.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.spec.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def copy(self) -> "GridField":
        return GridField(self.spec, self.values.copy())


class HermitianFormField:
    """A pointwise Hermitian ``n x n`` coefficient field, stored by its
    independent real components.

    ``parts`` follows the order of ``_hessian_parts``: ``(g00,)`` for
    ``n = 1`` and ``(g00, g11, Re g01, Im g01)`` for ``n = 2``, each a real
    float64 field of grid shape (``g10`` is the conjugate of ``g01``).  A
    form costs one real field for ``n = 1`` and four for ``n = 2``.  Only
    this module reads ``parts``.

    ``HermitianFormField(spec, values)`` takes a dense array of shape
    ``grid + (n, n)``: it is the one entry point that checks shape and
    finiteness and Hermitian-symmetrises, so asymmetry from outside never
    propagates.  Forms built inside the library (Hessians, sums, the
    identity) are Hermitian by construction and enter through
    ``_from_parts`` unchecked.  ``values`` and ``entry`` assemble dense
    complex entries on demand.
    """

    __slots__ = ("spec", "parts")

    def __init__(self, spec: TorusSpec, values: np.ndarray):
        self.spec = spec
        self.__post_init__(values)

    def __post_init__(self, values: np.ndarray):
        v = np.asarray(values)
        n = self.spec.n
        if v.shape != self.spec.shape + (n, n):
            raise ValueError(
                f"form shape {v.shape} does not match grid {self.spec.shape} + ({n},{n})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("form contains non-finite values")
        v = np.asarray(v, dtype=complex)
        parts = [v[..., j, j].real.copy() for j in range(n)]
        if n == 2:
            g01 = 0.5 * (v[..., 0, 1] + np.conj(v[..., 1, 0]))
            parts += [g01.real.copy(), g01.imag.copy()]
        self.parts = tuple(parts)

    @classmethod
    def _from_parts(cls, spec: TorusSpec, parts) -> "HermitianFormField":
        """A form from real components already in ``parts`` order, unchecked."""
        form = object.__new__(cls)
        form.spec = spec
        form.parts = tuple(parts)
        return form

    @classmethod
    def _from_diagonal(cls, spec: TorusSpec, diagonal) -> "HermitianFormField":
        """The form with real diagonal fields ``diagonal`` and zero ``g01``."""
        parts = list(diagonal)
        if spec.n == 2:
            parts += [np.zeros(spec.shape), np.zeros(spec.shape)]
        return cls._from_parts(spec, parts)

    def __add__(self, other: "HermitianFormField") -> "HermitianFormField":
        if other.spec != self.spec:
            raise ValueError("forms live on different grids")
        return HermitianFormField._from_parts(
            self.spec, (x + y for x, y in zip(self.parts, other.parts))
        )

    @property
    def values(self) -> np.ndarray:
        """The dense ``grid + (n, n)`` complex array, assembled on demand."""
        n = self.spec.n
        out = np.empty(self.spec.shape + (n, n), dtype=complex)
        for j in range(n):
            for k in range(n):
                out[..., j, k] = self.entry(j, k)
        return out

    def entry(self, j: int, k: int) -> np.ndarray:
        if j == k:
            return self.parts[j].astype(complex)
        re, im = self.parts[2:]
        return re + 1j * (im if j < k else -im)

    def trace(self) -> np.ndarray:
        if self.spec.n == 1:
            return self.parts[0]
        return self.parts[0] + self.parts[1]

    def det(self) -> np.ndarray:
        if self.spec.n == 1:
            return self.parts[0]
        g00, g11, re, im = self.parts
        return g00 * g11 - (re * re + im * im)


def _frobenius(form: HermitianFormField) -> np.ndarray:
    """Pointwise Frobenius norm, summed in the dense row-major entry order."""
    if form.spec.n == 1:
        return np.sqrt(form.parts[0] ** 2)
    g00, g11, re, im = form.parts
    b2 = re * re + im * im
    return np.sqrt(g00**2 + b2 + b2 + g11**2)


@dataclass
class _MetricData:
    """Determinant and adjugate of a form ``g``, for pointwise contractions.

    ``weights`` pairs with the parts of a form ``M`` (or the raw output of
    ``_hessian_parts``) so that ``trace(g^{-1} M) = sum(weights * parts) /
    det``: ``(1,)`` for ``n = 1`` and ``(g11, g00, -2 Re g01, -2 Im g01)``
    for ``n = 2``.
    """

    det: np.ndarray
    weights: tuple
    n: int

    @classmethod
    def from_form(cls, g: HermitianFormField) -> "_MetricData":
        if g.spec.n == 1:
            weights = (1.0,)
        else:
            g00, g11, re, im = g.parts
            weights = (g11, g00, -2.0 * re, -2.0 * im)
        return cls(det=g.det(), weights=weights, n=g.spec.n)

    def contract(self, parts) -> np.ndarray:
        """trace(g^{-1} M) pointwise from the parts of a Hermitian ``M``."""
        num = self.weights[0] * parts[0]
        for w, p in zip(self.weights[1:], parts[1:]):
            num += w * p
        return num / self.det

    def inverse_trace(self) -> np.ndarray:
        """trace(g^{-1}) pointwise."""
        return sum(self.weights[: self.n]) / self.det


def scaled_identity(spec: TorusSpec, scale: float = 1.0) -> HermitianFormField:
    """The constant coefficient field ``scale * I``."""
    return HermitianFormField._from_diagonal(
        spec, [np.full(spec.shape, float(scale)) for _ in range(spec.n)]
    )


def _rfftn(values: np.ndarray) -> np.ndarray:
    return scipy.fft.rfftn(values)


def _irfftn(values_hat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return scipy.fft.irfftn(values_hat, s=shape)


def _spectral(values: np.ndarray, mults) -> list[np.ndarray]:
    """``irfftn(m * rfftn(values))`` for each multiplier ``m``: one forward transform."""
    fhat = _rfftn(values)
    out = [_irfftn(m * fhat, values.shape) for m in mults[:-1]]
    fhat *= mults[-1]  # the last product reuses the spectrum's buffer
    return out + [_irfftn(fhat, values.shape)]


def _restrict(values: np.ndarray) -> np.ndarray:
    """Injection onto the ``N/2`` grid: every second sample along every axis."""
    return np.ascontiguousarray(values[(slice(None, None, 2),) * values.ndim])


def _restrict_form(form: HermitianFormField) -> HermitianFormField:
    """The form sampled by injection on the ``N/2`` grid."""
    coarse = TorusSpec(form.spec.n, form.spec.N // 2)
    return HermitianFormField._from_parts(coarse, (_restrict(p) for p in form.parts))


def _prolong(values: np.ndarray, N: int) -> np.ndarray:
    """Trigonometric interpolation of a coarse grid array onto the ``N``-point grid.

    The coarse spectrum is zero-padded to the fine one.  Its Nyquist planes
    are dropped, since on the ``M``-point grid the frequencies ``+M/2`` and
    ``-M/2`` are one mode that no single fine frequency stands for.  So
    ``_restrict(_prolong(u, N))`` gives back ``u`` less its Nyquist part, and
    a field band-limited below the coarse Nyquist frequency is reproduced up
    to round-off.
    """
    M, d = values.shape[0], values.ndim
    half = M // 2
    full = np.r_[0:half, half + 1 : M]
    padded = np.r_[0:half, N - half + 1 : N]
    fine = np.zeros((N,) * (d - 1) + (N // 2 + 1,), dtype=complex)
    coarse_hat = _rfftn(values)
    fine[np.ix_(*[padded] * (d - 1), np.arange(half))] = coarse_hat[
        np.ix_(*[full] * (d - 1), np.arange(half))
    ]
    fine *= (N / M) ** d
    return _irfftn(fine, (N,) * d)


def _hessian_parts(values: np.ndarray) -> list[np.ndarray]:
    """Independent real parts of the complex Hessian of a raw grid array.

    ``[H_00]`` for ``n = 1`` and ``[H_00, H_11, Re H_01, Im H_01]`` for
    ``n = 2``: one forward transform shared by one real inverse per part.
    """
    return _spectral(values, _hessian_multipliers(values.ndim // 2, values.shape[0]))


def _hessian_and_trace(f: GridField) -> tuple[HermitianFormField, np.ndarray]:
    """``complex_hessian(f)`` and ``half_laplacian(f).values`` from one forward
    transform; at ``n = 1`` the trace multiplier is the ``H_00`` one, bit for bit."""
    spec = f.spec
    mults = _hessian_multipliers(spec.n, spec.N)
    trace = () if spec.n == 1 else (-np.pi**2 * _k_squared(spec.n, spec.N),)
    out = _spectral(f.values, mults + trace)
    return HermitianFormField._from_parts(spec, out[: len(mults)]), out[-1]


def _solve_half_laplacian(values: np.ndarray) -> np.ndarray:
    """Mean-zero ``u`` with ``trace H(u)`` equal to ``values`` minus its mean."""
    return _spectral(values, (_inverse_k_squared(values.ndim // 2, values.shape[0]),))[0]


def complex_hessian(f: GridField) -> HermitianFormField:
    """Complex Hessian ``H(f)_{jk} = d^2 f / dz_j dzbar_k`` by spectral differentiation.

    One forward transform of ``f`` is shared by one real inverse transform
    per part, so the form is Hermitian by construction.
    """
    return HermitianFormField._from_parts(f.spec, _hessian_parts(f.values))


def half_laplacian(f: GridField) -> GridField:
    """Trace of the complex Hessian, computed with a single multiplier.

    Equals one quarter of the ordinary flat Laplacian; the mean mode is
    annihilated exactly, so ``integrate(half_laplacian(f)) = 0``.
    """
    mult = -np.pi**2 * _k_squared(f.spec.n, f.spec.N)
    return GridField(f.spec, _spectral(f.values, (mult,))[0])


def spectral_gradient(f: GridField) -> np.ndarray:
    """All ``2n`` first real derivatives, stacked along a leading axis.

    The Nyquist mode has no real derivative on the grid and contributes zero.
    """
    ks = _half_wavenumbers(f.spec.n, f.spec.N, True)
    return np.stack(_spectral(f.values, [2j * np.pi * k for k in ks]))


def invert_half_laplacian(f: GridField) -> GridField:
    """Solve ``trace H(u) = f`` for the mean-zero ``u``.

    The mean of ``f`` is projected out (the flat torus admits no solution
    otherwise), and the returned field has exactly zero grid mean.
    """
    return GridField(f.spec, _solve_half_laplacian(f.values))


def integrate(f: GridField) -> float:
    """Trapezoidal (= midpoint = spectral) quadrature on the periodic grid."""
    return float(f.values.mean() * f.spec.volume)


def min_eigenvalue_field(form: HermitianFormField) -> GridField:
    """Pointwise smallest eigenvalue of a Hermitian coefficient field.

    Closed-form for ``n <= 2``: the eigenvalues of a Hermitian 2x2 matrix are
    ``m -/+ sqrt(((a-d)/2)^2 + |b|^2)`` with ``m = (a+d)/2``.
    """
    spec = form.spec
    if spec.n == 1:
        return GridField(spec, form.parts[0])
    a, d, re, im = form.parts
    mid = 0.5 * (a + d)
    rad = np.sqrt((0.5 * (a - d)) ** 2 + (re * re + im * im))
    return GridField(spec, mid - rad)
