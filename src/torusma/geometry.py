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

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def _read_only(item):
    """``item``, an array or a Hermitian form, with its values marked
    read-only: for what every caller, or every thread of a rung pool, shares."""
    for array in item.parts if isinstance(item, HermitianFormField) else (item,):
        array.flags.writeable = False
    return item


@lru_cache(maxsize=32)
def _half_wavenumbers(n: int, N: int, derivative: bool) -> tuple[np.ndarray, ...]:
    """Integer frequencies on the ``rfftn`` half spectrum, one per real axis.

    Every axis runs over ``0 .. N/2-1, -N/2 .. -1`` (``fftfreq`` order)
    except the last, which keeps only ``0 .. N/2``.  With ``derivative`` the
    Nyquist frequency is set to zero: an odd multiplier is not Hermitian
    there, so only with that entry zeroed is every product of
    first-derivative factors exact under ``irfftn``.
    """
    ks = []
    for axis in range(2 * n):
        if axis == 2 * n - 1:
            k = np.arange(N // 2 + 1, dtype=float)
        else:
            k = np.concatenate((np.arange(N // 2), np.arange(-(N // 2), 0))).astype(float)
        if derivative:
            k[N // 2] = 0.0
        shape = [1] * (2 * n)
        shape[axis] = k.size
        ks.append(_read_only(k.reshape(shape)))
    return tuple(ks)


@lru_cache(maxsize=32)
def _k_squared(n: int, N: int) -> np.ndarray:
    return _read_only(sum(k**2 for k in _half_wavenumbers(n, N, False)))


def _heat_multiplier(n: int, N: int, eps: float) -> np.ndarray:
    return np.exp(-eps * 4.0 * np.pi**2 * _k_squared(n, N))


@lru_cache(maxsize=32)
def _inverse_k_squared(n: int, N: int) -> np.ndarray:
    """Multiplier of the mean-zero inverse half-Laplacian (zero on the mean mode)."""
    k2 = _k_squared(n, N)
    mult = np.zeros_like(k2)
    nz = k2 > 0
    mult[nz] = -1.0 / (np.pi**2 * k2[nz])
    return _read_only(mult)


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
    return tuple(_read_only(m) for m in mults)


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


@dataclass(frozen=True, slots=True, eq=False)
class HermitianFormField:
    """A pointwise Hermitian ``n x n`` coefficient field, stored by its
    independent real components.

    ``parts`` follows the order of ``_hessian_parts``: ``(g00,)`` for
    ``n = 1`` and ``(g00, g11, Re g01, Im g01)`` for ``n = 2``, each a real
    array of grid shape (``g10`` is the conjugate of ``g01``), so a form is
    Hermitian by construction.  A computed form costs one real field for
    ``n = 1`` and four for ``n = 2``; a background form (``scaled_identity``,
    ``ma.AlphaModel.coefficients``) holds read-only broadcast views of its
    values at their natural shape, and one shared zero for ``g01``, so it
    costs no grid field.  So a part may be a read-only view: only the freshly
    computed Hessian parts of ``_metric_form`` and
    ``_MetricData.contract_hessian`` are written in place, and every mean
    runs over a contiguous array (``_mean``).  The constructor checks the
    part count and shapes and reads no values.  Only this module reads
    ``parts``.
    """

    spec: TorusSpec
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        n, count = self.spec.n, len(self.parts)
        if count != n * n:  # the real parameters of a Hermitian n x n matrix
            raise ValueError(f"a form at n = {n} has {n * n} parts, got {count}")
        shapes = {np.shape(p) for p in self.parts}
        if shapes != {self.spec.shape}:
            raise ValueError(f"form part shapes {shapes} do not match grid {self.spec.shape}")

    @classmethod
    def _from_diagonal(cls, spec: TorusSpec, diagonal) -> "HermitianFormField":
        """The form with real diagonal ``diagonal`` and zero ``g01``: each
        entry, an array broadcastable to the grid, becomes a read-only
        broadcast view, and ``Re g01`` and ``Im g01`` share one zero."""
        parts = [np.broadcast_to(d, spec.shape) for d in diagonal]
        if spec.n == 2:
            zero = np.broadcast_to(0.0, spec.shape)
            parts += [zero, zero]
        return cls(spec, parts)

    def __add__(self, other: "HermitianFormField") -> "HermitianFormField":
        if other.spec != self.spec:
            raise ValueError("forms live on different grids")
        parts = [x + y for x, y in zip(self.parts, other.parts)]
        return HermitianFormField(self.spec, parts)

    def trace(self) -> np.ndarray:
        if self.spec.n == 1:
            return self.parts[0]
        return self.parts[0] + self.parts[1]

    def det(self) -> np.ndarray:
        if self.spec.n == 1:
            return self.parts[0]
        return _det2(*self.parts)


def _det2(g00, g11, re, im, b2=None, out=None) -> np.ndarray:
    """``g00 g11 - (re^2 + im^2)`` in that operation order, with ``re^2 +
    im^2`` formed in ``b2`` and the result in ``out``: two fresh fields when
    they are ``None``, or buffers that may be ``re`` and ``im`` themselves."""
    b2 = np.multiply(re, re, out=b2)
    out = np.multiply(im, im, out=out)
    b2 += out
    np.multiply(g00, g11, out=out)
    out -= b2
    return out


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

    ``weights`` pairs with the parts of a form ``M`` so that ``trace(g^{-1}
    M) = sum(weights * parts) / det``: ``(1,)`` for ``n = 1`` and ``(g11,
    g00, Re g01, Im g01)`` for ``n = 2``, where each off-diagonal product is
    then scaled by ``-2``.  Scaling by a power of two is exact, so this gives
    the bits of the weights ``-2 Re g01`` and ``-2 Im g01`` without a copy
    of either.
    """

    det: np.ndarray
    weights: tuple
    n: int

    @classmethod
    def from_form(cls, g: HermitianFormField) -> "_MetricData":
        weights = (1.0,) if g.spec.n == 1 else tuple(g.parts[i] for i in (1, 0, 2, 3))
        return cls(det=g.det(), weights=weights, n=g.spec.n)

    def contract(self, M: HermitianFormField) -> np.ndarray:
        """trace(g^{-1} M) pointwise for a Hermitian form ``M``, left unchanged."""
        if self.n == 1:
            return M.parts[0] / self.det
        num = self.weights[0] * M.parts[0]
        return self._contract(num, M.parts[1:], np.empty_like(num))

    def contract_hessian(self, values: np.ndarray) -> np.ndarray:
        """trace(g^{-1} H(u)) pointwise for the raw grid array ``values`` of
        ``u``, computed in the freshly transformed Hessian parts themselves."""
        parts = _hessian_parts(values)
        if self.n == 1:
            return np.divide(parts[0], self.det, out=parts[0])
        parts[0] *= self.weights[0]
        return self._contract(parts[0], parts[1:], None)

    def _contract(self, num, parts, buffer) -> np.ndarray:
        """``num`` plus the products of the last three weights with ``parts``
        (``g00``'s, then ``Re g01``'s and ``Im g01``'s, each scaled by -2),
        over ``det``, in the order of the sum; each product goes to
        ``buffer``, or into its part when ``buffer`` is ``None``."""
        for i, (w, p) in enumerate(zip(self.weights[1:], parts)):
            term = np.multiply(w, p, out=p if buffer is None else buffer)
            if i:
                term *= -2.0
            num += term
        num /= self.det
        return num

    def inverse_trace(self) -> np.ndarray:
        """trace(g^{-1}) pointwise."""
        return sum(self.weights[: self.n]) / self.det


def _metric_form(a: HermitianFormField, phi: GridField) -> HermitianFormField:
    """The form ``a + H(phi)``, built in the Hessian's own fresh buffers:
    each part of ``a`` is added into the part the transform returns, which
    gives the bits of ``a + complex_hessian(phi)`` because IEEE addition
    commutes."""
    parts = _hessian_parts(phi.values)
    for p, x in zip(parts, a.parts):
        p += x
    return HermitianFormField(a.spec, parts)


def _metric_density(a: HermitianFormField, phi: GridField) -> np.ndarray:
    """``det(a + H(phi))`` pointwise, in the bits of ``_metric_form(a,
    phi).det()``, computed in the metric form's own buffers."""
    form = _metric_form(a, phi)
    if a.spec.n == 1:
        return form.parts[0]
    g00, g11, re, im = form.parts
    return _det2(g00, g11, re, im, b2=re, out=im)


def scaled_identity(spec: TorusSpec, scale: float = 1.0) -> HermitianFormField:
    """The constant coefficient field ``scale * I``.

    Its parts are read-only broadcast views of one scalar (and one shared
    zero for ``g01``), so the form holds no grid field and cannot be
    written into.
    """
    return HermitianFormField._from_diagonal(spec, [float(scale)] * spec.n)


def _load_pocketfft():
    """scipy's compiled pocketfft module, loaded from its file so that no
    Python module of scipy is imported: ``scipy.fft`` would bring
    ``scipy.special`` and numpy's testing, f2py and random packages."""
    spec = importlib.util.find_spec("scipy")  # runs no scipy/__init__.py
    if spec is None:
        raise ImportError("scipy is not installed; torusma needs its compiled pocketfft")
    folder = os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "pypocketfft" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader("pypocketfft", path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader("pypocketfft", loader)
            )
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's compiled pocketfft (pypocketfft) not found in {folder}")


_POCKETFFT = _load_pocketfft()


# The arguments scipy.fft's ``r2cn``/``c2rn`` pass for ``norm="backward"``
# and ``workers=1``: normalisation 0 forward and 2 (1/points) inverse, no
# output buffer, one thread.  So every bit is ``rfftn``/``irfftn``'s.
def _rfftn(values: np.ndarray) -> np.ndarray:
    return _POCKETFFT.r2c(values, tuple(range(values.ndim)), True, 0, None, 1)


def _irfftn(values_hat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return _POCKETFFT.c2r(values_hat, tuple(range(len(shape))), shape[-1], False, 2, None, 1)


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
    return HermitianFormField(coarse, [_restrict(p) for p in form.parts])


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
    return HermitianFormField(spec, out[: len(mults)]), out[-1]


def _solve_half_laplacian(values: np.ndarray) -> np.ndarray:
    """Mean-zero ``u`` with ``trace H(u)`` equal to ``values`` minus its mean."""
    return _spectral(values, (_inverse_k_squared(values.ndim // 2, values.shape[0]),))[0]


def complex_hessian(f: GridField) -> HermitianFormField:
    """Complex Hessian ``H(f)_{jk} = d^2 f / dz_j dzbar_k`` by spectral differentiation.

    One forward transform of ``f`` is shared by one real inverse transform
    per part, so the form is Hermitian by construction.
    """
    return HermitianFormField(f.spec, _hessian_parts(f.values))


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


def _mean(values: np.ndarray) -> float:
    """Grid mean, summed over a contiguous array: numpy's pairwise sum
    visits a broadcast view in another order than its materialized copy, so
    a background part is copied first to give the copy's bits."""
    return float(np.ascontiguousarray(values).mean())


def integrate(f: GridField) -> float:
    """Trapezoidal (= midpoint = spectral) quadrature on the periodic grid."""
    return _mean(f.values)


def min_eigenvalue_field(form: HermitianFormField) -> GridField:
    """Pointwise smallest eigenvalue of a Hermitian coefficient field.

    Closed-form for ``n <= 2``: the eigenvalues of a Hermitian 2x2 matrix are
    ``m -/+ sqrt(((a-d)/2)^2 + |b|^2)`` with ``m = (a+d)/2``, evaluated in
    that operation order in two fields of temporaries.
    """
    spec = form.spec
    if spec.n == 1:
        return GridField(spec, form.parts[0])
    a, d, re, im = form.parts
    b2 = re * re
    out = im * im
    b2 += out  # |b|^2
    np.subtract(a, d, out=out)
    out *= 0.5
    out *= out
    out += b2
    rad = np.sqrt(out, out=out)
    mid = np.add(a, d, out=b2)
    mid *= 0.5
    mid -= rad
    return GridField(spec, mid)
