"""Quasi-plurisubharmonic model potentials with logarithmic poles.

A model potential is a closed-form trigonometric polynomial plus a finite sum
of cutoff logarithmic poles

    psi(z) = smooth(z) + sum_k  c_k * chi_k(d_k) * log(d_k^2 + s^2),

where ``d_k`` is the periodic Euclidean distance to the pole center, ``c_k > 0``
the pole weight (= its Lelong number), ``chi_k`` a quintic cutoff that is 1 on
``[0, r0]`` and 0 beyond ``r1 < 1/4``, and ``s >= 0`` a smoothing width that
is not part of the model: the caller of ``evaluate`` chooses it for all poles
at once (``regularize`` uses ``sqrt(eps)``).  Coefficients are stored in
closed form, so a model can be sampled on any grid resolution — refinement
studies of singular integrals depend on this.

At width zero, the default, the pole argument is floored at the grid scale:
``log(max(d^2, h^2))`` with ``h = 1/N``.  This sharp field keeps every grid
value finite while preserving the pole profile at all resolved distances.

The module also provides: heat-kernel regularization with its two per-call
guarantees (lower bound, and curvature bound on the certificate of a
comparison weight that ``estimates`` also reads), analytic Lelong numbers,
the Skoda integrability dichotomy at a pole (with a refining quadrature as
numeric evidence), and the L^p hypothesis check for ``exp(psi1 - psi2)``.
"""

from __future__ import annotations

import numbers
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .geometry import (
    GridField,
    HermitianFormField,
    TorusSpec,
    _hessian_and_trace,
    _hessian_multipliers,
    _heat_multiplier,
    _spectral,
    complex_hessian,
    min_eigenvalue_field,
)

__all__ = [
    "Pole",
    "SmoothMode",
    "QuasiPshModel",
    "RegularizationContractError",
    "evaluate",
    "regularize",
    "hessian_lower_bound",
    "lelong_number",
    "skoda_integrability",
    "SkodaResult",
    "density_lp_check",
    "DensityCheck",
]


class RegularizationContractError(RuntimeError):
    """A regularization guarantee (lower bound or curvature bound) failed."""


@dataclass(frozen=True)
class SmoothMode:
    """One closed-form term ``amplitude * cos(2 pi k.x + phase)``."""

    amplitude: float
    k: tuple[int, ...]
    phase: float = 0.0

    def __post_init__(self):
        if not all(isinstance(kj, numbers.Integral) for kj in self.k):
            raise ValueError(f"mode wavenumbers must be integers, got {self.k}")
        if not np.isfinite([self.amplitude, self.phase]).all():
            raise ValueError(f"mode amplitude {self.amplitude} and phase {self.phase} must be finite")


@dataclass(frozen=True)
class Pole:
    """A cutoff logarithmic pole ``c * chi(d) * log(d^2 + s^2)``; the width
    ``s`` is the caller's, passed to :func:`evaluate`, not stored here."""

    center: tuple[float, ...]
    weight: float
    _: KW_ONLY
    r0: float = 0.1
    r1: float = 0.2

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError(f"pole weight must be positive, got {self.weight}")
        if not 0 < self.r0 < self.r1 < 0.25:
            raise ValueError(
                f"cutoff radii must satisfy 0 < r0 < r1 < 1/4, got ({self.r0}, {self.r1})"
            )
        if not all(0 <= a < 1 for a in self.center):
            raise ValueError(f"pole center must lie in [0,1)^d, got {self.center}")


@dataclass(frozen=True)
class QuasiPshModel:
    """Smooth trigonometric part plus cutoff log poles, in closed form."""

    spec: TorusSpec
    smooth: tuple[SmoothMode, ...] = ()
    poles: tuple[Pole, ...] = ()

    def __post_init__(self):
        d = self.spec.num_axes
        for m in self.smooth:
            if len(m.k) != d:
                raise ValueError(f"mode frequency has {len(m.k)} axes, grid has {d}")
        for p in self.poles:
            if len(p.center) != d:
                raise ValueError(f"pole center has {len(p.center)} axes, grid has {d}")

    def shifted(self, constant: float) -> "QuasiPshModel":
        """The same model with a constant added to the smooth part."""
        zero_k = (0,) * self.spec.num_axes
        return QuasiPshModel(
            self.spec,
            self.smooth + (SmoothMode(constant, zero_k, 0.0),),
            self.poles,
        )


def _cutoff(d: np.ndarray, r0: float, r1: float) -> np.ndarray:
    """Quintic smoothstep: 1 on [0, r0], 0 on [r1, inf), C^2 in between."""
    t = np.clip((d - r0) / (r1 - r0), 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _periodic_delta(coord: np.ndarray, center: float) -> np.ndarray:
    """Signed periodic displacement in (-1/2, 1/2]."""
    return np.mod(coord - center + 0.5, 1.0) - 0.5


def _check_point(x, num_axes: int) -> None:
    if len(x) != num_axes:
        raise ValueError(f"point {tuple(x)} needs {num_axes} coordinates, got {len(x)}")


def _periodic_d2(coords, center) -> np.ndarray:
    """Squared periodic distance from broadcastable ``coords`` to the point ``center``."""
    _check_point(center, len(coords))
    d2 = 0.0
    for cj, aj in zip(coords, center):
        d2 = d2 + _periodic_delta(cj, aj) ** 2
    return d2


def _smooth_values(model: QuasiPshModel, coords: list[np.ndarray]) -> np.ndarray:
    out = 0.0
    for m in model.smooth:
        # Zero wavenumbers add exact zeros; skipping them keeps ``arg`` as
        # small as the axes the mode depends on.
        arg = sum(2 * np.pi * kj * cj for kj, cj in zip(m.k, coords) if kj)
        out = out + m.amplitude * np.cos(arg + m.phase)
    return out


def _pole_values(
    model: QuasiPshModel,
    coords: list[np.ndarray],
    smoothing: float,
    floor: float,
) -> np.ndarray:
    out = 0.0
    for pole in model.poles:
        d2 = _periodic_d2(coords, pole.center)
        if smoothing > 0:
            arg = d2 + smoothing * smoothing
        else:
            arg = np.maximum(d2, floor * floor)
        out = out + pole.weight * _cutoff(np.sqrt(d2), pole.r0, pole.r1) * np.log(arg)
    return out


def _values(
    model: QuasiPshModel,
    coords: list[np.ndarray],
    smoothing: float,
    floor: float,
) -> np.ndarray:
    """The model at broadcastable ``coords``, possibly of a smaller shape."""
    smooth = _smooth_values(model, coords)
    return smooth + _pole_values(model, coords, smoothing, floor)


def evaluate(model: QuasiPshModel, smoothing: float = 0.0) -> GridField:
    """Sample the model on its grid, every pole widened by ``smoothing``.

    At width zero, the sharp field, the pole argument is floored at the
    grid's cell scale, ``log(max(d^2, h^2))``, so all values are finite.
    """
    if not smoothing >= 0:
        raise ValueError("smoothing width must be nonnegative")
    spec = model.spec
    values = _values(model, spec.coordinates(), smoothing, floor=spec.h)
    return GridField(spec, np.broadcast_to(values, spec.shape).copy())


def hessian_lower_bound(model: QuasiPshModel, s_min: float = 0.0) -> float:
    """Smallest ``C >= 0`` with ``C*I + H(psi)`` nonnegative on the grid.

    The bound is certified at smoothing ``s_min`` (default: the sharp field);
    since adding ``C*I`` shifts every eigenvalue by exactly ``C``, the
    optimum is ``-min lambda_min`` and needs no search.  A margin of ``1e-6``
    is added so the certified form is strictly nonnegative; downstream
    inequality checks rely on that strictness.  The bound grows as ``s_min``
    approaches the grid scale.
    """
    return _curvature_bound(complex_hessian(evaluate(model, s_min)))


def _curvature_bound(hessian: HermitianFormField) -> float:
    """``hessian_lower_bound`` from the Hessian of the model at its smoothing."""
    lam = float(np.min(min_eigenvalue_field(hessian).values))
    return max(0.0, -lam + 1e-6)


# The least certificate of a C-quasi-plurisubharmonic weight, up to round-off.
_CERTIFICATE_FLOOR = -1e-8


def _certified(calculus, C: float) -> tuple:
    """A comparison weight ``psi`` with its constant ``C``, from its
    ``_hessian_and_trace``: ``(H(psi), Delta psi, C, min eig H(psi) + C)``."""
    H, laplacian = calculus
    return H, laplacian, C, float(np.min(min_eigenvalue_field(H).values) + C)


# Regularization guarantees are enforced only at moderate smoothing times;
# beyond this the heat kernel moves smooth parts by more than the contractual
# slack of 1, and both guarantees are skipped: neither checked nor recorded.
_GUARANTEE_EPS_MAX = 0.1


def regularize(
    model: QuasiPshModel, eps: float, check: bool = True
) -> GridField:
    """Smoothing-family member at parameter ``eps``: heat flow of the widened model.

    The pole smoothing is set to ``sqrt(eps)`` and the result is heat-smoothed
    for time ``eps``.  Two guarantees are verified per call with ``check``
    for ``eps <= _GUARANTEE_EPS_MAX`` (0.1); above it both are skipped,
    since larger times are outside the contractual range:

    (a) output >= evaluate(model) - 1 pointwise (grid-floored pole values);
    (b) min eig(C*I + H(output)) >= -1e-8 with ``C`` certified at the same
        smoothing — exact in principle because the heat multiplier commutes
        with the complex-Hessian multiplier and averages matrices pointwise.
    """
    guarded = check and eps <= _GUARANTEE_EPS_MAX
    return _regularize(model, eps, evaluate(model) if guarded else None)[0]


def _regularize(model: QuasiPshModel, eps: float, sharp: GridField | None) -> tuple:
    """:func:`regularize`, checked when ``sharp`` (the model at smoothing 0)
    is given, and the output's :func:`_certified` weight: its Hessian and
    half-Laplacian from one forward transform, ``C = hessian_lower_bound(model,
    s_min=sqrt(eps))`` and the certificate guarantee (b) reads."""
    if not eps > 0:
        raise ValueError(f"regularization parameter must be positive, got {eps}")
    spec = model.spec
    base = evaluate(model, float(np.sqrt(eps)))
    mults = (_heat_multiplier(spec.n, spec.N, eps), *_hessian_multipliers(spec.n, spec.N))
    smoothed, *base_hessian = _spectral(base.values, mults)
    out = GridField(spec, smoothed)
    c_bound = _curvature_bound(HermitianFormField(spec, base_hessian))
    weight = _certified(_hessian_and_trace(out), c_bound)
    if sharp is not None and eps <= _GUARANTEE_EPS_MAX:
        short = float(np.min(out.values - (sharp.values - 1.0)))
        if short < -1e-12:
            raise RegularizationContractError(
                f"smoothed field drops {-short:.3e} below the sharp field minus 1 "
                f"(eps={eps:g}); pole or cutoff configuration is inconsistent"
            )
        if weight[3] < _CERTIFICATE_FLOOR:
            raise RegularizationContractError(
                f"curvature bound fails after smoothing: min eig {weight[3]:.3e} "
                f"< -1e-8 (eps={eps:g}, C={c_bound:.3e})"
            )
    return out, weight


def _match_center(center: tuple[float, ...], x, tol: float = 1e-9) -> bool:
    return all(abs(a - b) <= tol for a, b in zip(center, x))


def lelong_number(model: QuasiPshModel, x) -> float:
    """Analytic Lelong number at ``x``: the sum of weights of poles centered there.

    Convention: ``nu(psi, x) = lim_{r->0} max_{|z-x|=r} psi / log r^2``, under
    which a single pole of weight ``c`` has Lelong number exactly ``c``.
    """
    _check_point(x, model.spec.num_axes)
    return sum(p.weight for p in model.poles if _match_center(p.center, x))


def _logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` of a finite, non-empty 1-D real array: a port of
    scipy 1.17.1's ``_logsumexp``, bit for bit.  The maximum is split out:
    with ``m`` entries equal to it and ``s`` the sum of ``exp(a - max)`` over
    the others (zeros in their places, so the pairwise sum is scipy's), the
    result is ``log1p(s/m) + log(m) + max``."""
    top = np.max(a)
    at_top = a == top
    terms = np.exp(a - top)
    terms[at_top] = 0.0
    m = float(np.count_nonzero(at_top))
    s = np.sum(terms)
    return float(np.log1p(s / m) + np.log(m) + top)


# Integrability margins ``n - p nu`` nearer zero than this are borderline.
_BORDERLINE_MARGIN = 0.05


def _integrability_margin(model: QuasiPshModel, p: float, x) -> tuple[float, float]:
    """The Lelong number ``nu`` of ``model`` at ``x`` and the margin ``n - p nu``."""
    nu = lelong_number(model, x)
    return nu, model.spec.n - p * nu


@dataclass(frozen=True)
class SkodaResult:
    """Exponential integrability of ``exp(-p psi)`` near a point."""

    integrable: bool
    margin: float  # n - p * nu
    borderline: bool  # |margin| < _BORDERLINE_MARGIN: reported, not guessed
    numeric_verdict: str  # "integrable" | "non-integrable" | "marginal"
    integrals: tuple[float, float, float]  # ball quadrature at N, 2N, 4N
    increment_ratio: float  # (I_4N - I_2N) / (I_2N - I_N)


def skoda_integrability(model: QuasiPshModel, p: float, x) -> SkodaResult:
    """Dichotomy for local integrability of ``exp(-p psi)`` at ``x``.

    Analytically, integrability holds iff ``p * nu(psi, x) < n``; the margin
    ``n - p nu`` is reported and values within ``_BORDERLINE_MARGIN`` of zero
    are flagged borderline.  Numeric evidence: the ball quadrature of
    ``exp(-p psi)`` with the resolution-dependent pole floor has increments
    between successive refinements that shrink geometrically when the integral
    converges and grow geometrically when it diverges; the increment ratio is
    the classifier (below 0.95 / above 1.05, else marginal).
    """
    if not p >= 1:
        raise ValueError(f"exponent must be >= 1, got {p}")
    n = model.spec.n
    _, margin = _integrability_margin(model, p, x)
    radius = min((pl.r1 for pl in model.poles), default=0.2)
    base_resolution = 64 if n == 1 else 12
    center = np.asarray(x, dtype=float)

    log_integrals = []
    for N in (base_resolution, 2 * base_resolution, 4 * base_resolution):
        sub = TorusSpec(n, N)
        # Sample only the index window around x that covers the ball: the
        # same grid coordinates and floor as the whole grid, in sorted
        # order, so the ball's values reach _logsumexp in the same order.
        coords = []
        for axis, aj in enumerate(center):
            c = sub.axis_coordinate(axis)
            inside = (_periodic_delta(c, aj) ** 2 <= radius**2).ravel()
            coords.append(np.compress(inside, c, axis=axis))
        d2 = _periodic_d2(coords, center)
        window = np.broadcast_shapes(*(c.shape for c in coords))
        psi = _values(model, coords, 0.0, floor=sub.h)
        mask = np.broadcast_to(d2 <= radius**2, window)
        # log of the cell-sum over the ball, computed in log space
        log_integrals.append(
            _logsumexp(-p * np.broadcast_to(psi, window)[mask])
            - sub.num_axes * np.log(N)
        )

    l1, l2, l3 = log_integrals
    # increments via a common scale to stay overflow-safe
    d1 = np.exp(l1) * np.expm1(l2 - l1)
    d2_ = np.exp(l1) * (np.exp(l3 - l1) - np.exp(l2 - l1))
    ratio = float(d2_ / d1) if d1 > 0 else np.inf
    if ratio > 1.05:
        numeric = "non-integrable"
    elif ratio < 0.95:
        numeric = "integrable"
    else:
        numeric = "marginal"
    return SkodaResult(
        integrable=margin > 0,
        margin=float(margin),
        borderline=abs(margin) < _BORDERLINE_MARGIN,
        numeric_verdict=numeric,
        integrals=tuple(float(np.exp(l)) for l in log_integrals),
        increment_ratio=ratio,
    )


@dataclass(frozen=True)
class DensityCheck:
    """L^p norm of ``exp(psi1 - psi2)`` with a two-resolution stability ratio."""

    norm: float
    refined_norm: float
    refinement_ratio: float
    flagged: bool  # ratio > 1.5: integrability hypothesis at risk


# Points per slab of the density quadrature: a few MiB of temporaries per
# slab, however large the refined grid.
_SLAB_POINTS = 2**17


def _log_sum_density(
    psi1: QuasiPshModel, psi2: QuasiPshModel, p: float, spec: TorusSpec
) -> float:
    """``log sum exp(p (psi1 - psi2))`` over the grid of ``spec``, pole-floored.

    The grid is swept in axis-0 slabs twice: the exact maximum first, then
    the sum of ``exp(. - max)``, so no whole-grid field is ever held.
    """
    coords = spec.coordinates()
    rows = max(1, _SLAB_POINTS * spec.N // int(np.prod(spec.shape)))

    def slabs():
        for start in range(0, spec.N, rows):
            sub = [coords[0][start : start + rows]] + coords[1:]
            diff = _values(psi1, sub, 0.0, spec.h) - _values(psi2, sub, 0.0, spec.h)
            yield p * np.broadcast_to(diff, (len(sub[0]),) + spec.shape[1:])

    top = max(float(np.max(x)) for x in slabs())
    return top + float(np.log(sum(float(np.sum(np.exp(x - top))) for x in slabs())))


def density_lp_check(
    psi1: QuasiPshModel, psi2: QuasiPshModel, p: float
) -> DensityCheck:
    """``||exp(psi1 - psi2)||_{L^p}`` at the working resolution and at 2N.

    Computed in log space throughout (the integrand reaches ``h^{-2pc}`` near
    above-threshold poles), in slabs of bounded size; a refinement ratio
    above 1.5 flags that the integral is tracking the pole floor rather than
    converging.
    """
    if not p > 1:
        raise ValueError(f"hypothesis exponent must be > 1, got {p}")
    if psi1.spec != psi2.spec:
        raise ValueError("density factors live on different grids")
    norms = []
    for scale in (1, 2):
        sub = TorusSpec(psi1.spec.n, psi1.spec.N * scale)
        log_sum = _log_sum_density(psi1, psi2, p, sub)
        log_norm = (log_sum - sub.num_axes * np.log(sub.N)) / p
        norms.append(float(np.exp(log_norm)))
    ratio = norms[1] / norms[0] if norms[0] > 0 else np.inf
    return DensityCheck(
        norm=norms[0],
        refined_norm=norms[1],
        refinement_ratio=float(ratio),
        flagged=ratio > 1.5,
    )
