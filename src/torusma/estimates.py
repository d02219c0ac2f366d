"""Executable forms of the a-priori estimates.

Every check works in the constant-background frame: the metric at rung
``eps`` is ``g = (1 + eps) I + H(Phi)`` with ``Phi`` the shifted potential,
and the normalized trace is ``q = n + trace H(Phi) / (1 + eps)``.  Pointwise
inequalities are returned as residual fields (claimed sign: nonnegative up
to round-off or discretization); ladder-level uniformity claims are returned
as verdicts carrying witnesses.

Two checks are exact identities — the trace identity and the determinant
shift — and must cancel to round-off: they guard the algebra everything else
stands on.  The differential inequality for ``log q`` and the convexity
comparison for quasi-plurisubharmonic weights are genuine estimates whose
residuals are nonnegative in the continuum and must stay so on the grid up
to a small discretization allowance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .geometry import (
    GridField,
    HermitianFormField,
    _MetricData,
    _frobenius,
    _hessian_and_trace,
    half_laplacian,
    complex_hessian,
    min_eigenvalue_field,
    scaled_identity,
    spectral_gradient,
)
from .ma import PositivityError
from .pluripotential import QuasiPshModel, _periodic_d2

__all__ = [
    "HOLDS",
    "VIOLATED",
    "INCONCLUSIVE",
    "Verdict",
    "EstimateReport",
    "EstimateError",
    "SobolevHolderReport",
    "c0_uniformity",
    "siu_residual",
    "comparison_residual",
    "c2_uniformity",
    "delta_trend",
    "holder_seminorms",
    "holder_seminorm",
    "has_admissible_pairs",
    "sobolev_holder_probe",
]

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one ladder-level check.

    ``status`` is one of the three module constants; a violated verdict
    always carries a witness — the named scalars that broke the bound.
    """

    status: str
    summary: str
    witness: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.status not in (HOLDS, VIOLATED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == HOLDS


@dataclass(frozen=True)
class EstimateReport:
    """A named verdict plus the scalars that support it."""

    name: str
    verdict: Verdict
    data: tuple[tuple[str, float], ...] = ()


class EstimateError(ValueError):
    """An estimate's precondition fails on the fields it was handed."""


@dataclass(frozen=True)
class _RungMetric:
    """The metric ``g = (1 + eps) I + H(Phi)`` of one rung, built once.

    Carries the normalized trace ``q = n + trace H(Phi) / (1 + eps) > 0`` and
    its log, ``H(Phi)`` and the determinant/adjugate data of ``g``, from one
    transform of ``Phi``; every per-rung estimate reads these.
    """

    Phi: GridField
    eps: float
    q: np.ndarray
    log_q: np.ndarray
    hessian: HermitianFormField
    data: _MetricData

    @classmethod
    def build(cls, Phi: GridField, eps: float) -> "_RungMetric":
        H, trace = _hessian_and_trace(Phi)
        q = Phi.spec.n + trace / (1.0 + eps)
        qmin = float(np.min(q))
        if qmin <= 0:
            raise EstimateError(
                f"normalized metric trace must be positive, grid minimum {qmin:.3e}"
            )
        data = _MetricData.from_form(scaled_identity(Phi.spec, 1.0 + eps) + H)
        if float(np.min(data.det)) <= 0:
            raise PositivityError("metric is singular: determinant vanishes on the grid")
        return cls(Phi=Phi, eps=eps, q=q, log_q=np.log(q), hessian=H, data=data)


def siu_residual(Phi: GridField, f: GridField, eps: float, C: float) -> GridField:
    """Residual of the differential inequality for the log metric trace.

    With ``q = n + trace H(Phi)/(1+eps)`` and ``f`` the log density in the
    constant-background frame, the claim is

        Delta_g log q  >=  (Delta f / (1+eps) - C) / q  -  C (1+eps) trace(g^{-1})

    pointwise, where ``Delta_g`` is the metric Laplacian and ``Delta`` the
    flat half-Laplacian.  Returned is left minus right; for ``n = 1`` with
    ``C = 0`` the two sides agree identically because the equation itself
    says ``log q = f``, so the residual there measures pure discretization
    noise.  At ``Phi = 0``, ``f = 0`` the residual is the constant
    ``C/n + C n``.
    """
    return GridField(Phi.spec, _siu_residual(_RungMetric.build(Phi, eps), f, C))


def _siu_residual(m: _RungMetric, f: GridField, C: float) -> np.ndarray:
    logq = GridField(m.Phi.spec, m.log_q)
    lhs = m.data.contract(complex_hessian(logq).parts)
    rhs = (half_laplacian(f).values / (1.0 + m.eps) - C) / m.q
    rhs = rhs - C * (1.0 + m.eps) * m.data.inverse_trace()
    return lhs - rhs


_COMPARISON_PRECONDITION = -1e-8


def comparison_residual(
    Phi: GridField, psi: GridField, C: float, eps: float = 0.0
) -> GridField:
    """Residual of the convexity comparison for a curvature-bounded weight.

    Precondition: ``C I + H(psi)`` is positive semidefinite on the grid (up
    to ``-1e-8``); rejected otherwise, since the claim is simply false for
    under-certified constants.  The claim:

        trace(g^{-1} (C I + H(psi)))  >=  (C n + Delta psi) / ((1+eps) q),

    which holds pointwise because each eigenvalue of ``g`` is at most the
    full trace ``(1+eps) q``.  Returned is left minus right — nonnegative up
    to round-off whenever the precondition holds.
    """
    m = _RungMetric.build(Phi, eps)
    weight = _weight(_hessian_and_trace(psi), C)
    return GridField(Phi.spec, _comparison_residual(m, weight))


def _weight(calculus, C: float) -> tuple:
    """A comparison weight ``psi`` with its constant, differentiated once:
    ``(H(psi), Delta psi, C, min eig(C I + H(psi)))`` from its ``_hessian_and_trace``."""
    H, laplacian = calculus
    eig = min_eigenvalue_field(scaled_identity(H.spec, C) + H)
    return H, laplacian, C, float(np.min(eig.values))


def _comparison_residual(m: _RungMetric, weight: tuple) -> np.ndarray:
    H, laplacian, C, min_eig = weight
    if min_eig < _COMPARISON_PRECONDITION:
        raise EstimateError(
            f"weight is not curvature-bounded by C={C:.6g}: "
            f"grid minimum eigenvalue {min_eig:.3e}"
        )
    lhs = C * m.data.inverse_trace() + m.data.contract(H.parts)
    rhs = (C * m.Phi.spec.n + laplacian) / ((1.0 + m.eps) * m.q)
    return lhs - rhs


def _trace_identity_defect(m: _RungMetric) -> float:
    """Sup defect of ``trace(g^{-1} H(Phi)) = n - (1+eps) trace(g^{-1})``.

    Both sides are computed independently from one ``_RungMetric`` (the
    Hessian of ``Phi`` and the adjugate data of ``g``); the identity is pure
    linear algebra, so the defect is round-off only.
    """
    lhs = m.data.contract(m.hessian.parts)
    rhs = m.Phi.spec.n - (1.0 + m.eps) * m.data.inverse_trace()
    return float(np.max(np.abs(lhs - rhs)))


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(x, y, 1)[0])


def c0_uniformity(states) -> Verdict:
    """Uniform boundedness of ``sup |phi_eps|`` down the ladder.

    Holds when every rung's sup norm stays within 25 percent of the first
    rung's and the least-squares slope against ``-log eps`` does not exceed
    0.01 per e-fold.  Unbounded potentials fail the slope test long before
    the ladder ends.
    """
    if len(states) < 3:
        return Verdict(
            INCONCLUSIVE, f"need at least 3 rungs, got {len(states)}"
        )
    sups = np.array([float(np.max(np.abs(s.phi.values))) for s in states])
    eps = np.array([s.eps for s in states])
    first = sups[0]
    deviation = np.abs(sups - first)
    worst = int(np.argmax(deviation))
    slope = _fit_slope(-np.log(eps), sups)
    within = bool(np.all(deviation <= 0.25 * first + 1e-15))
    flat = slope <= 0.01
    if within and flat:
        return Verdict(
            HOLDS,
            f"sup norms within 25% of first rung ({first:.6g}), "
            f"slope {slope:.3e} per e-fold",
            witness=(("first_sup", float(first)), ("slope", slope)),
        )
    parts = []
    if not within:
        parts.append(
            f"rung eps={eps[worst]:g} has sup {sups[worst]:.6g} vs first {first:.6g}"
        )
    if not flat:
        parts.append(f"slope {slope:.3e} exceeds 0.01 per e-fold")
    return Verdict(
        VIOLATED,
        "; ".join(parts),
        witness=(
            ("worst_eps", float(eps[worst])),
            ("worst_sup", float(sups[worst])),
            ("first_sup", float(first)),
            ("slope", slope),
        ),
    )


def _exclusion_mask(spec, centers, radius: float) -> np.ndarray:
    """True where the periodic distance to every center is at least ``radius``."""
    coords = spec.coordinates()
    keep = np.ones(spec.shape, dtype=bool)
    for center in centers:
        keep &= np.sqrt(_periodic_d2(coords, center)) >= radius
    return keep


def _pole_mask(psi2: QuasiPshModel) -> np.ndarray:
    """The grid points at least one spacing from every pole of ``psi2``, where
    :func:`_weighted_sup` reads the sharp weight; the same on every rung."""
    keep = _exclusion_mask(psi2.spec, tuple(p.center for p in psi2.poles), psi2.spec.h)
    if not keep.any():
        raise ValueError("every grid point is excluded by the singular centers")
    return keep


def _weighted_sup(m: _RungMetric, weight, C: float, keep=None) -> float:
    """``sup q * exp(weight - 2 C Phi)`` over the grid, or over the points
    ``keep`` marks: the weighted trace that the maximum principle controls
    where the unweighted trace cannot be bounded."""
    S = m.log_q + weight - 2.0 * C * m.Phi.values
    return float(np.exp(np.max(S if keep is None else S[keep])))


def c2_uniformity(states) -> Verdict:
    """Uniformity of the weighted second-order quantity down the ladder.

    Per rung the quantity is ``sup q * exp(psi2_hat - 2 C Phi)`` over grid
    points at least one spacing away from the singular centers, where
    ``psi2_hat`` is the sharp weight (grid-floored at its poles) held fixed
    across rungs and ``Phi = phi + rho``: each state's ``sharp_weighted_sup``,
    as ``continuation.rung_diagnostics`` computed it.  Holds when every rung
    stays within a factor 2 of the first and the relative least-squares
    slope against ``-log eps`` is at most 0.05 per e-fold.  The unweighted
    trace blows up along the ladder in singular scenarios; only the weighted
    quantity can stay uniform.
    """
    if len(states) < 3:
        return Verdict(INCONCLUSIVE, f"need at least 3 rungs, got {len(states)}")
    vals = np.array([s.diagnostics["sharp_weighted_sup"] for s in states])
    eps = np.array([s.eps for s in states])
    first = vals[0]
    ratio = vals / first
    worst = int(np.argmax(ratio))
    slope = _fit_slope(-np.log(eps), ratio)
    bounded = bool(np.all(ratio <= 2.0))
    flat = slope <= 0.05
    if bounded and flat:
        return Verdict(
            HOLDS,
            f"weighted second-order supremum within factor 2 of first rung "
            f"({first:.6g}), relative slope {slope:.3e} per e-fold",
            witness=(("first_sup", float(first)), ("relative_slope", slope)),
        )
    parts = []
    if not bounded:
        parts.append(
            f"rung eps={eps[worst]:g} reaches {ratio[worst]:.3g} x first rung"
        )
    if not flat:
        parts.append(f"relative slope {slope:.3e} exceeds 0.05 per e-fold")
    return Verdict(
        VIOLATED,
        "; ".join(parts),
        witness=(
            ("worst_eps", float(eps[worst])),
            ("worst_ratio", float(ratio[worst])),
            ("first_sup", float(first)),
            ("relative_slope", slope),
        ),
    )


_FINAL_DELTA_BOUND = 1e-2


def delta_trend(states) -> Verdict:
    """Decay of the mass-restoring constants down the ladder.

    Holds when the final ``|delta_eps|`` is at most ``1e-2`` and the
    absolute values do not increase over the last three rungs.
    """
    if len(states) < 3:
        return Verdict(INCONCLUSIVE, f"need at least 3 rungs, got {len(states)}")
    deltas = [abs(s.delta_eps) for s in states]
    tail = deltas[-3:]
    decreasing = all(b <= a * (1.0 + 1e-12) + 1e-15 for a, b in zip(tail, tail[1:]))
    small = deltas[-1] <= _FINAL_DELTA_BOUND
    if small and decreasing:
        return Verdict(
            HOLDS,
            f"final |delta| {deltas[-1]:.3e} <= {_FINAL_DELTA_BOUND:g}, "
            f"non-increasing over last 3 rungs",
            witness=(("final_delta", deltas[-1]),),
        )
    parts = []
    if not small:
        parts.append(f"final |delta| {deltas[-1]:.3e} exceeds {_FINAL_DELTA_BOUND:g}")
    if not decreasing:
        parts.append(f"|delta| not decreasing over last 3 rungs: {tail}")
    return Verdict(
        VIOLATED,
        "; ".join(parts),
        witness=(("final_delta", deltas[-1]), ("tail_start", tail[0])),
    )


def _stencil_legs(spec):
    """Yield ``(shift, separation)`` for each Hoelder stencil leg.

    Legs run along one representative of each antipodal pair of lattice
    directions in ``{-1,0,1}^d`` at one, two and four grid spacings, capped
    at separation 1/4, the injectivity scale of the periodic distance.
    """
    for v in product((-1, 0, 1), repeat=spec.num_axes):
        if next((c for c in v if c != 0), 0) <= 0:  # zero, or an antipodal twin
            continue
        vnorm = float(np.linalg.norm(v))
        for m in (1, 2, 4):
            separation = m * spec.h * vnorm
            if separation <= 0.25:
                yield tuple(-m * c for c in v), separation


def holder_seminorms(
    phi: GridField, gamma: float, radii, singular=()
) -> tuple[float, ...]:
    """Discrete Hoelder seminorms of the gradient, one per exclusion radius.

    Each is the maximum of ``|grad phi(x + d) - grad phi(x)| / |d|^gamma``
    over the stencil legs ``d``, restricted to pairs whose endpoints both
    keep that radius from every singular center (a tuple of center
    coordinates), so it is monotone non-increasing in the radius.  The
    gradient is taken once and each leg's difference formed once for all
    radii.  Every radius must be at least two grid spacings, so the shortest
    legs cannot straddle a pole; raises when a radius empties the stencil.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"Hoelder exponent must lie in (0,1), got {gamma}")
    spec = phi.spec
    if min(radii) < 2.0 * spec.h * (1.0 - 1e-12):
        raise ValueError(
            f"exclusion radius must be at least 2h = {2 * spec.h:g}, "
            f"got {min(radii):g}"
        )
    grad = spectral_gradient(phi)
    masks = [_exclusion_mask(spec, singular, radius) for radius in radii]
    axes = tuple(range(spec.num_axes))
    best = [-np.inf] * len(masks)
    for shift, separation in _stencil_legs(spec):
        valid = [keep & np.roll(keep, shift, axis=axes) for keep in masks]
        if not any(v.any() for v in valid):
            continue
        diff2 = sum((np.roll(comp, shift, axis=axes) - comp) ** 2 for comp in grad)
        for i, v in enumerate(valid):
            if v.any():  # sqrt and division are monotone: take the top diff2
                top = np.sqrt(np.max(diff2, where=v, initial=0.0)) / separation**gamma
                best[i] = max(best[i], float(top))
    for radius, value in zip(radii, best):
        if value == -np.inf:
            raise ValueError(
                f"exclusion radius {radius:g} leaves no admissible "
                f"stencil pairs on an N={spec.N} grid"
            )
    return tuple(best)


def holder_seminorm(
    phi: GridField, gamma: float, exclusion_radius: float, singular=()
) -> float:
    """The Hoelder seminorm of :func:`holder_seminorms` at one exclusion radius."""
    return holder_seminorms(phi, gamma, (exclusion_radius,), singular)[0]


def has_admissible_pairs(spec, exclusion_radius: float, singular=()) -> bool:
    """Whether :func:`holder_seminorm` has any stencil pair at this exclusion."""
    keep = _exclusion_mask(spec, singular, exclusion_radius)
    axes = tuple(range(spec.num_axes))
    legs = _stencil_legs(spec)
    return any((keep & np.roll(keep, shift, axis=axes)).any() for shift, _ in legs)


@dataclass(frozen=True)
class SobolevHolderReport:
    """Embedding-condition bookkeeping on a patch away from the centers."""

    sobolev_norm: float
    ratio: float
    margins: tuple[tuple[str, float], ...]


def sobolev_holder_probe(
    phi: GridField,
    gamma: float,
    q_exponent: float,
    exclusion_radius: float,
    singular=(),
    *,
    holder: float,
) -> SobolevHolderReport:
    """Second-order integrability versus Hoelder continuity on a patch.

    Computes the volume-weighted ``L^q`` norm of the complex Hessian
    (Frobenius, pointwise) on the patch and sets it against ``holder``, the
    Hoelder-``gamma`` seminorm of the gradient that the caller measured on
    the same patch with :func:`holder_seminorms` — the two sides of the
    compactness embedding — plus the condition margins ``q (1 - gamma) - d``
    for both readings of the dimension, the real ``2n`` and the complex
    ``n``.  A positive margin is the condition under which
    second-order integrability upgrades to Hoelder continuity of the
    gradient; the seminorm-to-norm ratio is the per-rung diagnostic.
    """
    if q_exponent <= 0:
        raise ValueError(f"integrability exponent must be positive, got {q_exponent}")
    spec = phi.spec
    keep = _exclusion_mask(spec, singular, exclusion_radius)
    if not keep.any():
        raise ValueError("exclusion radius removes the whole grid")
    frob = _frobenius(complex_hessian(phi))
    cell = spec.h**spec.num_axes
    sobolev = float((np.sum(frob[keep] ** q_exponent) * cell) ** (1.0 / q_exponent))
    ratio = holder / sobolev if sobolev > 0 else (0.0 if holder == 0 else float("inf"))
    margins = (
        ("real_dimension", q_exponent * (1.0 - gamma) - 2 * spec.n),
        ("complex_dimension", q_exponent * (1.0 - gamma) - spec.n),
    )
    return SobolevHolderReport(
        sobolev_norm=sobolev,
        ratio=float(ratio),
        margins=tuple((k, float(v)) for k, v in margins),
    )
