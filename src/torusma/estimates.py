"""Executable forms of the a-priori estimates, and every verdict of a record.

Every check works in the constant-background frame: the metric at rung
``eps`` is ``g = (1 + eps) I + H(Phi)`` with ``Phi`` the shifted potential,
and the normalized trace is ``q = n + trace H(Phi) / (1 + eps)``.  Pointwise
inequalities are returned as residual fields (claimed sign: nonnegative up
to round-off or discretization); ladder-level uniformity claims are returned
as named verdicts carrying witnesses, each decided by one rule.

Two checks are exact identities — the trace identity and the determinant
shift — and must cancel to round-off: they guard the algebra everything else
stands on.  The differential inequality for ``log q`` and the convexity
comparison for quasi-plurisubharmonic weights are genuine estimates whose
residuals are nonnegative in the continuum and must stay so on the grid up
to a small discretization allowance.

This module is the one place a rung is measured and a verdict decided:
``_LadderEstimates.measure`` gives every per-rung diagnostic of a solved or
rebuilt rung, and :func:`record_verdicts` lists every check of a run record
in its fixed order — the ladder verdicts, the one-sided bounds on the
per-rung diagnostics, and the integrability and density checks of
``pluripotential`` — and ``report`` only renders them.
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
    _read_only,
    half_laplacian,
    complex_hessian,
    scaled_identity,
    spectral_gradient,
)
from .ma import PositivityError, ma_density
from .pluripotential import (
    _CERTIFICATE_FLOOR,
    QuasiPshModel,
    _certified,
    _curvature_bound,
    _periodic_d2,
    density_lp_check,
    evaluate,
    skoda_integrability,
)

__all__ = [
    "HOLDS",
    "VIOLATED",
    "INCONCLUSIVE",
    "Verdict",
    "EstimateError",
    "EstimateSettings",
    "c0_uniformity",
    "siu_residual",
    "comparison_residual",
    "c2_uniformity",
    "delta_trend",
    "holder_seminorm",
    "has_admissible_pairs",
    "interior_regularity",
    "record_verdicts",
]

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one named record check.

    ``status`` is one of the three module constants; ``witness`` holds the
    named scalars the status was decided on, ``data`` those reported beside
    it.  Checks decide through :func:`_decide`, ladders of fewer than three
    rungs through :func:`_too_short`, so each states only its own clauses.
    """

    name: str
    status: str
    summary: str
    witness: tuple[tuple[str, float], ...] = ()
    data: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.status not in (HOLDS, VIOLATED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict status {self.status!r}")


def _decide(name: str, holds: str, *clauses, witness=(), data=()) -> Verdict:
    """HOLDS, summarized by ``holds``, when every ``(ok, failure)`` clause is
    ok; VIOLATED otherwise, summarized by the failure phrases of the clauses
    that are not."""
    failures = [failure for ok, failure in clauses if not ok]
    status = VIOLATED if failures else HOLDS
    return Verdict(name, status, "; ".join(failures) or holds, witness, data)


def _too_short(name: str, ladder) -> Verdict | None:
    """INCONCLUSIVE for a ladder of fewer than three rungs, which no trend
    check can judge; ``None`` for a longer one."""
    if len(ladder) < 3:
        return Verdict(name, INCONCLUSIVE, f"need at least 3 rungs, got {len(ladder)}")
    return None


class EstimateError(ValueError):
    """An estimate's precondition fails on the fields it was handed."""


@dataclass(frozen=True)
class EstimateSettings:
    """Knobs for the ladder-level regularity checks: the Hoelder exponent,
    the two exclusion radii and the integrability exponent of the Sobolev
    embedding check, whose margin is reported in both the real and the
    complex reading of the dimension.

    Exclusion radii are in units of the grid spacing, so a setting means the
    same thing at every resolution.
    """

    holder_gamma: float = 0.5
    exclusion_inner: float = 2.0
    exclusion_outer: float = 8.0
    sobolev_q: float = 4.0

    def __post_init__(self):
        if not 0 < self.holder_gamma < 1:
            raise ValueError(f"holder_gamma must be in (0,1), got {self.holder_gamma}")
        # Radii are in grid spacings; the Hoelder stencil needs at least two.
        if not 2 <= self.exclusion_inner < self.exclusion_outer:
            raise ValueError("need 2 <= exclusion_inner < exclusion_outer")
        if not self.sobolev_q > 0:
            raise ValueError(f"sobolev_q must be positive, got {self.sobolev_q}")


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
    lhs = m.data.contract_hessian(m.log_q)
    rhs = (half_laplacian(f).values / (1.0 + m.eps) - C) / m.q
    rhs = rhs - C * (1.0 + m.eps) * m.data.inverse_trace()
    return lhs - rhs


def comparison_residual(
    Phi: GridField, psi: GridField, C: float, eps: float = 0.0
) -> GridField:
    """Residual of the convexity comparison for a curvature-bounded weight.

    Precondition: ``C I + H(psi)`` is positive semidefinite on the grid up
    to ``-1e-8`` by its certificate, the one ``pluripotential._certified``
    takes for the smoothing guarantee too; rejected otherwise, since the
    claim is simply false for under-certified constants.  The claim:

        trace(g^{-1} (C I + H(psi)))  >=  (C n + Delta psi) / ((1+eps) q),

    which holds pointwise because each eigenvalue of ``g`` is at most the
    full trace ``(1+eps) q``.  Returned is left minus right — nonnegative up
    to round-off whenever the precondition holds.
    """
    m = _RungMetric.build(Phi, eps)
    weight = _certified(_hessian_and_trace(psi), C)
    return GridField(Phi.spec, _comparison_residual(m, weight))


def _comparison_residual(m: _RungMetric, weight: tuple) -> np.ndarray:
    H, laplacian, C, min_eig = weight
    if min_eig < _CERTIFICATE_FLOOR:
        raise EstimateError(
            f"weight is not curvature-bounded by C={C:.6g}: "
            f"grid minimum eigenvalue {min_eig:.3e}"
        )
    lhs = C * m.data.inverse_trace() + m.data.contract(H)
    rhs = (C * m.Phi.spec.n + laplacian) / ((1.0 + m.eps) * m.q)
    return lhs - rhs


def _trace_identity_defect(m: _RungMetric) -> float:
    """Sup defect of ``trace(g^{-1} H(Phi)) = n - (1+eps) trace(g^{-1})``.

    Both sides are computed independently from one ``_RungMetric`` (the
    Hessian of ``Phi`` and the adjugate data of ``g``); the identity is pure
    linear algebra, so the defect is round-off only.
    """
    lhs = m.data.contract(m.hessian)
    rhs = m.Phi.spec.n - (1.0 + m.eps) * m.data.inverse_trace()
    return float(np.max(np.abs(lhs - rhs)))


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(x, y, 1)[0])


def c0_uniformity(states) -> Verdict:
    """``uniform-bound``: uniform boundedness of ``sup |phi_eps|`` down the
    ladder, each rung's ``sup_phi`` diagnostic.

    Holds when every rung's sup norm stays within 25 percent of the first
    rung's and the least-squares slope against ``-log eps`` does not exceed
    0.01 per e-fold.  Unbounded potentials fail the slope test long before
    the ladder ends.
    """
    if short := _too_short("uniform-bound", states):
        return short
    sups = np.array([s.diagnostics["sup_phi"] for s in states])
    eps = np.array([s.eps for s in states])
    first = sups[0]
    deviation = np.abs(sups - first)
    worst = int(np.argmax(deviation))
    slope = _fit_slope(-np.log(eps), sups)
    return _decide(
        "uniform-bound",
        f"sup norms within 25% of first rung ({first:.6g}), "
        f"slope {slope:.3e} per e-fold",
        (
            bool(np.all(deviation <= 0.25 * first + 1e-15)),
            f"rung eps={eps[worst]:g} has sup {sups[worst]:.6g} vs first {first:.6g}",
        ),
        (slope <= 0.01, f"slope {slope:.3e} exceeds 0.01 per e-fold"),
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
    """``weighted-second-order``: uniformity of the weighted second-order
    quantity down the ladder.

    Per rung the quantity is ``sup q * exp(psi2_hat - 2 C Phi)`` over grid
    points at least one spacing away from the singular centers, where
    ``psi2_hat`` is the sharp weight (grid-floored at its poles) held fixed
    across rungs and ``Phi = phi + rho``: each state's ``sharp_weighted_sup``,
    as :meth:`_LadderEstimates.measure` took it.  Holds when every rung
    stays within a factor 2 of the first and the relative least-squares
    slope against ``-log eps`` is at most 0.05 per e-fold.  The unweighted
    trace blows up along the ladder in singular scenarios; only the weighted
    quantity can stay uniform.
    """
    if short := _too_short("weighted-second-order", states):
        return short
    vals = np.array([s.diagnostics["sharp_weighted_sup"] for s in states])
    eps = np.array([s.eps for s in states])
    first = vals[0]
    ratio = vals / first
    worst = int(np.argmax(ratio))
    slope = _fit_slope(-np.log(eps), ratio)
    return _decide(
        "weighted-second-order",
        f"weighted second-order supremum within factor 2 of first rung "
        f"({first:.6g}), relative slope {slope:.3e} per e-fold",
        (
            bool(np.all(ratio <= 2.0)),
            f"rung eps={eps[worst]:g} reaches {ratio[worst]:.3g} x first rung",
        ),
        (slope <= 0.05, f"relative slope {slope:.3e} exceeds 0.05 per e-fold"),
        witness=(
            ("worst_eps", float(eps[worst])),
            ("worst_ratio", float(ratio[worst])),
            ("first_sup", float(first)),
            ("relative_slope", slope),
        ),
    )


_FINAL_DELTA_BOUND = 1e-2


def delta_trend(states) -> Verdict:
    """``normalization``: decay of the mass-restoring constants down the
    ladder.

    Holds when the final ``|delta_eps|`` is at most ``1e-2`` and the
    absolute values do not increase over the last three rungs.
    """
    if short := _too_short("normalization", states):
        return short
    deltas = [abs(s.delta_eps) for s in states]
    tail = deltas[-3:]
    return _decide(
        "normalization",
        f"final |delta| {deltas[-1]:.3e} <= {_FINAL_DELTA_BOUND:g}, "
        f"non-increasing over last 3 rungs",
        (
            deltas[-1] <= _FINAL_DELTA_BOUND,
            f"final |delta| {deltas[-1]:.3e} exceeds {_FINAL_DELTA_BOUND:g}",
        ),
        (
            all(b <= a * (1.0 + 1e-12) + 1e-15 for a, b in zip(tail, tail[1:])),
            f"|delta| not decreasing over last 3 rungs: {tail}",
        ),
        witness=(("final_delta", deltas[-1]), ("tail_start", tail[0])),
    )


def _admissible_legs(spec, masks):
    """Yield ``(shift, separation, pairs)`` for each Hoelder stencil leg that
    some exclusion mask admits.

    Legs run along one representative of each antipodal pair of lattice
    directions in ``{-1,0,1}^d`` at one, two and four grid spacings, capped
    at separation 1/4, the injectivity scale of the periodic distance.
    ``pairs[i]`` marks the points ``x`` whose pair ``(x, x + d)`` keeps
    ``masks[i]`` at both ends, or is ``None`` where that mask admits no pair.
    """
    axes = tuple(range(spec.num_axes))
    for v in product((-1, 0, 1), repeat=spec.num_axes):
        if next((c for c in v if c != 0), 0) <= 0:  # zero, or an antipodal twin
            continue
        vnorm = float(np.linalg.norm(v))
        for m in (1, 2, 4):
            separation = m * spec.h * vnorm
            if separation > 0.25:
                continue
            shift = tuple(-m * c for c in v)
            pairs = [keep & np.roll(keep, shift, axis=axes) for keep in masks]
            pairs = [p if p.any() else None for p in pairs]
            if any(p is not None for p in pairs):
                yield shift, separation, pairs


def _check_radius(spec, radius: float) -> None:
    if not radius >= 2.0 * spec.h * (1.0 - 1e-12):  # nan fails too
        raise ValueError(
            f"exclusion radius must be at least 2h = {2 * spec.h:g}, got {radius:g}"
        )


def _seminorms(phi: GridField, gamma: float, radii, masks) -> tuple[float, ...]:
    """The seminorms of :func:`holder_seminorm`, one per radius of ``radii``
    on its exclusion mask, already built: one gradient, one difference per
    leg for all radii."""
    if not 0 < gamma < 1:
        raise ValueError(f"Hoelder exponent must lie in (0,1), got {gamma}")
    for radius in radii:
        _check_radius(phi.spec, radius)
    grad = spectral_gradient(phi)
    axes = tuple(range(phi.spec.num_axes))
    best = [-np.inf] * len(masks)
    for shift, separation, pairs in _admissible_legs(phi.spec, masks):
        diff2 = sum((np.roll(comp, shift, axis=axes) - comp) ** 2 for comp in grad)
        for i, valid in enumerate(pairs):
            if valid is not None:  # sqrt and division are monotone: take the top diff2
                top = np.sqrt(np.max(diff2, where=valid, initial=0.0)) / separation**gamma
                best[i] = max(best[i], float(top))
    for radius, value in zip(radii, best):
        if value == -np.inf:
            raise ValueError(
                f"exclusion radius {radius:g} leaves no admissible "
                f"stencil pairs on an N={phi.spec.N} grid"
            )
    return tuple(best)


def holder_seminorm(
    phi: GridField, gamma: float, exclusion_radius: float, singular=()
) -> float:
    """Discrete Hoelder seminorm of the gradient at one exclusion radius.

    The maximum of ``|grad phi(x + d) - grad phi(x)| / |d|^gamma`` over the
    stencil legs ``d``, restricted to pairs whose endpoints both keep
    ``exclusion_radius`` from every singular center (a tuple of center
    coordinates), so it is monotone non-increasing in the radius.  The
    radius must be at least two grid spacings, so the shortest legs cannot
    straddle a pole; raises when it empties the stencil.
    """
    mask = _exclusion_mask(phi.spec, singular, exclusion_radius)
    return _seminorms(phi, gamma, (exclusion_radius,), (mask,))[0]


def has_admissible_pairs(spec, exclusion_radius: float, singular=()) -> bool:
    """Whether :func:`holder_seminorm` has any stencil pair at this exclusion
    (a radius below 2h raises, as there)."""
    _check_radius(spec, exclusion_radius)
    keep = _exclusion_mask(spec, singular, exclusion_radius)
    return next(_admissible_legs(spec, (keep,)), None) is not None


# interior-regularity reads the last rungs of a ladder: the outer-radius
# seminorm of each, and the inner-radius seminorm and the Sobolev norm of the
# final one.
_HOLDER_RUNGS = 3


def _holder_radii(index: int, rungs: int) -> int:
    """How many Hoelder radii rung ``index`` of a ladder of ``rungs``
    measures: the outer one on each of the last three rungs, the inner one
    too on the final rung, and none on a ladder too short for
    interior-regularity to judge."""
    if rungs < _HOLDER_RUNGS or index < rungs - _HOLDER_RUNGS:
        return 0
    return 2 if index == rungs - 1 else 1


@dataclass(frozen=True)
class _HolderStencil:
    """The Hoelder stencil of one ladder, built once: the outer and the inner
    exclusion radius, the exclusion mask of each (the outer one is also
    where the Sobolev norm is read), and the exponents of the seminorm and
    the norm.  The masks are read-only, since concurrent rungs share them;
    each pass pairs them along the legs of :func:`_admissible_legs` anew."""

    gamma: float
    q: float
    radii: tuple[float, float]
    masks: tuple[np.ndarray, np.ndarray]

    @classmethod
    def build(cls, spec, settings: EstimateSettings, singular) -> "_HolderStencil":
        radii = (settings.exclusion_outer * spec.h, settings.exclusion_inner * spec.h)
        masks = tuple(_read_only(_exclusion_mask(spec, singular, r)) for r in radii)
        return cls(settings.holder_gamma, settings.sobolev_q, radii, masks)


def _holder_pass(stencil: _HolderStencil, phi: GridField, radii: int) -> dict:
    """One rung's part of interior-regularity, at the first ``radii`` radii
    of ``stencil``: ``holder_outer``, and at both radii also
    ``holder_inner`` and ``sobolev_norm``, the volume-weighted ``L^q`` norm
    of the complex Hessian (pointwise Frobenius) outside the outer radius."""
    seminorms = _seminorms(phi, stencil.gamma, stencil.radii[:radii], stencil.masks[:radii])
    measured = {"holder_outer": seminorms[0]}
    if radii == 2:
        spec, q = phi.spec, stencil.q
        frob = _frobenius(complex_hessian(phi))
        cell = spec.h**spec.num_axes
        measured["holder_inner"] = seminorms[1]
        measured["sobolev_norm"] = float(
            (np.sum(frob[stencil.masks[0]] ** q) * cell) ** (1.0 / q)
        )
    return measured


@dataclass(frozen=True)
class _LadderEstimates:
    """What the estimates of every rung of one ladder read, built once, and
    the one measurement of a rung, :meth:`measure`: ``C`` (configured, else
    ``hessian_lower_bound(psi2)`` from the sharp ``psi2``), ``rho``, whose
    shift ``Phi = phi + rho`` every estimate reads, the background weight
    ``eta = -rho`` (see ``pluripotential._certified``), the pole mask ``keep``
    of ``sharp_weighted_sup`` and the Hoelder ``stencil``.  ``sharp`` holds both
    models at smoothing 0, sampled once: ``psi2``'s is the sharp weight, and
    the ladder shares both as the reference of the smoothing guarantee and
    the mass check.  Every array is read by every rung, and by concurrent
    rungs in ``rebuild_states``, so each is marked read-only.
    """

    rungs: int
    C: float
    rho: np.ndarray
    eta: tuple
    keep: np.ndarray
    stencil: _HolderStencil
    sharp: tuple[GridField, GridField]

    @classmethod
    def build(cls, scenario) -> "_LadderEstimates":
        # The sharp fields are sampled last, above the temporaries of ``eta``
        # in glibc's heap: the verify work of pole-below, imports left out,
        # then takes 14.9k minor page faults, against 15.4k with them sampled
        # before ``rho``.
        # ``C`` is taken from the sharp ``psi2`` already sampled: the same
        # bits as ``hessian_lower_bound(psi2)``, one sampling.
        alpha, psi2 = scenario.alpha, scenario.psi2
        rho = _read_only(alpha.rho().values)
        H, laplacian = _hessian_and_trace(alpha.eta())
        eta = _certified((_read_only(H), _read_only(laplacian)), alpha.t + 1e-6)
        keep = _read_only(_pole_mask(psi2))
        stencil = _HolderStencil.build(
            scenario.spec, scenario.settings, scenario.singular_centers
        )
        sharp = (evaluate(scenario.psi1), evaluate(psi2))
        for field in sharp:
            _read_only(field.values)
        C = scenario.C_config
        if C is None:
            C = _curvature_bound(complex_hessian(sharp[1]))
        return cls(len(scenario.eps_schedule), C, rho, eta, keep, stencil, sharp)

    def measure(self, index: int, rung, phi: GridField) -> dict:
        """Every estimate scalar of rung ``index`` of the ladder, solved as
        ``phi``: those of the metric, then, once its fields are released,
        the rung's Hoelder pass at the radii :func:`_holder_radii` gives it.
        ``rung`` is the ``continuation`` rung: its ``eps``, form ``a``,
        density ``F``, smoothed ``p2`` and its ``weight2``, certified while
        smoothing, so no eigenvalue is taken here."""
        diagnostics = self._metric_diagnostics(rung, phi)
        radii = _holder_radii(index, self.rungs)
        if radii:
            diagnostics.update(_holder_pass(self.stencil, phi, radii))
        return diagnostics

    def _metric_diagnostics(self, rung, phi: GridField) -> dict:
        """The estimate scalars measured on ``Phi = phi + rho``, and ``sup |phi|``.

        One metric ``(1 + eps) I + H(Phi)`` serves the shift identity (its
        determinant against ``det(a + H(phi))``) and the trace identity, the
        log-trace inequality, both weighted second-order quantities and the
        convexity comparison for both weights (the rung's ``psi2_eps`` and
        the ladder's ``eta = -rho``).  Raises ``EstimateError`` or
        ``PositivityError`` when a precondition fails.
        """
        spec, C, eps = phi.spec, self.C, rung.eps
        m = _RungMetric.build(GridField(spec, phi.values + self.rho), eps)
        # Each residual field is reduced as soon as it is made, and the log
        # density released, so no two of them are alive at once.
        f_log = GridField(spec, np.log(rung.F.values) - spec.n * np.log1p(eps))
        min_siu = float(np.min(_siu_residual(m, f_log, C)))
        del f_log
        comparison = min(
            float(np.min(_comparison_residual(m, rung.weight2))),
            float(np.min(_comparison_residual(m, self.eta))),
        )
        shift_defect = float(np.max(np.abs(ma_density(rung.a, phi).values - m.data.det)))
        return {
            "shift_defect": shift_defect,
            "min_siu_residual": min_siu,
            "weighted_c2_sup": _weighted_sup(m, rung.p2.values, C),
            "sharp_weighted_sup": _weighted_sup(m, self.sharp[1].values, C, self.keep),
            "trace_defect": _trace_identity_defect(m),
            "comparison_min": comparison,
            "q_sup": float(np.max(m.q)),
            "sup_phi": float(np.max(np.abs(phi.values))),
        }


_SPREAD_BOUND = 1.5


def interior_regularity(states, settings: EstimateSettings, n: int) -> Verdict:
    """``interior-regularity`` over the last three rungs of a ladder, from
    the Hoelder numbers :meth:`_LadderEstimates.measure` took on each.

    Holds when the Hoelder seminorm of the gradient outside the outer
    exclusion radius (:func:`holder_seminorm`, each rung's ``holder_outer``)
    spreads by at most a factor 1.5 over those rungs.  Reported as data, not
    gated, since their magnitudes depend on resolution and geometry: the
    final rung's seminorm at both radii and their ratio; the volume-weighted
    ``L^q`` norm of its complex Hessian (pointwise Frobenius) outside the
    outer radius and the seminorm-to-norm ratio, the two sides of the
    compactness embedding; and the margins ``q (1 - gamma) - d`` for the
    real dimension ``2n`` and the complex ``n``, positive where second-order
    integrability upgrades to Hoelder continuity of the gradient.
    """
    if short := _too_short("interior-regularity", states):
        return short
    outer = [s.diagnostics["holder_outer"] for s in states[-_HOLDER_RUNGS:]]
    final = states[-1].diagnostics
    outer_final, inner_final = final["holder_outer"], final["holder_inner"]
    sobolev = final["sobolev_norm"]
    if sobolev > 0:
        to_sobolev = outer_final / sobolev
    else:
        to_sobolev = 0.0 if outer_final == 0 else float("inf")
    lo, hi = min(outer), max(outer)
    if hi <= 1e-12:  # identically flat potential: nothing to measure
        spread = 1.0
    elif lo == 0.0:
        spread = float("inf")
    else:
        spread = hi / lo
    if outer_final > 0:
        concentration = inner_final / outer_final
    else:
        concentration = 1.0 if inner_final <= 1e-12 else float("inf")

    margin = settings.sobolev_q * (1.0 - settings.holder_gamma)
    return _decide(
        "interior-regularity",
        f"outer-radius seminorm stable over last 3 rungs "
        f"(spread {spread:.3g} <= {_SPREAD_BOUND:g})",
        (
            spread <= _SPREAD_BOUND,
            f"outer-radius seminorm spread {spread:.3g} exceeds {_SPREAD_BOUND:g}",
        ),
        witness=(("spread", float(spread)),),
        data=(
            ("outer_seminorm_final", float(outer_final)),
            ("inner_seminorm_final", float(inner_final)),
            ("concentration_ratio", float(concentration)),
            ("sobolev_norm_final", sobolev),
            ("holder_to_sobolev_ratio", float(to_sobolev)),
            ("embedding_margin_real_dimension", float(margin - 2 * n)),
            ("embedding_margin_complex_dimension", float(margin - n)),
        ),
    )


_TRACE_DEFECT_BOUND = 1e-10
_SIU_FLOOR = -1e-4
_COMPARISON_FLOOR = -1e-8
_UNWEIGHTED_GROWTH_FACTOR = 5.0


def _bound(name: str, value: float, bound: float, kind: str) -> Verdict:
    """A scalar against a one-sided bound (``max``: value <= bound, ``min``:
    value >= bound)."""
    rel = "<=" if kind == "max" else ">="
    return _decide(
        name,
        f"{value:.6g} {rel} {bound:g}",
        (
            value <= bound if kind == "max" else value >= bound,
            f"{value:.6g} violates {rel} {bound:g}",
        ),
        witness=((name, float(value)),),
    )


def _skoda(scenario) -> Verdict:
    """The numeric integrability verdict at each pole of ``psi2`` against the
    analytic dichotomy; a contradiction at any pole outweighs a borderline
    margin at another."""
    data = []
    borderline = contradicted = False
    for i, pole in enumerate(scenario.psi2.poles):
        result = skoda_integrability(scenario.psi2, scenario.p, pole.center)
        data.append((f"margin_{i}", float(result.margin)))
        data.append((f"increment_ratio_{i}", float(result.increment_ratio)))
        if result.borderline or result.numeric_verdict == "marginal":
            borderline = True
        elif (result.numeric_verdict == "integrable") != result.integrable:
            contradicted = True
    name, data = "singular-integrability", tuple(data)
    if borderline and not contradicted:
        return Verdict(name, INCONCLUSIVE, "borderline dichotomy margin", data=data)
    return _decide(
        name,
        "numeric verdict matches analytic dichotomy at every pole",
        (not contradicted, "numeric verdict contradicts analytic dichotomy"),
        data=data,
    )


def _density(scenario) -> Verdict:
    check = density_lp_check(scenario.psi1, scenario.psi2, scenario.p)
    data = (
        ("lp_norm", float(check.norm)),
        ("refined_lp_norm", float(check.refined_norm)),
        ("refinement_ratio", float(check.refinement_ratio)),
    )
    return _decide(
        "density-hypothesis",
        f"L^p norm stable under refinement (ratio {check.refinement_ratio:.4g})",
        (
            not check.flagged,
            f"L^p norm grows by {check.refinement_ratio:.3g} under refinement — "
            f"density hypothesis at risk",
        ),
        witness=data,
        data=data,
    )


def record_verdicts(scenario, states) -> tuple[Verdict, ...]:
    """Every verdict of the record of ``states``, solved or rebuilt for a
    ``continuation.Scenario``, in one fixed order: the ladder trends, the
    one-sided bounds on the worst per-rung diagnostic, interior regularity,
    the two checks only poles of ``psi2`` have, and the density hypothesis."""
    verdicts = [delta_trend(states), c0_uniformity(states), c2_uniformity(states)]
    for name, key, bound, kind in (
        ("trace-identity", "trace_defect", _TRACE_DEFECT_BOUND, "max"),
        # Exact algebra, but spectral round-off scales with the largest Hessian
        # multiplier (~ N^2); ten solver tolerances is the operative bound.
        ("shift-identity", "shift_defect", 10.0 * scenario.tol, "max"),
        ("inequality-main", "min_siu_residual", _SIU_FLOOR, "min"),
        ("inequality-comparison", "comparison_min", _COMPARISON_FLOOR, "min"),
    ):
        worst = (max if kind == "max" else min)(s.diagnostics[key] for s in states)
        verdicts.append(_bound(name, worst, bound, kind))
    verdicts.append(interior_regularity(states, scenario.settings, scenario.spec.n))
    if scenario.psi2.poles:
        name, q_sups = "unweighted-growth", [s.diagnostics["q_sup"] for s in states]
        growth = _bound(name, max(q_sups) / q_sups[0], _UNWEIGHTED_GROWTH_FACTOR, "min")
        verdicts.append(_too_short(name, states) or growth)
        verdicts.append(_skoda(scenario))
    verdicts.append(_density(scenario))
    return tuple(verdicts)
