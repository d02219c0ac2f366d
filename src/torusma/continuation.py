"""Continuation down the regularization ladder.

A scenario couples a degenerate background family, a pair of model potentials
forming the density ``exp(psi1 - psi2)``, an integrability exponent ``p > 1``,
and a decreasing schedule of regularization parameters.  At each rung ``eps``
the solved equation is

    det(a + eps I + H(phi_eps)) = (1 + delta_eps) exp(psi1_eps - psi2_eps),

where ``psi_j_eps`` are the smoothed potentials at the same ``eps`` and the
scalar ``delta_eps`` restores exact mass balance rung by rung.  Solutions are
mean-zero, warm-started down the ladder, and read in the shifted potential
``Phi = phi + rho`` in which the background becomes the constant form
``(1 + eps) I`` — the frame every curvature-type estimate uses.  What does
not depend on the rung is built once per ladder (``_Ladder``); a state keeps
``phi`` and the ladder's ``rho`` and derives ``Phi``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import estimates
from .geometry import (
    GridField,
    TorusSpec,
    _hessian_and_trace,
    complex_hessian,
    integrate,
)
from .ma import (
    AlphaModel,
    IterationLimitError,
    PositivityError,
    ma_density,
    solve_ma_detailed,
)
from .pluripotential import (
    QuasiPshModel,
    RegularizationContractError,
    _curvature_bound,
    _regularize,
    evaluate,
    hessian_lower_bound,
    regularize,
)

__all__ = [
    "Scenario",
    "ContinuationState",
    "ContinuationError",
    "enforce_mass_balance",
    "delta_eps",
    "run_continuation",
    "rung_diagnostics",
    "smoothed_potentials",
]

_BALANCE_RTOL = 1e-10

# What a rung raises by design: solver and smoothing failures, and
# ``ValueError`` for rejected inputs (incompatible masses, estimate
# preconditions, non-finite fields).  Anything else is a programming error
# and propagates unwrapped.
_RUNG_ERRORS = (
    PositivityError,
    IterationLimitError,
    RegularizationContractError,
    ValueError,
    MemoryError,
)


@dataclass(frozen=True)
class Scenario:
    """A full continuation experiment in closed form."""

    name: str
    spec: TorusSpec
    alpha: AlphaModel
    psi1: QuasiPshModel
    psi2: QuasiPshModel
    p: float
    eps_schedule: tuple[float, ...]
    tol: float = 1e-10
    C_config: float | None = None

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError(f"integrability exponent must exceed 1, got {self.p}")
        sched = tuple(float(e) for e in self.eps_schedule)
        if not sched:
            raise ValueError("schedule must contain at least one value")
        if sched[0] > 0.5 or any(e <= 0 for e in sched):
            raise ValueError("schedule values must lie in (0, 0.5]")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("schedule must be strictly decreasing")
        for part in (self.alpha.spec, self.psi1.spec, self.psi2.spec):
            if part != self.spec:
                raise ValueError("all scenario components must share one grid")
        object.__setattr__(self, "eps_schedule", sched)

    @property
    def singular_centers(self) -> tuple[tuple[float, ...], ...]:
        """The pole centers of ``psi2``, then of ``psi1``: the points the
        Hoelder stencil keeps its exclusion radius from."""
        return tuple(p.center for p in self.psi2.poles + self.psi1.poles)

    def resolved_C(self) -> float:
        """The constant ``C`` of the log-trace inequality and of the weighted
        second-order quantities ``sup q * exp(psi2 - 2 C Phi)``.

        Defaults to the certified curvature bound of ``psi2`` (the flat torus
        contributes no curvature of its own); a configured override wins.
        """
        if self.C_config is not None:
            return self.C_config
        return hessian_lower_bound(self.psi2)


@dataclass(frozen=True)
class ContinuationState:
    """One solved rung of the ladder; ``rho`` is shared by every rung, so a
    state holds one grid field of its own and ``Phi`` is derived on access."""

    eps: float
    delta_eps: float
    phi: GridField
    rho: np.ndarray
    newton_steps: int
    diagnostics: dict

    @property
    def Phi(self) -> GridField:
        """The shifted potential ``phi + rho``."""
        return GridField(self.phi.spec, self.phi.values + self.rho)


class ContinuationError(RuntimeError):
    """A rung failed; completed earlier rungs are attached."""

    def __init__(self, msg: str, states: list, rung: int, eps: float):
        super().__init__(msg)
        self.states = states
        self.rung = rung
        self.eps = eps


def _mass_alpha(alpha: AlphaModel, eps: float = 0.0) -> float:
    return integrate(GridField(alpha.spec, alpha.coefficients(eps).det()))


def _mass_density(f1: GridField, f2: GridField) -> float:
    """Mean of the density ``exp(f1 - f2)`` over the grid."""
    return float(np.exp(f1.values - f2.values).mean())


def enforce_mass_balance(scenario: Scenario) -> Scenario:
    """Shift ``psi1`` by the constant equating the two total masses.

    The constant is ``kappa = log(mass of det a / mass of exp(psi1 - psi2))``,
    with pole values grid-floored; after the shift the masses agree to
    ``1e-10`` relative.
    """
    mass_a = _mass_alpha(scenario.alpha)
    sharp2 = evaluate(scenario.psi2)
    mass_d = _mass_density(evaluate(scenario.psi1), sharp2)
    if not (np.isfinite(mass_a) and np.isfinite(mass_d)) or mass_a <= 0 or mass_d <= 0:
        raise ValueError(
            f"masses must be finite and positive, got {mass_a} and {mass_d}"
        )
    if abs(mass_d - mass_a) <= _BALANCE_RTOL * abs(mass_a):
        return scenario
    kappa = float(np.log(mass_a / mass_d))
    balanced = replace(scenario, psi1=scenario.psi1.shifted(kappa))
    residual = abs(_mass_density(evaluate(balanced.psi1), sharp2) - mass_a) / mass_a
    if residual > _BALANCE_RTOL:
        raise ValueError(f"balance residual {residual:.3e} exceeds {_BALANCE_RTOL}")
    return balanced


def delta_eps(scenario: Scenario, eps: float) -> float:
    """Mass-restoring constant at rung ``eps``.

    Defined by ``(1 + delta) * int exp(psi1_eps - psi2_eps) = int det(a + eps I)``
    with both potentials smoothed at the same ``eps`` as the background shift.
    """
    p1 = regularize(scenario.psi1, eps)
    p2 = regularize(scenario.psi2, eps)
    return _delta(scenario.alpha, eps, p1, p2)


def _delta(alpha: AlphaModel, eps: float, p1: GridField, p2: GridField) -> float:
    return _mass_alpha(alpha, eps) / _mass_density(p1, p2) - 1.0


def _rung_density(delta: float, p1: GridField, p2: GridField) -> GridField:
    """Right-hand side ``(1 + delta) exp(psi1_eps - psi2_eps)`` of one rung."""
    return GridField(p1.spec, (1.0 + delta) * np.exp(p1.values - p2.values))


def _shift_defect(
    phi: GridField, det_g: np.ndarray, alpha: AlphaModel, eps: float
) -> float:
    """Sup difference of the two independently computed rung determinants.

    ``det(a + eps I + H(phi))`` uses the closed-form coefficients, ``det_g``
    is ``det((1+eps) I + H(Phi))`` from the spectral Hessian of the shifted
    potential; exact algebra says they agree, so the defect is round-off.
    """
    lhs = ma_density(alpha.coefficients(eps), phi)
    return float(np.max(np.abs(lhs.values - det_g)))


@dataclass(frozen=True)
class _Ladder:
    """What every rung of a scenario shares.  ``sharp`` holds the models at
    smoothing 0, sampled once: the reference of the smoothing guarantee, the
    mass check and the sharp weight of ``sharp_weighted_sup`` (read on
    ``keep``, away from the poles of ``psi2``)."""

    scenario: Scenario
    C: float
    rho: np.ndarray
    eta: tuple
    keep: np.ndarray
    sharp: tuple[GridField, GridField]

    @classmethod
    def build(cls, scenario: Scenario) -> "_Ladder":
        # The sharp fields are sampled last, above the temporaries of ``eta``
        # in glibc's heap: a verify of pole-below then takes 201k minor page
        # faults, against 264k with them sampled before ``rho``.
        # ``C`` defaults to ``resolved_C``'s curvature bound, taken here from
        # the sharp ``psi2`` already sampled: the same bits, one sampling.
        alpha, psi1, psi2 = scenario.alpha, scenario.psi1, scenario.psi2
        rho = alpha.rho().values
        eta = estimates._weight(_hessian_and_trace(alpha.eta()), alpha.t + 1e-6)
        keep = estimates._pole_mask(psi2)
        sharp = (evaluate(psi1), evaluate(psi2))
        C = scenario.C_config
        if C is None:
            C = _curvature_bound(complex_hessian(sharp[1]))
        return cls(scenario, C, rho, eta, keep, sharp)


def smoothed_potentials(ladder: _Ladder, eps: float):
    """``psi1`` and ``psi2`` regularized at ``eps``, and ``psi2``'s comparison
    weight: its Hessian from guarantee (b), and the constant
    ``hessian_lower_bound(psi2, s_min=sqrt(eps))`` certified while smoothing."""
    scenario = ladder.scenario
    p1 = _regularize(scenario.psi1, eps, ladder.sharp[0])[0]
    p2, C_cert, calculus = _regularize(scenario.psi2, eps, ladder.sharp[1], certify=True)
    return p1, p2, estimates._weight(calculus, C_cert)


def rung_diagnostics(
    ladder: _Ladder, eps: float, delta: float, phi: GridField, p1, p2, weight2
) -> dict:
    """Every per-rung estimate scalar of a solved rung, measured on ``phi + rho``.

    ``p1``, ``p2`` and ``weight2`` come from :func:`smoothed_potentials` and
    ``delta`` is the rung's mass-restoring constant.  One metric
    ``(1 + eps) I + H(Phi)`` serves the shift and trace identities, the
    log-trace inequality, both weighted second-order quantities and the
    convexity comparison for both weights (``p2`` and ``eta = -rho``).
    ``run`` and ``verify`` both compute their diagnostics here, through
    ``_rung_state``.  Raises ``EstimateError`` or ``PositivityError`` when a
    precondition fails.
    """
    spec, C = ladder.scenario.spec, ladder.C
    Phi = GridField(spec, phi.values + ladder.rho)
    m = estimates._RungMetric.build(Phi, eps)
    F = _rung_density(delta, p1, p2)
    f_log = GridField(spec, np.log(F.values) - spec.n * np.log1p(eps))
    siu = estimates._siu_residual(m, f_log, C)
    comparison = min(
        float(np.min(estimates._comparison_residual(m, weight2))),
        float(np.min(estimates._comparison_residual(m, ladder.eta))),
    )
    return {
        "shift_defect": _shift_defect(phi, m.data.det, ladder.scenario.alpha, eps),
        "siu_min_residual": float(np.min(siu)),
        "weighted_c2_sup": estimates._weighted_sup(m, p2.values, C),
        "sharp_weighted_sup": estimates._weighted_sup(
            m, ladder.sharp[1].values, C, ladder.keep
        ),
        "trace_defect": estimates._trace_identity_defect(m),
        "comparison_min": comparison,
        "q_sup": float(np.max(m.q)),
    }


def _rung_state(
    ladder: _Ladder, eps: float, delta: float, phi: GridField, steps: int, smoothed, solver
) -> ContinuationState:
    """The one constructor of states, solved or stored: ``smoothed`` is the
    rung's :func:`smoothed_potentials`, ``solver`` the solver's own keys."""
    return ContinuationState(
        eps=eps,
        delta_eps=delta,
        phi=phi,
        rho=ladder.rho,
        newton_steps=steps,
        diagnostics={**solver, **rung_diagnostics(ladder, eps, delta, phi, *smoothed)},
    )


def run_continuation(scenario: Scenario) -> list[ContinuationState]:
    """Solve every rung of the schedule, warm-starting each from the last.

    Preconditions: the scenario is mass-balanced.  Each state carries the
    solver's counts (``gmres_info_nonzero``, ``coarse_newton_steps`` and
    ``nested_fallbacks``, see :class:`~torusma.ma.SolveResult`) and the
    per-rung estimate scalars of :func:`rung_diagnostics`, through the
    constructor that ``report.rebuild_states`` uses on stored fields.  A rung
    that fails by design (see ``_RUNG_ERRORS``) raises ``ContinuationError``
    with all completed states attached; any other exception propagates as is.
    """
    ladder = _Ladder.build(scenario)
    mass_a = _mass_alpha(scenario.alpha)
    mass_d = _mass_density(*ladder.sharp)
    if abs(mass_d - mass_a) > 1e-8 * abs(mass_a):
        raise ValueError(
            f"scenario is not mass-balanced ({mass_d:.12g} vs {mass_a:.12g}); "
            f"apply enforce_mass_balance first"
        )
    states: list[ContinuationState] = []
    for rung, eps in enumerate(scenario.eps_schedule):
        try:
            p1, p2, weight2 = smoothed_potentials(ladder, eps)
            delta = _delta(scenario.alpha, eps, p1, p2)
            result = solve_ma_detailed(
                scenario.alpha.coefficients(eps),
                _rung_density(delta, p1, p2),
                phi0=states[-1].phi if states else None,
                tol=scenario.tol,
            )
            states.append(
                _rung_state(
                    ladder, eps, delta, result.phi, result.newton_steps, (p1, p2, weight2),
                    {
                        "gmres_info_nonzero": result.gmres_info_nonzero,
                        "coarse_newton_steps": result.coarse_newton_steps,
                        "nested_fallbacks": result.nested_fallbacks,
                    },
                )
            )
        except _RUNG_ERRORS as exc:
            raise ContinuationError(
                f"rung {rung} (eps={eps:g}) failed: {exc}", states, rung, eps
            ) from exc
    return states
