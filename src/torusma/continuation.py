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
``(1 + eps) I`` — the frame every curvature-type estimate uses.  A rung
depends on the scenario, its sharp models and ``eps`` alone, and is built by
one call, ``_Rung.build``, that smooths both potentials and balances the
masses; what the estimates of every rung read is built once per ladder, with
the sharp models, by ``estimates``.  A state keeps ``phi`` and the ladder's
``rho`` and derives ``Phi``.
Solved (:func:`run_continuation`) or rebuilt from stored fields
(:func:`rebuild_states`), every state is built here; ``estimates`` measures it.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import estimates
from .geometry import GridField, HermitianFormField, TorusSpec, integrate
from .ma import (
    AlphaModel,
    IterationLimitError,
    PositivityError,
    SolveResult,
    solve_ma_detailed,
)
from .pluripotential import (
    QuasiPshModel,
    RegularizationContractError,
    _regularize,
    evaluate,
)

__all__ = [
    "Scenario",
    "ContinuationState",
    "ContinuationError",
    "enforce_mass_balance",
    "delta_eps",
    "run_continuation",
    "rebuild_states",
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
    settings: estimates.EstimateSettings = estimates.EstimateSettings()

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"integrability exponent must exceed 1, got {self.p}")
        sched = tuple(float(e) for e in self.eps_schedule)
        if not sched:
            raise ValueError("schedule must contain at least one value")
        if not all(0 < e <= 0.5 for e in sched):
            raise ValueError("schedule values must lie in (0, 0.5]")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("schedule must be strictly decreasing")
        if not self.tol > 0:
            raise ValueError(f"solver tolerance must be positive, got {self.tol}")
        if self.C_config is not None and not self.C_config >= 0:
            raise ValueError(f"configured C must be nonnegative, got {self.C_config}")
        for part in (self.alpha.spec, self.psi1.spec, self.psi2.spec):
            if part != self.spec:
                raise ValueError("all scenario components must share one grid")
        object.__setattr__(self, "eps_schedule", sched)

    @property
    def singular_centers(self) -> tuple[tuple[float, ...], ...]:
        """The pole centers of ``psi2``, then of ``psi1``: the points the
        Hoelder stencil keeps its exclusion radius from."""
        return tuple(p.center for p in self.psi2.poles + self.psi1.poles)


@dataclass(frozen=True)
class ContinuationState:
    """One solved rung of the ladder; ``rho`` and the constant ``C`` are the
    ladder's, shared by every rung, so a state holds one grid field of its
    own and ``Phi`` is derived on access.  ``solve`` is the rung's
    :class:`~torusma.ma.SolveResult`, sharing ``phi``; it is ``None`` for a
    state rebuilt from stored fields."""

    eps: float
    delta_eps: float
    phi: GridField
    rho: np.ndarray
    C: float
    newton_steps: int
    diagnostics: dict
    solve: SolveResult | None = None

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


def _mass(a: HermitianFormField) -> float:
    """Total mass ``int det a`` of a background form."""
    return integrate(GridField(a.spec, a.det()))


def _mass_density(f1: GridField, f2: GridField) -> float:
    """Mean of the density ``exp(f1 - f2)`` over the grid."""
    return float(np.exp(f1.values - f2.values).mean())


def enforce_mass_balance(scenario: Scenario) -> Scenario:
    """Shift ``psi1`` by the constant equating the two total masses.

    The constant is ``kappa = log(mass of det a / mass of exp(psi1 - psi2))``,
    with pole values grid-floored; after the shift the masses agree to
    ``1e-10`` relative.
    """
    mass_a = _mass(scenario.alpha.coefficients())
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
    with both potentials smoothed at the same ``eps`` as the background shift:
    the ``delta`` of the rung :func:`run_continuation` builds at ``eps``.
    """
    sharp = (evaluate(scenario.psi1), evaluate(scenario.psi2))
    return _Rung.build(scenario, sharp, eps).delta


@dataclass(frozen=True)
class _Rung:
    """One regularized problem ``det(a + H(phi)) = F``, each part computed once:
    the form ``a = alpha.coefficients(eps)``, the mass constant ``delta``,
    ``F = (1 + delta) exp(psi1_eps - psi2_eps)``, and ``p2 = psi2_eps`` with
    its comparison ``weight2``, certified while smoothing: its Hessian and
    half-Laplacian, ``C = hessian_lower_bound(psi2, s_min=sqrt(eps))`` and the
    one certificate guarantee (b) and the estimates read.  It reads the
    scenario, the sharp models and ``eps`` alone, not the schedule."""

    eps: float
    a: HermitianFormField
    delta: float
    F: GridField
    p2: GridField
    weight2: tuple

    @classmethod
    def build(cls, scenario: Scenario, sharp, eps: float, delta=None) -> "_Rung":
        """The rung at ``eps``, smoothed against ``sharp``, the scenario's
        ``psi1`` and ``psi2`` sampled at smoothing 0; ``delta`` balances the
        masses unless a stored value is given."""
        p1 = _regularize(scenario.psi1, eps, sharp[0])[0]
        p2, weight2 = _regularize(scenario.psi2, eps, sharp[1])
        a = scenario.alpha.coefficients(eps)
        density = np.exp(p1.values - p2.values)
        if delta is None:
            delta = _mass(a) / float(density.mean()) - 1.0
        F = GridField(scenario.spec, (1.0 + delta) * density)
        return cls(eps, a, delta, F, p2, weight2)


def _rung_state(
    measured, index: int, rung: _Rung, phi: GridField, steps: int, solve
) -> ContinuationState:
    """The one constructor of states, solved or stored: rung ``index`` of the
    ladder, measured by the ladder's estimates ``measured``; ``solve`` is the
    rung's ``SolveResult`` or ``None``."""
    return ContinuationState(
        eps=rung.eps,
        delta_eps=rung.delta,
        phi=phi,
        rho=measured.rho,
        C=measured.C,
        newton_steps=steps,
        diagnostics=measured.measure(index, rung, phi),
        solve=solve,
    )


def _solved_state(scenario: Scenario, measured, index: int, phi0) -> ContinuationState:
    """Rung ``index`` of the schedule solved from the warm start ``phi0`` and
    measured by the ladder's estimates ``measured``; the rung's fields die
    on return, with only the state left."""
    rung = _Rung.build(scenario, measured.sharp, scenario.eps_schedule[index])
    result = solve_ma_detailed(rung.a, rung.F, phi0=phi0, tol=scenario.tol)
    return _rung_state(measured, index, rung, result.phi, result.newton_steps, result)


def run_continuation(scenario: Scenario, keep=None) -> list:
    """Solve every rung of the schedule, warm-starting each from the last.

    Preconditions: the scenario is mass-balanced.  Each state keeps the
    rung's :class:`~torusma.ma.SolveResult` as ``solve``, with its counts and
    ``residual_history``, and the per-rung estimate scalars, through the
    constructor that :func:`rebuild_states` uses on stored fields.  Returns
    the states, or, when ``keep`` is given, what ``keep`` returns for each:
    it is called with each state as soon as it is built, before the next
    rung solves, and afterwards the loop holds only the state's ``phi``, as
    the next rung's warm start, so a caller that streams states away need
    not hold their fields.  Nothing here writes into a ``phi``.  A rung that
    fails by design (see ``_RUNG_ERRORS``) raises ``ContinuationError`` with
    the kept values of all completed rungs attached; any other exception
    propagates as is.
    """
    measured = estimates._LadderEstimates.build(scenario)
    mass_a = _mass(scenario.alpha.coefficients())
    mass_d = _mass_density(*measured.sharp)
    if abs(mass_d - mass_a) > 1e-8 * abs(mass_a):
        raise ValueError(
            f"scenario is not mass-balanced ({mass_d:.12g} vs {mass_a:.12g}); "
            f"apply enforce_mass_balance first"
        )
    kept, phi0 = [], None
    for index, eps in enumerate(scenario.eps_schedule):
        try:
            state = _solved_state(scenario, measured, index, phi0)
        except _RUNG_ERRORS as exc:
            raise ContinuationError(
                f"rung {index} (eps={eps:g}) failed: {exc}", kept, index, eps
            ) from exc
        phi0 = state.phi
        kept.append(state if keep is None else keep(state))
        del state
    return kept


def _workers(rungs: int) -> int:
    """Threads for rebuilding ``rungs`` rungs: one per CPU this process may
    run on, at most one per rung."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, rungs)


def rebuild_states(scenario: Scenario, eps, delta, steps, phi) -> list[ContinuationState]:
    """Continuation states from stored per-rung arrays, without solving.

    The arrays must describe one rung per schedule value, the stored ``eps``
    must be the schedule's, and every stored potential is validated as a
    grid field before any estimate runs (``ValueError`` otherwise); rung
    ``k`` is then built at the schedule's ``eps`` with its stored ``delta``
    and each state by the constructor :func:`run_continuation` used when
    the fields were solved, so a faithful record reproduces its diagnostics
    exactly.

    No rung reads another's, so the rungs are rebuilt on a pool of
    :func:`_workers` threads (numpy and the FFTs release the interpreter
    lock), at most that many at a time, in schedule order.  The first rung
    in order that fails raises its own error; the rungs already running are
    joined and no further one starts.
    """
    schedule = scenario.eps_schedule
    rungs = (len(eps), len(delta), len(steps), len(phi))
    if len(set(rungs)) > 1 or not rungs[0]:
        raise ValueError(
            f"stored eps, delta, newton_steps and phi must hold the same positive "
            f"number of rungs, got {rungs}"
        )
    if rungs[0] != len(schedule):
        raise ValueError(f"stored states hold {rungs[0]} rungs, the schedule {len(schedule)}")
    stored = np.asarray(eps, dtype=float)
    if not np.array_equal(stored, schedule):
        raise ValueError(
            f"stored eps {stored.tolist()} are not the schedule {list(schedule)}"
        )
    fields = [GridField(scenario.spec, values) for values in phi]
    measured = estimates._LadderEstimates.build(scenario)

    def rebuild(k: int, d: float, n: int, phi_k: GridField) -> ContinuationState:
        rung = _Rung.build(scenario, measured.sharp, schedule[k], d)
        return _rung_state(measured, k, rung, phi_k, n, None)

    workers = _workers(len(fields))
    pool = ThreadPoolExecutor(workers, thread_name_prefix="torusma-rung")
    try:
        # A rung is submitted only once the rung ``workers`` places before it
        # is collected, so a failed rung stops the schedule where it failed.
        states, running = [], deque()
        for k, (d, n, phi_k) in enumerate(zip(delta, steps, fields)):
            if len(running) == workers:
                states.append(running.popleft().result())
            running.append(pool.submit(rebuild, k, float(d), int(n), phi_k))
        states.extend(future.result() for future in running)
        return states
    finally:
        pool.shutdown(cancel_futures=True)
