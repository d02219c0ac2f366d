"""The determinant-type elliptic operator and its damped Newton solver.

The unknown is a real potential ``phi`` on the torus; the operator is the
pointwise determinant ``det(a + H(phi))`` of the background Hermitian
coefficient field ``a`` perturbed by the complex Hessian of ``phi``.  The
equation ``det(a + H(phi)) = F`` is solved in log-residual form

    r(phi) = log det(a + H(phi)) - log F,

whose linearization at ``phi`` is exactly the metric Laplacian
``u -> trace((a + H(phi))^{-1} H(u))``.  For ``n = 1`` that operator is
``u -> H(u)/g`` with a scalar metric ``g``, and each Newton direction is
solved exactly by one flat spectral inversion.  For ``n = 2`` the linearized
system is solved inexactly by GMRES, preconditioned by the flat spectral
inverse composed with a pointwise inverse-metric-trace scaling, to a relative
tolerance set by Eisenstat–Walker forcing.  Step lengths are halved until
both positivity of the perturbed form and strict sup-norm residual decrease
hold.  Solutions are normalized to zero mean.

Every ``n = 2`` solve whose ``N/2`` is itself a grid (even and at least 8)
starts from a nested-grid start (Brandt's nested iteration): the same
problem, restricted by injection to the ``N/2`` grid, is solved first with
the same tolerance (nesting again where it can), and its correction to the
restricted start is prolonged by spectral zero-padding and added to the
fine start.  When the coarse solve fails, or the corrected start leaves the
form indefinite, Newton starts from the given start as it would without
nesting, and the rejection is counted in ``SolveResult.nested_fallbacks``.
``n = 1`` never nests: its Newton directions are exact spectral solves.

``AlphaModel`` is the family of degenerate background forms: a product-cosine
potential ``rho = (t/pi^2) sum_j cos(2 pi x_j)`` whose coefficient matrix is
exactly ``diag(1 - t cos(2 pi x_j))`` — nonnegative for all ``t <= 1``, with
quadratic vanishing on the sheets ``{x_j = 0}`` at ``t = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .geometry import (
    GridField,
    HermitianFormField,
    TorusSpec,
    _MetricData,
    _hessian_parts,
    _prolong,
    _restrict,
    _restrict_form,
    _solve_half_laplacian,
    complex_hessian,
    integrate,
    invert_half_laplacian,
    min_eigenvalue_field,
)

__all__ = [
    "AlphaModel",
    "CompatibilityError",
    "PositivityError",
    "IterationLimitError",
    "PositivityReport",
    "SolveResult",
    "ma_density",
    "positivity_check",
    "solve_ma",
    "solve_ma_detailed",
    "poisson_oracle_n1",
    "degeneracy_integrability",
]


class CompatibilityError(ValueError):
    """Total masses of the two sides of the equation disagree."""


class PositivityError(RuntimeError):
    """No admissible iterate keeps the perturbed form positive."""


class IterationLimitError(RuntimeError):
    """Newton did not converge within the step cap."""

    def __init__(self, msg: str, steps: int, residual: float):
        super().__init__(msg)
        self.steps = steps
        self.residual = residual


@dataclass(frozen=True)
class AlphaModel:
    """Degenerate background family with closed-form potential and coefficients.

    ``t = 0`` is the flat background; ``t = 1`` degenerates quadratically on
    the coordinate sheets.  ``eps0`` is the claimed integrability exponent of
    the reciprocal density ``1/det a`` (any value below 1/2 is integrable for
    this family; see :func:`degeneracy_integrability`).
    """

    spec: TorusSpec
    t: float
    eps0: float = 0.4

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"degeneracy parameter must be in [0,1], got {self.t}")
        if self.eps0 <= 0:
            raise ValueError(f"integrability exponent must be positive, got {self.eps0}")

    def _cosines(self) -> list[np.ndarray]:
        """cos(2 pi x_j) for each complex coordinate, broadcastable."""
        return [
            np.cos(2 * np.pi * self.spec.axis_coordinate(2 * j))
            for j in range(self.spec.n)
        ]

    def rho(self) -> GridField:
        """Potential with ``I + H(rho)`` equal to the coefficient field."""
        vals = sum(self._cosines()) * (self.t / np.pi**2)
        return GridField(self.spec, np.broadcast_to(vals, self.spec.shape).copy())

    def eta(self) -> GridField:
        """The comparison potential ``-rho``."""
        r = self.rho()
        return GridField(self.spec, -r.values)

    def coefficients(self, eps: float = 0.0) -> HermitianFormField:
        """Closed-form ``diag(1 - t cos(2 pi x_j)) + eps I``."""
        shape = self.spec.shape
        diagonal = [
            np.broadcast_to(1.0 - self.t * c + eps, shape).copy() for c in self._cosines()
        ]
        return HermitianFormField._from_diagonal(self.spec, diagonal)


def _metric_form(a: HermitianFormField, phi: GridField) -> HermitianFormField:
    """The perturbed form ``g = a + H(phi)``."""
    return a + complex_hessian(phi)


def ma_density(a: HermitianFormField, phi: GridField) -> GridField:
    """Pointwise ``det(a + H(phi))``; may be negative, callers gate on positivity."""
    return GridField(a.spec, _metric_form(a, phi).det())


@dataclass(frozen=True)
class PositivityReport:
    ok: bool
    min_eig: float


_POSITIVITY_MARGIN = 1e-10


def _positivity(form: HermitianFormField) -> PositivityReport:
    m = float(np.min(min_eigenvalue_field(form).values))
    return PositivityReport(ok=m >= _POSITIVITY_MARGIN, min_eig=m)


def positivity_check(a: HermitianFormField, phi: GridField) -> PositivityReport:
    """Grid minimum of the smallest eigenvalue of ``a + H(phi)``."""
    return _positivity(_metric_form(a, phi))


@dataclass(frozen=True)
class SolveResult:
    """A converged solve.  ``newton_steps`` and ``residual_history`` are
    those of the solve's own grid; ``coarse_newton_steps`` counts the
    accepted steps of every coarser grid of its nested start,
    ``nested_fallbacks`` the nested starts rejected on any of its grids, and
    ``gmres_info_nonzero`` the GMRES shortfalls of the solve and of its
    successful coarse solves."""

    phi: GridField
    newton_steps: int
    residual_sup: float
    residual_history: tuple[float, ...]
    gmres_info_nonzero: int = 0
    coarse_newton_steps: int = 0
    nested_fallbacks: int = 0


_MAX_NEWTON_STEPS = 200
_MIN_STEP_LENGTH = 2.0**-20

# Eisenstat–Walker forcing, choice 2 (SIAM J. Sci. Comput. 17(1), 1996):
# eta_k = gamma * (r_k / r_{k-1})**2, safeguarded, and capped at _FORCING_MAX,
# which is also eta_0.  A cap of 0.1 costs the near-degenerate manufactured
# n = 2 solve (lambda_min(a + H) = 0.013) an extra damped Newton step, where
# 0.05 does not; on band-limited data and the pole ladders both caps do the
# same Krylov work.
_FORCING_MAX = 0.05
_FORCING_GAMMA = 0.9
_FORCING_SAFEGUARD = 0.1


def _mean_zero(values: np.ndarray) -> np.ndarray:
    return values - values.mean()


def _forcing(
    r_sup: float, r_prev: float | None, eta_prev: float | None, tol: float
) -> float:
    """Relative GMRES tolerance for the next Newton direction.

    ``r_prev`` and ``eta_prev`` are the previous step's residual and forcing
    (``None`` before the first step).  The safeguard keeps a sudden residual
    drop from tightening the inner solve before the outer iteration has shown
    fast convergence; the floor ``tol / (2 r)`` stops the last step from
    being solved far below what the outer tolerance needs.
    """
    if r_prev is None:
        eta = _FORCING_MAX
    else:
        eta = _FORCING_GAMMA * (r_sup / r_prev) ** 2
        safeguard = _FORCING_GAMMA * eta_prev**2
        if safeguard > _FORCING_SAFEGUARD:
            eta = max(eta, safeguard)
        eta = min(eta, _FORCING_MAX)
    return max(eta, 0.5 * tol / r_sup)


def _newton_direction(
    spec: TorusSpec, data: _MetricData, r: np.ndarray, rtol: float
) -> tuple[np.ndarray, int]:
    """Solve the linearized system for the Newton update; returns ``(update, info)``.

    The metric Laplacian annihilates constants and its range is the set of
    ``v`` with ``mean(det * v) = 0``, so the update solves it up to a
    constant: ``trace(g^{-1} H(u)) = -r - c``.  The constant component of
    the update is irrelevant (the determinant is invariant under
    ``phi -> phi + c``) and is projected out.  The update is validated once,
    as a ``GridField``.

    For ``n = 1`` the operator is ``u -> H(u)/g`` with ``g = det``, so the
    direction is exact: ``H(u) = w - c g`` with ``w = -g r`` and the
    ``g``-weighted mean ``c = mean(w) / mean(g)``, one spectral solve, and
    ``rtol`` is not used.  For ``n = 2`` GMRES solves the operator augmented
    with the grid mean to relative tolerance ``rtol``, preconditioned by the
    flat spectral inverse composed with division by the pointwise
    inverse-metric trace ``sigma``; both operators act on raw arrays.
    ``info`` is the GMRES return code (always 0 for ``n = 1``): nonzero when
    the inner solve stopped short of ``rtol``, which still yields a usable
    descent direction because the line search guards the outer iteration
    either way.
    """
    shape = spec.shape
    if spec.n == 1:
        g = data.det
        w = -g * r
        u = _solve_half_laplacian(w - (w.mean() / g.mean()) * g)
        return GridField(spec, _mean_zero(u)).values, 0

    size = int(np.prod(shape))
    sigma = data.inverse_trace() / spec.n

    def matvec(x):
        hu = data.contract(_hessian_parts(x.reshape(shape)))
        return (hu + x.mean()).ravel()

    def precond(x):
        w = x.reshape(shape)
        m = w.mean()
        return (_solve_half_laplacian((w - m) / sigma) + m).ravel()

    A = LinearOperator((size, size), matvec=matvec, dtype=float)
    M = LinearOperator((size, size), matvec=precond, dtype=float)
    b = (-r).ravel()
    x, info = gmres(A, b, M=M, rtol=rtol, atol=0.0, restart=60, maxiter=200)
    return GridField(spec, _mean_zero(x.reshape(shape))).values, info


def solve_ma_detailed(
    a: HermitianFormField,
    F: GridField,
    phi0: GridField | None = None,
    tol: float = 1e-10,
) -> SolveResult:
    """Damped Newton solve of ``det(a + H(phi)) = F`` with diagnostics.

    Requires ``F > 0``, mass compatibility ``|int F - int det a| <= 1e-8 int det a``
    (no silent rescaling here — normalization constants belong to the caller),
    and an initial iterate keeping ``a + H(phi0)`` positive (``phi0 = 0`` by
    default).  At ``n = 2`` Newton starts from the nested-grid start instead
    when the ``N/2`` solve succeeds and the corrected start is positive.
    Returns the mean-zero solution and its counts (:class:`SolveResult`).
    """
    spec = a.spec
    if float(np.min(F.values)) <= 0:
        raise ValueError("right-hand density must be positive everywhere")
    mass_a = integrate(GridField(spec, a.det()))
    mass_f = integrate(F)
    if abs(mass_f - mass_a) > 1e-8 * abs(mass_a):
        raise CompatibilityError(
            f"density mass {mass_f:.12g} differs from background mass {mass_a:.12g} "
            f"beyond 1e-8 relative"
        )

    phi = GridField(spec, _mean_zero(phi0.values if phi0 is not None else spec.zeros()))
    coarse, fallbacks, form = None, 0, None
    if spec.n == 2 and spec.N % 4 == 0 and spec.N >= 16:
        nested, coarse = _nested_start(a, F, phi, tol)
        form = None if nested is None else _metric_form(a, nested)
        if form is not None and _positivity(form).ok:
            phi = nested
        else:
            form, fallbacks = None, 1
    if form is None:
        form = _metric_form(a, phi)
        report = _positivity(form)
        if not report.ok:
            raise PositivityError(
                f"initial iterate leaves the form indefinite (min eig {report.min_eig:.3e})"
            )

    logF = np.log(F.values)
    data = _MetricData.from_form(form)
    r = np.log(data.det) - logF
    r_sup = float(np.max(np.abs(r)))
    history = [r_sup]
    steps = 0
    gmres_info_nonzero = 0
    coarse_steps = 0
    if coarse is not None:
        gmres_info_nonzero = coarse.gmres_info_nonzero
        coarse_steps = coarse.newton_steps + coarse.coarse_newton_steps
        fallbacks += coarse.nested_fallbacks
    forcing = None

    while r_sup > tol:
        if steps >= _MAX_NEWTON_STEPS:
            raise IterationLimitError(
                f"no convergence in {_MAX_NEWTON_STEPS} Newton steps "
                f"(residual {r_sup:.3e})",
                steps=steps,
                residual=r_sup,
            )
        # Inexact Newton (n = 2): loose inner solves while the residual falls
        # slowly, tightening as it starts to fall quadratically.
        forcing = _forcing(r_sup, history[-2] if steps else None, forcing, tol)
        direction, info = _newton_direction(spec, data, r, forcing)
        gmres_info_nonzero += int(info != 0)
        lam = 1.0
        while True:
            cand = GridField(spec, _mean_zero(phi.values + lam * direction))
            cand_form = _metric_form(a, cand)
            if _positivity(cand_form).ok:
                cand_data = _MetricData.from_form(cand_form)
                cand_r = np.log(cand_data.det) - logF
                cand_sup = float(np.max(np.abs(cand_r)))
                if cand_sup < r_sup:
                    break
            lam *= 0.5
            if lam < _MIN_STEP_LENGTH:
                raise PositivityError(
                    f"no step length down to 2^-20 admits a positive form with "
                    f"residual decrease (residual {r_sup:.3e})"
                )
        phi, data, r, r_sup = cand, cand_data, cand_r, cand_sup
        history.append(r_sup)
        steps += 1

    return SolveResult(
        phi=phi,
        newton_steps=steps,
        residual_sup=r_sup,
        residual_history=tuple(history),
        gmres_info_nonzero=gmres_info_nonzero,
        coarse_newton_steps=coarse_steps,
        nested_fallbacks=fallbacks,
    )


def _nested_start(
    a: HermitianFormField, F: GridField, phi: GridField, tol: float
) -> tuple[GridField | None, SolveResult | None]:
    """The start ``phi`` corrected by the same problem solved on the ``N/2`` grid.

    ``a``, ``F`` and ``phi`` are restricted by injection; the coarse density
    is rescaled to the coarse background mass, which injection does not
    preserve exactly.  The coarse solve starts from the restricted ``phi``
    with the same ``tol`` (and nests again when it can), and its correction
    is prolonged spectrally and added to ``phi``.  Returns the corrected
    start and the coarse result, or ``(None, None)`` when the coarse solve
    fails; the caller still gates the corrected start on positivity.
    """
    a_c = _restrict_form(a)
    start = _restrict(phi.values)
    F_c = _restrict(F.values)
    F_c *= a_c.det().mean() / F_c.mean()
    try:
        coarse = solve_ma_detailed(
            a_c, GridField(a_c.spec, F_c), GridField(a_c.spec, start), tol
        )
    except (PositivityError, IterationLimitError):
        return None, None
    correction = _prolong(coarse.phi.values - start, a.spec.N)
    return GridField(a.spec, _mean_zero(phi.values + correction)), coarse


def solve_ma(
    a: HermitianFormField,
    F: GridField,
    phi0: GridField | None = None,
    tol: float = 1e-10,
) -> GridField:
    """Mean-zero ``phi`` with ``||log det(a + H(phi)) - log F||_inf <= tol``."""
    return solve_ma_detailed(a, F, phi0, tol).phi


def poisson_oracle_n1(
    F: GridField, a: HermitianFormField | None = None
) -> GridField:
    """Exact one-dimensional solve by spectral inversion.

    For ``n = 1`` the determinant is affine — ``det(a + H(phi)) = a + tr H(phi)``
    — so the equation is a Poisson problem.  ``a`` defaults to the identity
    background; passing the actual background covers shifted rungs.
    """
    spec = F.spec
    if spec.n != 1:
        raise ValueError("the linear-reduction oracle only exists in dimension one")
    background = np.ones(spec.shape) if a is None else a.trace()
    mass_f = float(F.values.mean())
    mass_a = float(background.mean())
    if abs(mass_f - mass_a) > 1e-10 * max(1.0, abs(mass_a)):
        raise CompatibilityError(
            f"density mass {mass_f:.12g} differs from background mass {mass_a:.12g}"
        )
    return invert_half_laplacian(GridField(spec, F.values - background))


_DEGENERACY_REFINEMENTS = (1, 2, 4)


def degeneracy_integrability(alpha: AlphaModel, eps0: float | None = None) -> list[float]:
    """Quasi-norm ``(int (1/det a)^{eps0})^{1/eps0}`` under grid refinement.

    Midpoint samples on the grid refined by 1, 2 and 4 never hit the degenerate
    sheets ``{x_j = 0}`` at ``t = 1``; a stabilizing sequence is evidence of
    integrability (true for this family whenever ``eps0 < 1/2``).
    """
    if eps0 is None:
        eps0 = alpha.eps0
    out = []
    n, N0 = alpha.spec.n, alpha.spec.N
    for scale in _DEGENERACY_REFINEMENTS:
        N = N0 * scale
        x = (np.arange(N) + 0.5) / N
        det = 1.0
        for j in range(n):
            shape = [1] * (2 * n)
            shape[2 * j] = N
            det = det * (1.0 - alpha.t * np.cos(2 * np.pi * x).reshape(shape))
        det = np.broadcast_to(det, (N,) * (2 * n))
        out.append(float(np.mean(det**-eps0) ** (1.0 / eps0)))
    return out
