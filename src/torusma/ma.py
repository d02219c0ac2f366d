"""The determinant-type elliptic operator and its damped Newton solver.

The unknown is a real potential ``phi`` on the torus; the operator is the
pointwise determinant ``det(a + H(phi))`` of the background Hermitian
coefficient field ``a`` perturbed by the complex Hessian of ``phi``.  The
equation ``det(a + H(phi)) = F`` is solved in log-residual form

    r(phi) = log det(a + H(phi)) - log F,

whose linearization at ``phi`` is exactly the metric Laplacian
``u -> trace((a + H(phi))^{-1} H(u))``.  For ``n = 1`` the equation is
linear, so each Newton direction is its exact correction ``H(u) = F -
det(a + H(phi))``, one flat spectral inversion.  For ``n = 2`` the linearized
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
nesting, and ``SolveResult.nested_rejected`` is set.  A converged coarse
solve is kept as ``SolveResult.coarse``, so ``SolveResult.grids()`` walks
the solve's grids, finest first.
``n = 1`` never nests: its first Newton step already solves the equation.

``AlphaModel`` is the family of degenerate background forms: a product-cosine
potential ``rho = (t/pi^2) sum_j cos(2 pi x_j)`` whose coefficient matrix is
exactly ``diag(1 - t cos(2 pi x_j))`` — nonnegative for all ``t <= 1``, with
quadratic vanishing on the sheets ``{x_j = 0}`` at ``t = 1``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geometry import (
    GridField,
    HermitianFormField,
    TorusSpec,
    _mean,
    _metric_density,
    _metric_form,
    _MetricData,
    _prolong,
    _restrict,
    _restrict_form,
    _solve_half_laplacian,
    integrate,
    invert_half_laplacian,
    min_eigenvalue_field,
)
from .krylov import gmres

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
    """No step length gives a positive form with a smaller residual."""


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
    this family; see :func:`degeneracy_integrability`).  Both ``rho`` and
    the coefficients depend on the ``x_j`` axes only, so their values are
    read-only broadcast views of arrays of that natural shape, not grid
    fields: they cannot be written into.
    """

    spec: TorusSpec
    t: float
    eps0: float = 0.4

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"degeneracy parameter must be in [0,1], got {self.t}")
        if not self.eps0 > 0:
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
        return GridField(self.spec, np.broadcast_to(vals, self.spec.shape))

    def eta(self) -> GridField:
        """The comparison potential ``-rho``."""
        r = self.rho()
        return GridField(self.spec, -r.values)

    def coefficients(self, eps: float = 0.0) -> HermitianFormField:
        """Closed-form ``diag(1 - t cos(2 pi x_j)) + eps I``."""
        diagonal = [1.0 - self.t * c + eps for c in self._cosines()]
        return HermitianFormField._from_diagonal(self.spec, diagonal)


def ma_density(a: HermitianFormField, phi: GridField) -> GridField:
    """Pointwise ``det(a + H(phi))``; may be negative, callers gate on positivity."""
    return GridField(a.spec, _metric_density(a, phi))


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
    """A converged solve on one grid.  ``residual_history`` and
    ``gmres_info_nonzero`` are this grid's; ``coarse`` is the converged
    ``N/2`` solve its nested start was built from (``None`` when the grid
    does not nest or the coarse solve failed), and ``nested_rejected`` says
    a nested start was tried and not used."""

    phi: GridField
    residual_history: tuple[float, ...]
    gmres_info_nonzero: int = 0
    coarse: SolveResult | None = None
    nested_rejected: bool = False

    @property
    def newton_steps(self) -> int:
        return len(self.residual_history) - 1

    def grids(self) -> Iterator[SolveResult]:
        """This solve, then each coarse solve, finest first."""
        result = self
        while result is not None:
            yield result
            result = result.coarse


_MAX_NEWTON_STEPS = 200
_MIN_STEP_LENGTH = 2.0**-20

# Eisenstat–Walker forcing, choice 2 (SIAM J. Sci. Comput. 17(1), 1996):
# eta_k = gamma * (r_k / r_{k-1})**2, capped at _FORCING_MAX, which is also
# eta_0.  Their safeguard gamma * eta_{k-1}**2 is left out: it acts only when
# the floor set eta_{k-1} > 1/3, and then the floor tol / (2 r_k) > 1/3
# decides eta_k, as r_k < r_{k-1}.  A cap of 0.1 costs the near-degenerate
# manufactured n = 2 solve (lambda_min(a + H) = 0.013) an extra damped Newton
# step, where 0.05 does not; on band-limited data and the pole ladders both
# caps do the same Krylov work.
_FORCING_MAX = 0.05
_FORCING_GAMMA = 0.9


def _mean_zero(values: np.ndarray) -> np.ndarray:
    return values - _mean(values)


def _log_residual(data: _MetricData, logF: np.ndarray) -> tuple[np.ndarray, float]:
    """``r = log det g - log F`` and ``sup |r|``, taken as the larger of
    ``|max r|`` and ``|min r|`` so that no field of absolute values is made."""
    r = np.log(data.det)
    r -= logF
    return r, max(abs(float(r.max())), abs(float(r.min())))


def _forcing(r_sup: float, r_prev: float | None, tol: float) -> float:
    """Relative GMRES tolerance for the next Newton direction.

    ``r_prev`` is the previous step's residual (``None`` before the first
    step).  The floor ``tol / (2 r)`` stops the last step from being solved
    far below what the outer tolerance needs.
    """
    if r_prev is None:
        eta = _FORCING_MAX
    else:
        eta = min(_FORCING_GAMMA * (r_sup / r_prev) ** 2, _FORCING_MAX)
    return max(eta, 0.5 * tol / r_sup)


def _newton_direction(
    spec: TorusSpec, data: _MetricData, r: np.ndarray, rtol: float
) -> tuple[np.ndarray, int]:
    """Solve the linearized system for the Newton update; returns ``(update, info)``.

    The determinant is invariant under ``phi -> phi + c``, so the update's
    constant component is projected out; the update is validated once, as a
    ``GridField``.  For ``n = 1`` the equation is linear, so the update is
    its exact correction ``H(u) = F - det = det (exp(-r) - 1)``, one spectral
    solve, and ``rtol`` is not used.  For ``n = 2`` the metric Laplacian
    annihilates constants and its range is ``mean(det * v) = 0``: GMRES
    solves ``trace(g^{-1} H(u)) = -r - c``, the operator augmented with the
    grid mean, to relative tolerance ``rtol``, preconditioned by the flat
    spectral inverse composed with division by the pointwise inverse-metric
    trace ``sigma``; both operators act on raw arrays.  ``info`` is the GMRES
    return code (0 for ``n = 1``): nonzero when the inner solve stopped short
    of ``rtol``, which still yields a usable descent direction because the
    line search guards the outer iteration either way.
    """
    shape = spec.shape
    if spec.n == 1:
        return GridField(spec, _solve_half_laplacian(data.det * np.expm1(-r))).values, 0

    size = int(np.prod(shape))
    sigma = data.inverse_trace() / spec.n

    def matvec(x):
        hu = data.contract_hessian(x.reshape(shape))
        hu += x.mean()
        return hu.ravel()

    def precond(x):
        w = x.reshape(shape)
        m = w.mean()
        return (_solve_half_laplacian((w - m) / sigma) + m).ravel()

    # ``gmres`` reads only ``matvec``; ``shape`` and ``dtype`` are for the
    # benchmark's tracer, which wraps both operators to count their calls.
    A = SimpleNamespace(shape=(size, size), dtype=float, matvec=matvec)
    M = SimpleNamespace(shape=(size, size), dtype=float, matvec=precond)
    b = (-r).ravel()
    x, info = gmres(A, b, M=M, rtol=rtol, restart=60, maxiter=200)
    return GridField(spec, _mean_zero(x.reshape(shape))).values, info


def solve_ma_detailed(
    a: HermitianFormField,
    F: GridField,
    phi0: GridField | None = None,
    tol: float = 1e-10,
) -> SolveResult:
    """Damped Newton solve of ``det(a + H(phi)) = F`` with diagnostics.

    Requires ``tol > 0``, ``F > 0``, mass compatibility ``|int F - int det a|
    <= 1e-8 int det a`` (no silent rescaling here — normalization constants
    belong to the caller), and an initial iterate keeping ``a + H(phi0)``
    positive (``phi0 = 0`` by default).  At ``n = 2`` Newton starts from the
    nested-grid start instead when the ``N/2`` solve succeeds and the
    corrected start is positive.
    Returns the mean-zero solution and its counts (:class:`SolveResult`).
    """
    spec = a.spec
    if not tol > 0:
        raise ValueError(f"solver tolerance must be positive, got {tol}")
    if float(np.min(F.values)) <= 0:
        raise ValueError("right-hand density must be positive everywhere")
    mass_a = integrate(GridField(spec, a.det()))
    mass_f = integrate(F)
    if abs(mass_f - mass_a) > 1e-8 * abs(mass_a):
        raise CompatibilityError(
            f"density mass {mass_f:.12g} differs from background mass {mass_a:.12g} "
            f"beyond 1e-8 relative"
        )

    coarse, rejected, form = None, False, None
    if spec.n == 2 and spec.N % 4 == 0 and spec.N >= 16:
        phi, coarse = _nested_start(a, F, phi0, tol)
        form = None if phi is None else _metric_form(a, phi)
        if form is None or not _positivity(form).ok:
            phi, form, rejected = None, None, True
    if form is None:
        phi = _start(spec, phi0)
        form = _metric_form(a, phi)
        report = _positivity(form)
        if not report.ok:
            raise PositivityError(
                f"initial iterate leaves the form indefinite (min eig {report.min_eig:.3e})"
            )

    logF = np.log(F.values)
    data = _MetricData.from_form(form)
    del form  # the first accepted step makes it stale; ``data`` holds its parts
    r, r_sup = _log_residual(data, logF)
    history = [r_sup]
    gmres_info_nonzero = 0

    while r_sup > tol:
        steps = len(history) - 1
        if steps >= _MAX_NEWTON_STEPS:
            raise IterationLimitError(
                f"no convergence in {_MAX_NEWTON_STEPS} Newton steps "
                f"(residual {r_sup:.3e})",
                steps=steps,
                residual=r_sup,
            )
        # Inexact Newton (n = 2): loose inner solves while the residual falls
        # slowly, tightening as it starts to fall quadratically.
        direction, info = _newton_direction(
            spec, data, r, _forcing(r_sup, history[-2] if steps else None, tol)
        )
        gmres_info_nonzero += int(info != 0)
        lam = 1.0
        positive = False
        while True:
            trial = _trial(a, logF, phi, lam, direction)
            if trial is not None:
                positive = True
                if trial[3] < r_sup:
                    break
                trial = None  # released before the next trial is built
            lam *= 0.5
            if lam < _MIN_STEP_LENGTH:
                if positive:
                    raise PositivityError(
                        f"no step length down to 2^-20 decreases the residual: "
                        f"it stalled at {r_sup:.3e} against tol {tol:g}"
                    )
                raise PositivityError(
                    f"no step length down to 2^-20 admits a positive form with "
                    f"residual decrease (residual {r_sup:.3e})"
                )
        phi, data, r, r_sup = trial
        history.append(r_sup)

    return SolveResult(phi, tuple(history), gmres_info_nonzero, coarse, rejected)


def _trial(
    a: HermitianFormField, logF: np.ndarray, phi: GridField, lam: float, direction: np.ndarray
) -> tuple | None:
    """The line search's trial iterate, ``phi + lam * direction`` made
    mean-zero, with its metric data and log residual: ``(phi, data, r,
    sup |r|)``, or ``None`` when its form is not positive."""
    phi = GridField(a.spec, _mean_zero(phi.values + lam * direction))
    form = _metric_form(a, phi)
    if not _positivity(form).ok:
        return None
    data = _MetricData.from_form(form)
    return (phi, data, *_log_residual(data, logF))


def _start(spec: TorusSpec, phi0: GridField | None) -> GridField:
    """The mean-zero start of a solve from ``phi0`` (zero when ``None``)."""
    return GridField(spec, _mean_zero(phi0.values if phi0 is not None else spec.zeros()))


def _nested_start(
    a: HermitianFormField, F: GridField, phi0: GridField | None, tol: float
) -> tuple[GridField | None, SolveResult | None]:
    """The start ``phi = _start(phi0)`` corrected by the same problem solved
    on the ``N/2`` grid.

    ``a``, ``F`` and ``phi`` are restricted by injection; the coarse density
    is rescaled to the coarse background mass, which injection does not
    preserve exactly.  The coarse solve starts from the restricted ``phi``
    with the same ``tol`` (and nests again when it can), and its correction
    is prolonged spectrally and added to ``phi``, which is built again for
    that rather than held across the coarse solve.  Returns the corrected
    start and the coarse result, or ``(None, None)`` when the coarse solve
    fails; the caller still gates the corrected start on positivity.
    """
    a_c = _restrict_form(a)
    start = _restrict(_start(a.spec, phi0).values)
    F_c = _restrict(F.values)
    F_c *= a_c.det().mean() / F_c.mean()
    try:
        coarse = solve_ma_detailed(
            a_c, GridField(a_c.spec, F_c), GridField(a_c.spec, start), tol
        )
    except (PositivityError, IterationLimitError):
        return None, None
    correction = _prolong(coarse.phi.values - start, a.spec.N)
    return GridField(a.spec, _mean_zero(_start(a.spec, phi0).values + correction)), coarse


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
    mass_f = _mean(F.values)
    mass_a = _mean(background)
    if abs(mass_f - mass_a) > 1e-10 * max(1.0, abs(mass_a)):
        raise CompatibilityError(
            f"density mass {mass_f:.12g} differs from background mass {mass_a:.12g}"
        )
    return invert_half_laplacian(GridField(spec, F.values - background))


_DEGENERACY_REFINEMENTS = (1, 2, 4)


def degeneracy_integrability(alpha: AlphaModel) -> list[float]:
    """Quasi-norm ``(int (1/det a)^{eps0})^{1/eps0}`` under grid refinement,
    at the model's claimed exponent ``alpha.eps0``.

    Midpoint samples on the grid refined by 1, 2 and 4 never hit the degenerate
    sheets ``{x_j = 0}`` at ``t = 1``; a stabilizing sequence is evidence of
    integrability (true for this family whenever ``eps0 < 1/2``).
    """
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
        out.append(float(np.mean(det**-alpha.eps0) ** (1.0 / alpha.eps0)))
    return out
