"""Workload inputs, generated from the benchmark seed.

Every workload is a pure function of ``--seed``: the same seed gives the same
configuration text or arrays, so two runs of one seed do identical work.
torusma only ever sees the generated config or arrays, never the seed.

Why each workload exists, and which layers it bypasses, is recorded in
``WORKLOADS`` beside its parameters.
"""

from __future__ import annotations

import math
import random

POLE_N1 = "pole-n1"
POLE_N2 = "pole-n2"
NEWTON_N2 = "newton-n2"

WORKLOADS = {
    POLE_N1: {
        "kind": "ladder",
        "n": 1,
        "N": 512,
        "why": (
            "the bundled pole-below ladder (n=1, N=512, 11 rungs), run then "
            "verified: FFT-bound on 512^2 grids and heavy on estimates and "
            "report (23 MB of solved fields)"
        ),
        "bypasses": (
            "Krylov: the n=1 preconditioner is exact, so GMRES converges in "
            "one or two matvecs per Newton step"
        ),
    },
    POLE_N2: {
        "kind": "ladder",
        "n": 2,
        "N": 16,
        "why": (
            "an n=2, N=16, 4-rung pole ladder below the n/p threshold, run "
            "then verified: Newton takes several steps per rung, so GMRES, "
            "the line search and per-call wrapper overhead dominate"
        ),
        "bypasses": (
            "large arrays: a field is 0.5 MiB and a Hermitian form 4 MiB, "
            "so per-call overhead outweighs memory traffic"
        ),
    },
    NEWTON_N2: {
        "kind": "solve",
        "n": 2,
        "N": 24,
        "why": (
            "one solve_ma_detailed call from a zero start at n=2, N=24 on the "
            "density of a band-limited potential: isolates ma and geometry "
            "on forms of 21 MB, far beyond L2"
        ),
        "bypasses": (
            "continuation, estimates, pluripotential and report; config "
            "parsing too"
        ),
    },
}

# Verdict statuses of the untranslated bundled pole-below scenario at the
# commit that defined this benchmark.  A whole-cell translation is a
# symmetry of that scenario (t = 0), so every seed must reproduce them.
POLE_N1_STATUSES = {
    "normalization": "holds",
    "uniform-bound": "holds",
    "weighted-second-order": "holds",
    "trace-identity": "holds",
    "shift-identity": "holds",
    "inequality-main": "holds",
    "inequality-comparison": "holds",
    "interior-regularity": "holds",
    "unweighted-growth": "holds",
    "singular-integrability": "holds",
    "density-hypothesis": "holds",
}

# Verdicts that are exact algebraic identities; they hold on every pole-n2
# input, while the ladder verdicts depend on the resolution (N = 16).
POLE_N2_IDENTITIES = ("trace-identity", "shift-identity")

# Seed whose pole-n1 run record is stored under reference/ for compare.
REFERENCE_SEED = 0

NEWTON_N2_BAND = 2          # |k| <= 2 on every axis
NEWTON_N2_BASE_SEED = 1     # generator of the base potential
NEWTON_N2_MIN_EIG = 0.5     # lambda_min(I + H(phi*)) after scaling
NEWTON_N2_TOL = 1e-10       # solver tolerance on the log residual
NEWTON_N2_MAX_ERROR = 1e-6  # sup |phi - phi*| accepted
NEWTON_N2_CHECKS = 5        # timed a-posteriori checks per solve (odd)


def _fmt(x: float) -> str:
    return repr(float(x))


def pole_n1_shift(seed: int) -> tuple[int, int]:
    """Whole-grid-cell translation (in cells) that the seed applies."""
    rng = random.Random(f"pole-n1:{seed}")
    N = WORKLOADS[POLE_N1]["N"]
    return rng.randrange(N), rng.randrange(N)


def pole_n1_config(seed: int) -> str:
    """pole-below translated by a seeded number of whole grid cells.

    The pole centre moves by ``s / N`` and each ``psi1`` mode with wavenumber
    ``k`` gains the phase ``-2 pi k.s / N``, so the translated density is
    the bundled one sampled on the shifted grid.
    """
    N = WORKLOADS[POLE_N1]["N"]
    sx, sy = pole_n1_shift(seed)
    cx, cy = (0.5 + sx / N) % 1.0, (0.5 + sy / N) % 1.0
    px, py = -2 * math.pi * sx / N, -2 * math.pi * sy / N
    schedule = " ".join(_fmt(2.0**-8 * 0.5**k) for k in range(11))
    return "\n".join(
        [
            "[torus]",
            "n = 1",
            f"N = {N}",
            "[alpha]",
            "t = 0.0",
            "[psi1]",
            f"mode = 0.75, 1 0, {_fmt(px)}",
            f"mode = 0.75, 0 1, {_fmt(py)}",
            "[psi2]",
            f"pole = {_fmt(cx)} {_fmt(cy)}, 0.5, 0.1, 0.2",
            "[hypothesis]",
            "p = 1.5",
            "[continuation]",
            f"schedule = {schedule}",
            "[estimates]",
            "C = 2.0",
            "[output]",
            f"name = {POLE_N1}",
            "directory = runs",
        ]
    ) + "\n"


def pole_n2_shift(seed: int) -> tuple[int, int]:
    """Whole-grid-cell translation along ``y_1`` and ``y_2`` (in cells)."""
    rng = random.Random(f"pole-n2:{seed}")
    N = WORKLOADS[POLE_N2]["N"]
    return rng.randrange(N), rng.randrange(N)


def pole_n2_config(seed: int) -> str:
    """n=2 pole ladder: t = 0.5, two smooth psi1 modes, one psi2 pole.

    The pole weight 0.5 with p = 1.5 is below the threshold n/p = 4/3.  The
    seed translates the scenario along ``y_1`` and ``y_2`` by whole grid
    cells, which moves the pole centre and the phase of the ``y_2`` mode.
    The background depends on ``x_1, x_2`` only, so the translation is a
    symmetry and every seed does the same work.
    """
    N = WORKLOADS[POLE_N2]["N"]
    s1, s2 = pole_n2_shift(seed)
    centre = (0.5, (0.5 + s1 / N) % 1.0, 0.25, (0.5 + s2 / N) % 1.0)
    phase = 1.1 - 2 * math.pi * s2 / N
    schedule = " ".join(_fmt(2.0**-k) for k in range(4, 8))
    return "\n".join(
        [
            "[torus]",
            "n = 2",
            f"N = {N}",
            "[alpha]",
            "t = 0.5",
            "[psi1]",
            "mode = 0.3, 1 0 0 0, 0.3",
            f"mode = 0.3, 0 0 0 1, {_fmt(phase)}",
            "[psi2]",
            "pole = " + " ".join(_fmt(c) for c in centre) + ", 0.5, 0.1, 0.2",
            "[hypothesis]",
            "p = 1.5",
            "[continuation]",
            f"schedule = {schedule}",
            "[estimates]",
            "C = 2.0",
            "[output]",
            f"name = {POLE_N2}",
            "directory = runs",
        ]
    ) + "\n"


def config_text(workload: str, seed: int) -> str:
    if workload == POLE_N1:
        return pole_n1_config(seed)
    if workload == POLE_N2:
        return pole_n2_config(seed)
    raise ValueError(f"{workload} has no config")


def newton_n2_inputs(seed: int):
    """``(a, F, phi_star)`` for the bare n=2 Newton solve.

    The base field is mean-zero and real, with a Gaussian spectrum on
    ``|k_i| <= 2`` for all four axes drawn from a fixed generator, scaled so
    that the grid minimum of ``lambda_min(I + H)`` is exactly 1/2.  The seed
    translates it by whole grid cells on every axis, a symmetry of the flat
    background ``a = I``, so every seed does the same Newton and Krylov work.
    ``F = det(I + H(phi*))`` has the background's mass exactly, since
    ``det H`` integrates to zero and the product of two such fields is
    resolved on the grid.
    """
    import numpy as np
    from torusma.geometry import (
        GridField,
        TorusSpec,
        complex_hessian,
        min_eigenvalue_field,
        scaled_identity,
    )
    from torusma.ma import ma_density

    N, K = WORKLOADS[NEWTON_N2]["N"], NEWTON_N2_BAND
    spec = TorusSpec(n=2, N=N)
    rng = np.random.default_rng(NEWTON_N2_BASE_SEED)
    band = np.r_[0 : K + 1, N - K : N]
    coeffs = np.zeros(spec.shape, dtype=complex)
    size = (2 * K + 1,) * 4
    coeffs[np.ix_(band, band, band, band)] = rng.normal(size=size) + 1j * rng.normal(
        size=size
    )
    coeffs[0, 0, 0, 0] = 0.0
    values = np.real(np.fft.ifftn(coeffs))
    shift = np.random.default_rng(seed).integers(0, N, size=4)
    values = np.roll(values - values.mean(), tuple(shift), axis=(0, 1, 2, 3))
    lam = float(np.min(min_eigenvalue_field(complex_hessian(GridField(spec, values))).values))
    phi_star = GridField(spec, values * ((1.0 - NEWTON_N2_MIN_EIG) / -lam))
    a = scaled_identity(spec, 1.0)
    return a, ma_density(a, phi_star), phi_star


def largest_arrays(workload: str) -> dict:
    """Bytes of one scalar field and one Hermitian form, from the grid size."""
    n, N = WORKLOADS[workload]["n"], WORKLOADS[workload]["N"]
    points = N ** (2 * n)
    return {"field_bytes": points * 8, "form_bytes": points * n * n * 16}
