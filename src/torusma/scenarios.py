"""Bundled scenario library.

Seven ready-to-run experiments spanning the design space, each a config
document that :func:`torusma.config.parse_config` resolves like any user
file, so ``torusma run`` of the same text gives the same record.  Keys a
document leaves out take the parser's defaults (``t = 0``, ``p = 2``, eight
rungs halving from ``eps = 0.25``), as in any other file:

* ``trivial`` — flat background, unit density; every column of the run
  record is known in closed form (the solution is identically zero and the
  normalization constant is exactly ``(1+eps)^n - 1``).
* ``smooth`` — mildly curved background (``t = 0.5``) with small smooth
  densities; the generic well-behaved case.
* ``smooth-degenerate`` — fully degenerate background (``t = 1``, the
  coefficient matrix vanishes quadratically on coordinate sheets) but still
  smooth data; tests the continuation against background degeneracy alone.
* ``pole-below`` — a logarithmic pole in ``psi2`` with singularity density
  below the integrability threshold; the central regularity scenario.
* ``pole-above`` — the same geometry with the pole weight pushed beyond the
  threshold; the expected-failure scenario (flagged at parse, fails the
  uniformity verdicts, exits nonzero).
* ``oracle-n1`` — one complex dimension at high resolution, where the
  determinant equation is an exactly solvable linear problem; every rung can
  be checked against spectral inversion.
* ``manufactured-n2`` — two complex dimensions with the degeneracy
  parameter tuned to ``t = 0.1 pi^2``, which makes the exact solution of
  every rung the closed form ``phi = -rho``; the whole ladder is an oracle.
"""

from __future__ import annotations

from .config import ExperimentConfig, parse_config

__all__ = ["bundled_names", "bundled_experiment", "bundled_descriptions"]

_DOCUMENTS = {
    "trivial": """\
[torus]
n = 1
N = 32
[output]
name = trivial
""",
    "smooth": """\
[torus]
n = 1
N = 32
[alpha]
t = 0.5
[psi1]
mode = 0.05, 1 0, 0.0
mode = 0.03, 1 1, 1.0
[psi2]
mode = 0.04, 0 1, 0.5
[output]
name = smooth
""",
    "smooth-degenerate": """\
[torus]
n = 1
N = 64
[alpha]
t = 1.0
[psi1]
mode = 0.05, 1 0, 0.0
mode = 0.03, 1 1, 1.0
[psi2]
mode = 0.04, 0 1, 0.5
[output]
name = smooth-degenerate
""",
    "pole-below": """\
[torus]
n = 1
N = 512
[psi1]
mode = 0.75, 1 0, 0.0
mode = 0.75, 0 1, 0.0
[psi2]
pole = 0.5 0.5, 0.5, 0.1, 0.2
[hypothesis]
p = 1.5
[continuation]
# The ladder starts once the pole smoothing sqrt(eps) is inside the glue
# radius (16h) and descends to the cell scale (s = h), where the
# exclusion-radius seminorms have saturated.
schedule = 0.00390625 0.001953125 0.0009765625 0.00048828125 0.000244140625 0.0001220703125 6.103515625e-05 3.0517578125e-05 1.52587890625e-05 7.62939453125e-06 3.814697265625e-06
[estimates]
C = 2.0
[output]
name = pole-below
""",
    "pole-above": """\
[torus]
n = 1
N = 256
[psi1]
mode = 0.75, 1 0, 0.0
mode = 0.75, 0 1, 0.0
[psi2]
pole = 0.5 0.5, 1.4, 0.1, 0.2
[hypothesis]
p = 1.5
[continuation]
# A weight this far past the threshold carries enough negative mass that
# mid-range smoothing widths violate the smoothing-family lower guarantee;
# the ladder starts below that window and descends to the cell scale so the
# run completes and the verdicts do the failing.
schedule = 0.00048828125 0.000244140625 0.0001220703125 6.103515625e-05 3.0517578125e-05 1.52587890625e-05
# Density peaks reach the thousands here and the sup-norm round-off floor
# grows with them down the ladder (past 1e-8 by the last rung); the verdicts
# this scenario exists to trip are O(0.1) effects, so a loose solve
# tolerance loses nothing.
tol = 1e-06
[estimates]
C = 2.0
[output]
name = pole-above
""",
    "oracle-n1": """\
[torus]
n = 1
N = 256
[alpha]
t = 0.5
[psi1]
mode = 0.08, 1 0, 0.3
mode = 0.05, 2 1, 1.2
[psi2]
mode = 0.06, 0 1, 0.7
[output]
name = oracle-n1
""",
    "manufactured-n2": """\
[torus]
n = 2
N = 16
[alpha]
# t = 0.1 pi^2 makes phi = -rho = -0.1(cos 2 pi x_1 + cos 2 pi x_2) the
# exact solution of every rung: the background potential cancels and the
# shifted form is the constant (1+eps) I.
t = 0.9869604401089358
[continuation]
schedule = 0.25 0.125 0.0625 0.03125 0.015625 0.0078125 0.00390625
[output]
name = manufactured-n2
""",
}

_DESCRIPTIONS = {
    "trivial": "flat background, unit density; all run-record columns known exactly",
    "smooth": "t=0.5 background with small smooth densities (n=1, N=32)",
    "smooth-degenerate": "t=1 fully degenerate background, smooth data (n=1, N=64)",
    "pole-below": "log pole in psi2 below the integrability threshold (n=1, N=512)",
    "pole-above": "log pole beyond the threshold; expected-failure scenario (n=1, N=256)",
    "oracle-n1": "n=1 at N=256; every rung checkable against spectral inversion",
    "manufactured-n2": "n=2 ladder with closed-form exact solution phi = -rho (N=16)",
}


def bundled_names() -> tuple[str, ...]:
    return tuple(_DOCUMENTS)


def bundled_descriptions() -> dict[str, str]:
    return dict(_DESCRIPTIONS)


def bundled_experiment(name: str) -> ExperimentConfig:
    """Parse a bundled scenario's config document (fresh object every call)."""
    try:
        document = _DOCUMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; bundled: {', '.join(_DOCUMENTS)}"
        ) from None
    return parse_config(document)
