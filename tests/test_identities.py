"""Property tests: the exact identities, the shifted frame, the config echo.

The trace identity and the determinant shift are pure algebra and must
cancel to round-off for every admissible field; every state of a ladder
carries ``Phi = phi + rho`` exactly; and a configuration's canonical echo
parses back to itself with the same hash.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from torusma.config import parse_config  # noqa: E402
from torusma.continuation import (  # noqa: E402
    Scenario,
    _Ladder,
    _shift_defect,
    enforce_mass_balance,
    run_continuation,
    rung_diagnostics,
    smoothed_potentials,
)
from torusma.estimates import _RungMetric, _trace_identity_defect  # noqa: E402
from torusma.geometry import (  # noqa: E402
    GridField,
    TorusSpec,
    complex_hessian,
    half_laplacian,
    min_eigenvalue_field,
    scaled_identity,
)
from torusma.ma import AlphaModel, ma_density  # noqa: E402
from torusma.pluripotential import QuasiPshModel, SmoothMode  # noqa: E402
from conftest import trig_poly  # noqa: E402

SPECS = {1: TorusSpec(1, 16), 2: TorusSpec(2, 8)}

dims = st.sampled_from([1, 2])
seeds = st.integers(min_value=0, max_value=2**32 - 1)
kmaxes = st.integers(min_value=1, max_value=3)
eps_values = st.floats(min_value=1e-4, max_value=0.5)
t_values = st.floats(min_value=0.0, max_value=1.0)


def _positive_metric_potential(spec, kmax, seed, eps, fraction):
    """A band-limited ``Phi`` with ``(1 + eps) I + H(Phi)`` positive definite.

    The raw field is scaled so that its most negative Hessian eigenvalue is
    ``-fraction * (1 + eps)``, which leaves every metric eigenvalue at least
    ``(1 - fraction) (1 + eps)``.
    """
    raw = trig_poly(spec, kmax, seed)
    lam = float(np.min(min_eigenvalue_field(complex_hessian(raw)).values))
    scale = fraction * (1.0 + eps) / max(-lam, 1e-12)
    return GridField(spec, scale * raw.values)


@settings(max_examples=40, deadline=None)
@given(
    n=dims,
    kmax=kmaxes,
    seed=seeds,
    eps=eps_values,
    fraction=st.floats(min_value=0.0, max_value=0.9),
)
def test_trace_identity_cancels_to_round_off(n, kmax, seed, eps, fraction):
    Phi = _positive_metric_potential(SPECS[n], kmax, seed, eps, fraction)
    assert _trace_identity_defect(_RungMetric.build(Phi, eps)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=dims,
    kmax=kmaxes,
    seed=seeds,
    amplitude=st.floats(min_value=0.0, max_value=0.05),
    t=t_values,
    eps=eps_values,
)
def test_shift_identity_cancels_to_round_off(n, kmax, seed, amplitude, t, eps):
    # det(a + eps I + H(phi)) = det((1 + eps) I + H(phi + rho)) for any phi,
    # positive metric or not.
    spec = SPECS[n]
    alpha = AlphaModel(spec, t=t)
    phi = GridField(spec, amplitude * trig_poly(spec, kmax, seed).values)
    Phi = GridField(spec, phi.values + alpha.rho().values)
    det_g = ma_density(scaled_identity(spec, 1 + eps), Phi).values
    size = float(np.max(np.abs(ma_density(alpha.coefficients(eps), phi).values)))
    assert _shift_defect(phi, det_g, alpha, eps) <= 1e-13 * max(1.0, size)


def _smooth_scenario(n, t, seed, schedule):
    spec = SPECS[n]
    rng = np.random.default_rng(seed)

    def model():
        k = tuple(int(v) for v in rng.integers(-1, 2, size=spec.num_axes))
        mode = SmoothMode(float(rng.uniform(-0.02, 0.02)), k, float(rng.uniform(0, 6)))
        return QuasiPshModel(spec, smooth=(mode,))

    return enforce_mass_balance(
        Scenario(
            name="property",
            spec=spec,
            alpha=AlphaModel(spec, t=t),
            psi1=model(),
            psi2=model(),
            p=2.0,
            eps_schedule=schedule,
            tol=1e-8,
        )
    )


@settings(max_examples=10, deadline=None)
@given(n=dims, t=t_values, seed=seeds)
@example(n=1, t=0.0, seed=0)  # flat background: Phi is phi itself
def test_solved_states_carry_the_shifted_potential(n, t, seed):
    scenario = _smooth_scenario(n, t, seed, (0.2, 0.05))
    rho = scenario.alpha.rho().values
    for state in run_continuation(scenario):
        np.testing.assert_array_equal(state.Phi.values, state.phi.values + rho)


@settings(max_examples=20, deadline=None)
@given(
    n=dims,
    t=t_values,
    seed=seeds,
    amplitude=st.floats(min_value=0.0, max_value=1e-4),
)
@example(n=2, t=1.0, seed=0, amplitude=0.0)  # zero potential: Phi is rho
def test_rung_diagnostics_shift_by_rho(n, t, seed, amplitude):
    eps = 0.1
    scenario = _smooth_scenario(n, t, seed, (eps,))
    spec = scenario.spec
    phi = GridField(spec, amplitude * trig_poly(spec, 1, seed).values)
    ladder = _Ladder.build(scenario)
    p1, p2, weight2 = smoothed_potentials(ladder, eps)
    diagnostics = rung_diagnostics(ladder, eps, 0.0, phi, p1, p2, weight2)
    Phi = GridField(spec, phi.values + scenario.alpha.rho().values)
    m = _RungMetric.build(Phi, eps)
    assert diagnostics["trace_defect"] == _trace_identity_defect(m)
    q = spec.n + half_laplacian(Phi).values / (1 + eps)
    assert diagnostics["q_sup"] == float(np.max(q))


# -- config echo round trip ------------------------------------------------

_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12)
_coords = st.floats(min_value=0.0, max_value=0.999)


@st.composite
def _mode_lines(draw):
    amplitude = draw(st.floats(min_value=-0.1, max_value=0.1))
    k = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
    phase = draw(st.floats(min_value=0.0, max_value=6.3))
    return f"mode = {amplitude!r}, {k[0]} {k[1]}, {phase!r}"


@st.composite
def _pole_lines(draw):
    center = draw(st.lists(_coords, min_size=2, max_size=2))
    weight = draw(st.floats(min_value=0.05, max_value=1.5))
    r0 = draw(st.floats(min_value=0.02, max_value=0.12))
    r1 = draw(st.floats(min_value=r0 + 0.01, max_value=0.24))
    return f"pole = {center[0]!r} {center[1]!r}, {weight!r}, {r0!r}, {r1!r}"


def _optional(key, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{key} = {v!r}"]))


@st.composite
def _configs(draw):
    """A valid n = 1 configuration that sets a random subset of the keys."""
    lines = ["[torus]", "n = 1", "N = 32"]
    lines += ["[alpha]"] + draw(_optional("t", t_values))
    lines += draw(_optional("eps0", st.floats(min_value=0.01, max_value=2.0)))
    for section in ("psi1", "psi2"):
        lines.append(f"[{section}]")
        lines += draw(st.lists(_mode_lines(), max_size=2))
        if section == "psi2":
            lines += draw(st.lists(_pole_lines(), max_size=2))
    lines += ["[hypothesis]"] + draw(
        _optional("p", st.floats(min_value=1.01, max_value=3.0))
    )
    lines.append("[continuation]")
    schedule = draw(
        st.lists(
            st.floats(min_value=1e-4, max_value=0.5), min_size=1, max_size=4, unique=True
        )
    )
    if draw(st.booleans()):
        lines.append("schedule = " + " ".join(repr(e) for e in sorted(schedule)[::-1]))
    lines += draw(_optional("tol", st.floats(min_value=1e-12, max_value=1e-6)))
    lines.append("[estimates]")
    lines += draw(_optional("C", st.floats(min_value=0.0, max_value=10.0)))
    lines += draw(_optional("holder_gamma", st.floats(min_value=0.05, max_value=0.95)))
    inner = draw(st.floats(min_value=2.0, max_value=4.0))
    if draw(st.booleans()):
        lines.append(f"exclusion_inner = {inner!r}")
        lines.append(f"exclusion_outer = {inner + draw(st.floats(0.5, 4.0))!r}")
    lines += draw(_optional("sobolev_q", st.floats(min_value=0.5, max_value=8.0)))
    lines.append("[output]")
    lines += draw(_words.map(lambda w: [f"name = {w}"]) | st.just([]))
    lines += draw(_words.map(lambda w: [f"directory = {w}"]) | st.just([]))
    formats = draw(
        st.lists(st.sampled_from(["csv", "verdicts", "states"]), max_size=3, unique=True)
    )
    if formats:
        lines.append("formats = " + ",".join(formats))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=_configs())
def test_config_echo_parses_back_to_itself(text):
    experiment = parse_config(text)
    again = parse_config(experiment.echo)
    assert again.echo == experiment.echo
    assert again.config_hash == experiment.config_hash
