"""Scenario configuration: parsing, validation, canonical echo, hashing.

The configuration format is a line-oriented INI dialect: ``[section]``
headers, ``key = value`` assignments, ``#``/``;`` full-line comments.
Unknown sections and keys are rejected with the offending line number, as
are malformed values — a config either parses to a fully validated,
mass-balanced scenario or fails loudly.

Every parse produces a *canonical echo*: the same document re-rendered with
all defaults resolved, the mass-balance shift baked in, and a fixed key
order.  The SHA-256 of the echo keys the output directory, so identical
inputs land in identical places and the echo itself documents exactly what
ran.  Every experiment is built by :func:`parse_config`: the bundled
scenarios are config documents, and :func:`with_resolution` re-parses an
experiment's echo at another grid size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .continuation import Scenario, enforce_mass_balance
from .estimates import has_admissible_pairs
from .geometry import TorusSpec
from .ma import AlphaModel
from .pluripotential import Pole, QuasiPshModel, SmoothMode, lelong_number

__all__ = [
    "ConfigError",
    "EstimateSettings",
    "OutputSettings",
    "ExperimentConfig",
    "parse_config",
    "canonical_text",
    "with_resolution",
]

_DEFAULT_SCHEDULE = tuple(0.25 * 0.5**k for k in range(8))

_SCHEMA = {
    "torus": {"n", "N"},
    "alpha": {"t", "eps0"},
    "psi1": {"mode", "pole"},
    "psi2": {"mode", "pole"},
    "hypothesis": {"p"},
    "continuation": {"schedule", "tol"},
    "estimates": {
        "C",
        "holder_gamma",
        "exclusion_inner",
        "exclusion_outer",
        "sobolev_q",
    },
    "output": {"name", "directory", "formats"},
}

_KNOWN_FORMATS = ("csv", "verdicts", "states")


class ConfigError(ValueError):
    """Configuration rejected; carries the line number when one applies."""

    def __init__(self, msg: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + msg)
        self.line = line


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
        if self.exclusion_inner < 2 or self.exclusion_outer <= self.exclusion_inner:
            raise ValueError("need 2 <= exclusion_inner < exclusion_outer")
        if self.sobolev_q <= 0:
            raise ValueError(f"sobolev_q must be positive, got {self.sobolev_q}")


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "runs"
    formats: tuple[str, ...] = _KNOWN_FORMATS

    def __post_init__(self):
        for f in self.formats:
            if f not in _KNOWN_FORMATS:
                raise ValueError(
                    f"unknown output format {f!r}; known: {', '.join(_KNOWN_FORMATS)}"
                )


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: scenario, settings, provenance."""

    scenario: Scenario
    settings: EstimateSettings
    output: OutputSettings
    hypothesis_satisfied: bool
    hypothesis_notes: tuple[str, ...]
    echo: str
    config_hash: str


def _hypothesis_notes(scenario: Scenario) -> tuple[bool, tuple[str, ...]]:
    """Analytic check of the integrability hypothesis for the pole weight.

    The closed-form singularity density of ``psi2`` at each center must stay
    below ``n / p``; at or above that threshold the scenario is accepted but
    flagged, since the theory stops guaranteeing anything there.
    """
    notes = []
    satisfied = True
    n, p = scenario.spec.n, scenario.p
    for pole in scenario.psi2.poles:
        nu = lelong_number(scenario.psi2, pole.center)
        margin = n - p * nu
        if margin <= 0:
            satisfied = False
            notes.append(
                f"hypothesis (i) at risk: density {nu:.6g} at center "
                f"{pole.center} gives margin n - p*nu = {margin:.6g} <= 0"
            )
        elif margin < 0.05:
            notes.append(
                f"hypothesis (i) borderline: margin {margin:.6g} at center "
                f"{pole.center}"
            )
    if not scenario.psi2.poles:
        notes.append("no singular part in psi2; hypothesis (i) holds trivially")
    return satisfied, tuple(notes)


def _check_exclusion(scenario: Scenario, settings: EstimateSettings) -> None:
    """The interior-regularity verdict needs Hoelder stencil pairs at the
    outer exclusion radius (the inner one is smaller and keeps more)."""
    radius = settings.exclusion_outer * scenario.spec.h
    if not has_admissible_pairs(scenario.spec, radius, scenario.singular_centers):
        raise ConfigError(
            f"exclusion_outer = {settings.exclusion_outer!r} grid spacings "
            f"(radius {radius:g}) leaves no admissible Hoelder stencil pairs "
            f"around the pole centers on an N={scenario.spec.N} grid"
        )


def _render_model(section: str, model: QuasiPshModel) -> list[str]:
    lines = [f"[{section}]"]
    for m in model.smooth:
        ks = " ".join(str(k) for k in m.k)
        lines.append(f"mode = {m.amplitude!r}, {ks}, {m.phase!r}")
    for p in model.poles:
        cs = " ".join(repr(c) for c in p.center)
        lines.append(f"pole = {cs}, {p.weight!r}, {p.r0!r}, {p.r1!r}")
    return lines


def canonical_text(
    scenario: Scenario, settings: EstimateSettings, output: OutputSettings
) -> str:
    """Deterministic full-default rendering; the hash input and the echo."""
    s = scenario
    lines = [
        "[torus]",
        f"n = {s.spec.n}",
        f"N = {s.spec.N}",
        "[alpha]",
        f"t = {s.alpha.t!r}",
        f"eps0 = {s.alpha.eps0!r}",
    ]
    lines += _render_model("psi1", s.psi1)
    lines += _render_model("psi2", s.psi2)
    lines += [
        "[hypothesis]",
        f"p = {s.p!r}",
        "[continuation]",
        "schedule = " + " ".join(repr(e) for e in s.eps_schedule),
        f"tol = {s.tol!r}",
        "[estimates]",
    ]
    if s.C_config is not None:
        lines.append(f"C = {s.C_config!r}")
    lines += [
        f"holder_gamma = {settings.holder_gamma!r}",
        f"exclusion_inner = {settings.exclusion_inner!r}",
        f"exclusion_outer = {settings.exclusion_outer!r}",
        f"sobolev_q = {settings.sobolev_q!r}",
        "[output]",
        f"name = {s.name}",
        f"directory = {output.directory}",
        "formats = " + ",".join(output.formats),
    ]
    return "\n".join(lines) + "\n"


def _parse_lines(text: str) -> dict[str, list[tuple[int, str, str]]]:
    """Raw pass: section -> [(line number, key, value)], schema-checked."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(
                    f"unknown section [{current}]; known: "
                    + ", ".join(sorted(_SCHEMA)),
                    line=i,
                )
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=i)
        if current is None:
            raise ConfigError("assignment before any [section] header", line=i)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(
                f"unknown key {key!r} in [{current}]; known: "
                + ", ".join(sorted(_SCHEMA[current])),
                line=i,
            )
        sections[current].append((i, key, value))
    return sections


def _single(entries, section: str, key: str, default=None, required=False):
    found = [(i, v) for i, k, v in entries.get(section, []) if k == key]
    if not found:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return None, default
    if len(found) > 1:
        raise ConfigError(
            f"key {key!r} given more than once in [{section}]", line=found[1][0]
        )
    return found[0]


def _to_float(value: str, line: int, what: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{what}: not a number: {value!r}", line=line) from None


def _to_int(value: str, line: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{what}: not an integer: {value!r}", line=line) from None


def _parse_model(entries, section: str, spec: TorusSpec) -> QuasiPshModel:
    modes = []
    poles = []
    for i, key, value in entries.get(section, []):
        parts = [p.strip() for p in value.split(",")]
        if key == "mode":
            if len(parts) != 3:
                raise ConfigError(
                    "mode needs 'amplitude, k-vector, phase'", line=i
                )
            amp = _to_float(parts[0], i, "mode amplitude")
            ks = parts[1].split()
            if len(ks) != spec.num_axes:
                raise ConfigError(
                    f"mode k-vector needs {spec.num_axes} integers, got {len(ks)}",
                    line=i,
                )
            k = tuple(_to_int(x, i, "mode wavenumber") for x in ks)
            phase = _to_float(parts[2], i, "mode phase")
            modes.append(SmoothMode(amplitude=amp, k=k, phase=phase))
        else:  # pole
            if len(parts) != 4:
                raise ConfigError(
                    "pole needs 'center, weight, r0, r1'", line=i
                )
            cs = parts[0].split()
            if len(cs) != spec.num_axes:
                raise ConfigError(
                    f"pole center needs {spec.num_axes} coordinates, got {len(cs)}",
                    line=i,
                )
            center = tuple(_to_float(x, i, "pole coordinate") for x in cs)
            weight = _to_float(parts[1], i, "pole weight")
            r0 = _to_float(parts[2], i, "pole r0")
            r1 = _to_float(parts[3], i, "pole r1")
            try:
                poles.append(Pole(center=center, weight=weight, r0=r0, r1=r1))
            except ValueError as exc:
                raise ConfigError(str(exc), line=i) from None
    return QuasiPshModel(spec=spec, smooth=tuple(modes), poles=tuple(poles))


def parse_config(text: str) -> ExperimentConfig:
    """Parse, validate, balance, and resolve a configuration document."""
    entries = _parse_lines(text)

    line, value = _single(entries, "torus", "n", required=True)
    n = _to_int(value, line, "torus n")
    line, value = _single(entries, "torus", "N", required=True)
    N = _to_int(value, line, "torus N")
    try:
        spec = TorusSpec(n=n, N=N)
    except ValueError as exc:
        raise ConfigError(str(exc), line=line) from None

    # Optional keys are passed only when the document sets them, so every
    # default has one source: the constructor that receives the value.
    line, value = _single(entries, "alpha", "t", default="0.0")
    t = _to_float(value, line, "alpha t")
    line, value = _single(entries, "alpha", "eps0")
    alpha_kw = {} if value is None else {"eps0": _to_float(value, line, "alpha eps0")}
    try:
        alpha = AlphaModel(spec=spec, t=t, **alpha_kw)
    except ValueError as exc:
        raise ConfigError(str(exc), line=line) from None

    psi1 = _parse_model(entries, "psi1", spec)
    psi2 = _parse_model(entries, "psi2", spec)

    line, value = _single(entries, "hypothesis", "p", default="2.0")
    p = _to_float(value, line, "hypothesis p")

    line, value = _single(entries, "continuation", "schedule")
    if value is None:
        schedule = _DEFAULT_SCHEDULE
    else:
        schedule = tuple(
            _to_float(x, line, "schedule entry") for x in value.split()
        )
    line, value = _single(entries, "continuation", "tol")
    scenario_kw = {} if value is None else {"tol": _to_float(value, line, "tol")}

    line_c, value = _single(entries, "estimates", "C")
    C_config = None if value is None else _to_float(value, line_c, "estimates C")

    settings_kw = {}
    for key in (f.name for f in fields(EstimateSettings)):
        line, value = _single(entries, "estimates", key)
        if value is not None:
            settings_kw[key] = _to_float(value, line, f"estimates {key}")
    try:
        settings = EstimateSettings(**settings_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    _, name = _single(entries, "output", "name", default="custom")
    output_kw = {}
    _, value = _single(entries, "output", "directory")
    if value is not None:
        output_kw["directory"] = value
    line_f, value = _single(entries, "output", "formats")
    if value is not None:
        output_kw["formats"] = tuple(f.strip() for f in value.split(",") if f.strip())
    try:
        output = OutputSettings(**output_kw)
    except ValueError as exc:
        raise ConfigError(str(exc), line=line_f) from None

    try:
        scenario = Scenario(
            name=name,
            spec=spec,
            alpha=alpha,
            psi1=psi1,
            psi2=psi2,
            p=p,
            eps_schedule=schedule,
            C_config=C_config,
            **scenario_kw,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    # Reject an outer exclusion radius that leaves the Hoelder stencil no
    # admissible pair on this grid, balance the masses, compute the
    # hypothesis flags, and render the canonical echo whose hash keys the
    # output directory.
    try:
        _check_exclusion(scenario, settings)
        scenario = enforce_mass_balance(scenario)
        satisfied, notes = _hypothesis_notes(scenario)
        echo = canonical_text(scenario, settings, output)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(
        scenario=scenario,
        settings=settings,
        output=output,
        hypothesis_satisfied=satisfied,
        hypothesis_notes=notes,
        echo=echo,
        config_hash=hashlib.sha256(echo.encode()).hexdigest(),
    )


def with_resolution(experiment: ExperimentConfig, N: int) -> ExperimentConfig:
    """The same experiment on an ``N``-point grid (resolution studies): its
    canonical echo re-parsed with only the ``N = ...`` line changed."""
    spec = experiment.scenario.spec
    # Rejected here, so the message names no line of an echo the user never wrote.
    TorusSpec(n=spec.n, N=N)
    echo = experiment.echo.replace(f"\nN = {spec.N}\n", f"\nN = {N}\n", 1)
    return parse_config(echo)
