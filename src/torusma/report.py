"""Run records: per-rung CSV, verdict block, stored states, comparison.

A run record is the diff-able artifact of one experiment: a seven-column
CSV of per-rung scalars, a plain-text verdict block, the canonical config
echo, and (optionally) the solved potential fields for later re-checking.
Everything is rendered deterministically — fixed column order, fixed verdict
order, shortest-round-trip floats — so identical configs produce
byte-identical records.

Column semantics: ``weighted_c2_sup`` is the global supremum of the weighted
trace ``q * exp(psi2_eps - 2 C Phi)`` with the rung-smoothed weight, and
``min_siu_residual`` uses the scenario's resolved constant ``C``; the
weighted-second-order verdict reads each rung's ``sharp_weighted_sup``.

Per-rung scalars — the CSV columns and the inputs of the identity,
inequality, weighted-second-order and unweighted-growth verdicts — are read
from each state's ``diagnostics``.  One constructor in ``continuation``
builds every state, when a ladder is solved and when :func:`rebuild_states`
re-checks the stored ``phi`` fields, so ``verify`` re-runs the very code
``run`` ran.  An unreadable ``states.npz`` raises ``ValueError``, an
unreadable ``report.csv`` ``SchemaMismatch``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from . import __version__, estimates
from .config import ExperimentConfig, parse_config
from .continuation import (
    ContinuationState,
    Scenario,
    _Ladder,
    _rung_state,
    run_continuation,
    smoothed_potentials,
)
from .geometry import GridField
from .pluripotential import density_lp_check, skoda_integrability

__all__ = [
    "RunRecord",
    "build_record",
    "run_experiment",
    "render_csv",
    "render_verdicts",
    "write_artifacts",
    "load_states",
    "rebuild_states",
    "compare_records",
    "CompareResult",
    "SchemaMismatch",
]

_COLUMNS = (
    "eps",
    "delta_eps",
    "sup_phi",
    "newton_steps",
    "weighted_c2_sup",
    "min_siu_residual",
    "trace_defect",
)

# The CSV columns read from each state's ``diagnostics``, in column order.
_DIAGNOSTIC_COLUMNS = ("weighted_c2_sup", "siu_min_residual", "trace_defect")
_TRACE_DEFECT_BOUND = 1e-10
_SIU_FLOOR = -1e-4
_COMPARISON_FLOOR = -1e-8
_UNWEIGHTED_GROWTH_FACTOR = 5.0


@dataclass(frozen=True)
class RunRecord:
    name: str
    config_hash: str
    tool_version: str
    C_used: float
    C_source: str
    rows: tuple[tuple[float, float, float, int, float, float, float], ...]
    reports: tuple[estimates.EstimateReport, ...]
    hypothesis_satisfied: bool
    hypothesis_notes: tuple[str, ...]

    @property
    def violated(self) -> tuple[str, ...]:
        return tuple(
            r.name for r in self.reports if r.verdict.status == estimates.VIOLATED
        )

    @property
    def inconclusive(self) -> tuple[str, ...]:
        return tuple(
            r.name
            for r in self.reports
            if r.verdict.status == estimates.INCONCLUSIVE
        )


def _rung_rows(states) -> tuple:
    return tuple(
        (s.eps, s.delta_eps, float(np.max(np.abs(s.phi.values))), int(s.newton_steps))
        + tuple(s.diagnostics[key] for key in _DIAGNOSTIC_COLUMNS)
        for s in states
    )


def _bound_report(
    name: str, value: float, bound: float, kind: str
) -> estimates.EstimateReport:
    """Verdict for a scalar against a one-sided bound (``max``: value<=bound,
    ``min``: value>=bound)."""
    ok = value <= bound if kind == "max" else value >= bound
    rel = "<=" if kind == "max" else ">="
    verdict = estimates.Verdict(
        estimates.HOLDS if ok else estimates.VIOLATED,
        f"{value:.6g} {rel} {bound:g}"
        if ok
        else f"{value:.6g} violates {rel} {bound:g}",
        witness=((name, float(value)),),
    )
    return estimates.EstimateReport(name=name, verdict=verdict)


def _holder_report(
    scenario: Scenario, settings, states
) -> estimates.EstimateReport:
    """Interior-regularity verdict plus concentration diagnostics.

    The verdict is the stability clause alone: the gradient seminorm away
    from the singular set (outer exclusion radius) settles down the ladder.
    The inner/outer concentration ratio and the embedding-probe numbers are
    reported as data — their magnitudes are resolution- and
    geometry-dependent, so they are not gated here.  The final rung is
    measured at both radii in one stencil pass.
    """
    spec = scenario.spec
    centers = scenario.singular_centers
    gamma = settings.holder_gamma
    outer_r = settings.exclusion_outer * spec.h
    inner_r = settings.exclusion_inner * spec.h
    outer = [
        estimates.holder_seminorm(s.phi, gamma, outer_r, centers)
        for s in states[-3:-1]
    ]
    outer_final, inner_final = estimates.holder_seminorms(
        states[-1].phi, gamma, (outer_r, inner_r), centers
    )
    outer.append(outer_final)
    probe = estimates.sobolev_holder_probe(
        states[-1].phi,
        gamma,
        settings.sobolev_q,
        outer_r,
        centers,
        holder=outer_final,
    )
    lo, hi = min(outer), max(outer)
    if hi <= 1e-12:  # identically flat potential: nothing to measure
        spread = 1.0
    elif lo == 0.0:
        spread = float("inf")
    else:
        spread = hi / lo
    if outer[-1] > 0:
        ratio = inner_final / outer[-1]
    else:
        ratio = 1.0 if inner_final <= 1e-12 else float("inf")
    if spread <= 1.5:
        verdict = estimates.Verdict(
            estimates.HOLDS,
            f"outer-radius seminorm stable over last 3 rungs "
            f"(spread {spread:.3g} <= 1.5)",
            witness=(("spread", float(spread)),),
        )
    else:
        verdict = estimates.Verdict(
            estimates.VIOLATED,
            f"outer-radius seminorm spread {spread:.3g} exceeds 1.5",
            witness=(("spread", float(spread)),),
        )
    data = (
        ("outer_seminorm_final", float(outer[-1])),
        ("inner_seminorm_final", float(inner_final)),
        ("concentration_ratio", float(ratio)),
        ("sobolev_norm_final", probe.sobolev_norm),
        ("holder_to_sobolev_ratio", probe.ratio),
    ) + tuple((f"embedding_margin_{k}", v) for k, v in probe.margins)
    return estimates.EstimateReport(
        name="interior-regularity", verdict=verdict, data=data
    )


def _skoda_report(scenario: Scenario) -> estimates.EstimateReport | None:
    if not scenario.psi2.poles:
        return None
    statuses = []
    data = []
    for i, pole in enumerate(scenario.psi2.poles):
        result = skoda_integrability(scenario.psi2, scenario.p, pole.center)
        data.append((f"margin_{i}", float(result.margin)))
        data.append((f"increment_ratio_{i}", float(result.increment_ratio)))
        if result.borderline or result.numeric_verdict == "marginal":
            statuses.append(estimates.INCONCLUSIVE)
        elif (result.numeric_verdict == "integrable") == result.integrable:
            statuses.append(estimates.HOLDS)
        else:
            statuses.append(estimates.VIOLATED)
    if estimates.VIOLATED in statuses:
        status, summary = estimates.VIOLATED, "numeric verdict contradicts analytic dichotomy"
    elif estimates.INCONCLUSIVE in statuses:
        status, summary = estimates.INCONCLUSIVE, "borderline dichotomy margin"
    else:
        status, summary = estimates.HOLDS, "numeric verdict matches analytic dichotomy at every pole"
    return estimates.EstimateReport(
        name="singular-integrability",
        verdict=estimates.Verdict(status, summary),
        data=tuple(data),
    )


def _density_report(scenario: Scenario) -> estimates.EstimateReport:
    check = density_lp_check(scenario.psi1, scenario.psi2, scenario.p)
    data = (
        ("lp_norm", float(check.norm)),
        ("refined_lp_norm", float(check.refined_norm)),
        ("refinement_ratio", float(check.refinement_ratio)),
    )
    if check.flagged:
        verdict = estimates.Verdict(
            estimates.VIOLATED,
            f"L^p norm grows by {check.refinement_ratio:.3g} under refinement — "
            f"density hypothesis at risk",
            witness=data,
        )
    else:
        verdict = estimates.Verdict(
            estimates.HOLDS,
            f"L^p norm stable under refinement (ratio {check.refinement_ratio:.4g})",
        )
    return estimates.EstimateReport(
        name="density-hypothesis", verdict=verdict, data=data
    )


def build_record(experiment: ExperimentConfig, states) -> RunRecord:
    """All ladder-level verdicts and per-rung rows for solved states."""
    scenario = experiment.scenario
    settings = experiment.settings
    C = scenario.resolved_C()
    reports = [
        estimates.EstimateReport(name=name, verdict=verdict(states))
        for name, verdict in (
            ("normalization", estimates.delta_trend),
            ("uniform-bound", estimates.c0_uniformity),
            ("weighted-second-order", estimates.c2_uniformity),
        )
    ]
    for name, key, bound, kind in (
        ("trace-identity", "trace_defect", _TRACE_DEFECT_BOUND, "max"),
        # Exact algebra, but spectral round-off scales with the largest Hessian
        # multiplier (~ N^2); ten solver tolerances is the operative bound.
        ("shift-identity", "shift_defect", 10.0 * scenario.tol, "max"),
        ("inequality-main", "siu_min_residual", _SIU_FLOOR, "min"),
        ("inequality-comparison", "comparison_min", _COMPARISON_FLOOR, "min"),
    ):
        worst = (max if kind == "max" else min)(s.diagnostics[key] for s in states)
        reports.append(_bound_report(name, worst, bound, kind))

    reports.append(_holder_report(scenario, settings, states))

    if scenario.psi2.poles:
        q_sups = [s.diagnostics["q_sup"] for s in states]
        growth = max(q_sups) / q_sups[0]
        reports.append(
            _bound_report(
                "unweighted-growth",
                growth,
                _UNWEIGHTED_GROWTH_FACTOR,
                "min",
            )
        )
        skoda_rep = _skoda_report(scenario)
        if skoda_rep is not None:
            reports.append(skoda_rep)
    reports.append(_density_report(scenario))

    return RunRecord(
        name=scenario.name,
        config_hash=experiment.config_hash,
        tool_version=__version__,
        C_used=float(C),
        C_source="configured" if scenario.C_config is not None else "certified",
        rows=_rung_rows(states),
        reports=tuple(reports),
        hypothesis_satisfied=experiment.hypothesis_satisfied,
        hypothesis_notes=experiment.hypothesis_notes,
    )


def run_experiment(experiment: ExperimentConfig):
    """Full continuation plus record building; returns ``(states, record)``."""
    states = run_continuation(experiment.scenario)
    return states, build_record(experiment, states)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def render_csv(record: RunRecord) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_COLUMNS)
    for eps, delta, sup_phi, steps, *diagnostics in record.rows:
        cells = [_fmt(eps), _fmt(delta), _fmt(sup_phi), str(steps)]
        writer.writerow(cells + [_fmt(v) for v in diagnostics])
    return buf.getvalue()


def render_verdicts(record: RunRecord) -> str:
    lines = [
        f"scenario: {record.name}",
        f"config-hash: {record.config_hash}",
        f"tool-version: {record.tool_version}",
        f"hypothesis: {'satisfied' if record.hypothesis_satisfied else 'NOT satisfied'}",
        f"constant C = {record.C_used:.10g} ({record.C_source})",
    ]
    for note in record.hypothesis_notes:
        lines.append(f"  note: {note}")
    lines.append("")
    for rep in record.reports:
        lines.append(f"[{rep.verdict.status}] {rep.name}: {rep.verdict.summary}")
        for key, value in rep.data:
            lines.append(f"    {key} = {value:.10g}")
    lines.append("")
    if record.violated:
        lines.append("overall: FAIL (violated: " + ", ".join(record.violated) + ")")
    elif record.inconclusive:
        lines.append(
            "overall: pass with inconclusive checks ("
            + ", ".join(record.inconclusive)
            + ")"
        )
    else:
        lines.append("overall: pass")
    return "\n".join(lines) + "\n"


def write_artifacts(outdir: str, experiment: ExperimentConfig, record: RunRecord, states) -> None:
    """Write config echo, CSV, verdict block, and states under ``outdir``."""
    os.makedirs(outdir, exist_ok=True)
    formats = experiment.output.formats
    with open(os.path.join(outdir, "config.ini"), "w", newline="") as f:
        f.write(experiment.echo)
    with open(os.path.join(outdir, "verdicts.txt"), "w", newline="") as f:
        f.write(render_verdicts(record))
    if "csv" in formats:
        with open(os.path.join(outdir, "report.csv"), "w", newline="") as f:
            f.write(render_csv(record))
    if "states" in formats:
        _write_states(os.path.join(outdir, "states.npz"), record, states)


def _write_states(path: str, record: RunRecord, states) -> None:
    """The ``states.npz`` of ``np.savez_compressed``, but ``phi.npy`` gets its
    header and then each rung's buffer: the stack is never built in memory."""
    meta = {key: getattr(record, key) for key in ("name", "config_hash", "tool_version")}
    header = np.lib.format.header_data_from_array_1_0(states[0].phi.values)
    header["shape"] = (len(states),) + header["shape"]
    columns = {"eps": "eps", "delta": "delta_eps", "newton_steps": "newton_steps"}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, allowZip64=True) as zf:
        for name, key in columns.items():
            with zf.open(f"{name}.npy", "w", force_zip64=True) as f:
                np.lib.format.write_array(f, np.array([getattr(s, key) for s in states]))
        with zf.open("phi.npy", "w", force_zip64=True) as f:
            np.lib.format.write_array_header_1_0(f, header)
            for s in states:
                f.write(np.ascontiguousarray(s.phi.values))
        with zf.open("meta.npy", "w", force_zip64=True) as f:
            np.lib.format.write_array(f, np.array(json.dumps(meta)))


_STORED_MEMBERS = ("meta", "eps", "delta", "newton_steps", "phi")


def load_states(outdir: str, experiment: ExperimentConfig) -> list[ContinuationState]:
    """Rebuild continuation states from a stored record (no solving).

    The stored fields are trusted for ``phi``; all per-rung diagnostics are
    recomputed by :func:`rebuild_states`, which is exactly what an
    estimates-only verification needs.  Raises ``FileNotFoundError`` for
    missing states, ``ValueError`` for an archive that is not a readable
    record (damaged, missing a member or the config hash, no rungs, or
    per-rung arrays of different lengths), for a foreign config hash and for
    non-finite fields, and ``EstimateError`` or ``PositivityError`` when an
    estimate's precondition fails on the stored fields.
    """
    path = os.path.join(outdir, "states.npz")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no stored states at {path}; run with 'states' in output formats first"
        )
    try:
        with np.load(path) as data:
            missing = [name for name in _STORED_MEMBERS if name not in data.files]
            if missing:
                raise ValueError(f"stored states at {path} lack {', '.join(missing)}")
            meta = json.loads(str(data["meta"]))
            eps, delta, steps, phi = (data[name] for name in _STORED_MEMBERS[1:])
    except (zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(
            f"stored states at {path} are not a readable archive: {exc}"
        ) from None
    if not isinstance(meta, dict) or "config_hash" not in meta:
        raise ValueError(f"stored states at {path} carry no config hash")
    if meta["config_hash"] != experiment.config_hash:
        raise ValueError(
            f"stored states were produced by config {str(meta['config_hash'])[:12]}, "
            f"expected {experiment.config_hash[:12]}"
        )
    return rebuild_states(experiment.scenario, eps, delta, steps, phi)


def rebuild_states(
    scenario: Scenario, eps, delta, steps, phi
) -> list[ContinuationState]:
    """Continuation states from stored per-rung arrays, without solving.

    The arrays must describe the same positive number of rungs, and every
    stored potential is validated as a grid field before any estimate runs
    (``ValueError`` otherwise); each state is then built by the constructor
    ``run_continuation`` used when the fields were solved, so a faithful
    record reproduces its diagnostics exactly.
    """
    rungs = (len(eps), len(delta), len(steps), len(phi))
    if len(set(rungs)) > 1 or not rungs[0]:
        raise ValueError(
            f"stored eps, delta, newton_steps and phi must hold the same positive "
            f"number of rungs, got {rungs}"
        )
    fields = [GridField(scenario.spec, values) for values in phi]
    ladder = _Ladder.build(scenario)
    states = []
    for e, d, n, phi_k in zip(eps, delta, steps, fields):
        smoothed = smoothed_potentials(ladder, float(e))
        states.append(_rung_state(ladder, float(e), float(d), phi_k, int(n), smoothed, {}))
    return states


class SchemaMismatch(ValueError):
    """The two records are not comparable (columns, rungs, or scenario differ)."""


@dataclass(frozen=True)
class CompareResult:
    ok: bool
    lines: tuple[str, ...]


# (absolute tolerance, relative tolerance); None = informational only
_COMPARE_TOLERANCES = {
    "eps": (0.0, 0.0),
    "delta_eps": (1e-4, 1e-6),
    "sup_phi": (1e-3, 0.0),
    "newton_steps": None,
    "weighted_c2_sup": (1e-6, 0.1),
    "min_siu_residual": (5e-2, 0.1),
    "trace_defect": (1e-9, 0.0),
}


def _read_csv_record(outdir: str):
    if os.path.basename(outdir) == "report.csv":
        outdir = os.path.dirname(outdir)
    path = os.path.join(outdir, "report.csv")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no report.csv under {outdir}")
    with open(path, newline="") as f:
        lines = list(csv.reader(f))
    if not lines:
        raise SchemaMismatch(f"{path} is empty")
    header, body = tuple(lines[0]), lines[1:]
    if any(len(row) != len(header) for row in body):
        raise SchemaMismatch(f"{path}: a row does not have {len(header)} cells")
    try:
        rows = [tuple(float(cell) for cell in row) for row in body]
    except ValueError as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None
    cfg_path = os.path.join(outdir, "config.ini")
    if not os.path.exists(cfg_path):
        raise FileNotFoundError(f"no config.ini under {outdir}")
    with open(cfg_path) as f:
        experiment = parse_config(f.read())
    return header, rows, experiment


def compare_records(dir_a: str, dir_b: str) -> CompareResult:
    """Column-wise comparison of two run records with per-column tolerances.

    Used both for regression (same config: must be identical) and for
    resolution studies (same scenario at different N: physics columns must
    agree within tolerance; iteration counts are informational).
    """
    header_a, rows_a, exp_a = _read_csv_record(dir_a)
    header_b, rows_b, exp_b = _read_csv_record(dir_b)
    if header_a != header_b:
        raise SchemaMismatch(f"column sets differ: {header_a} vs {header_b}")
    if header_a != _COLUMNS:
        raise SchemaMismatch(f"unexpected columns: {header_a}")
    if len(rows_a) != len(rows_b):
        raise SchemaMismatch(
            f"rung counts differ: {len(rows_a)} vs {len(rows_b)}"
        )
    if exp_a.scenario.name != exp_b.scenario.name:
        raise SchemaMismatch(
            f"scenario names differ: {exp_a.scenario.name!r} vs {exp_b.scenario.name!r}"
        )
    if exp_a.scenario.spec.n != exp_b.scenario.spec.n:
        raise SchemaMismatch("complex dimensions differ")
    if exp_a.scenario.eps_schedule != exp_b.scenario.eps_schedule:
        raise SchemaMismatch("continuation schedules differ")

    ok = True
    lines = []
    for j, col in enumerate(_COLUMNS):
        va = np.array([r[j] for r in rows_a])
        vb = np.array([r[j] for r in rows_b])
        worst = float(np.max(np.abs(va - vb))) if len(va) else 0.0
        tol = _COMPARE_TOLERANCES[col]
        if tol is None:
            lines.append(f"{col}: max |diff| = {worst:.6g} (informational)")
            continue
        abs_tol, rel_tol = tol
        scale = float(np.max(np.maximum(np.abs(va), np.abs(vb)))) if len(va) else 0.0
        allowed = max(abs_tol, rel_tol * scale)
        status = "ok" if worst <= allowed else "EXCEEDS"
        if worst > allowed:
            ok = False
        lines.append(
            f"{col}: max |diff| = {worst:.6g} (allowed {allowed:.6g}) {status}"
        )
    return CompareResult(ok=ok, lines=tuple(lines))
