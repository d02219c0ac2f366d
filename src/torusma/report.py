"""Run records: the per-rung CSV, verdict block and stored states, compared.

A run record is the diff-able artifact of one experiment: a seven-column
CSV of per-rung scalars, a plain-text verdict block, the canonical config
echo, and (optionally) the solved potential fields for later re-checking.
Everything is rendered deterministically — fixed column order, fixed verdict
order, shortest-round-trip floats — so identical configs produce
byte-identical records.

This module is the record format and decides nothing: every verdict comes,
in its fixed order, from ``estimates.record_verdicts``, and every cell from
its rung's state.  It declares the record's columns once, each with its
``compare`` tolerance, and the members of ``states.npz`` once, in archive
order, each with the state attribute it stores.  :func:`run_experiment`
alone writes a record: it makes the run directory, streams each solved
``phi`` into ``states.npz`` on a writer thread and keeps only the rung's
scalars, renames the archive into place once it is complete and writes the
text files; a run that fails leaves no archive, no temporary file and no
directory it made.

Column semantics: ``weighted_c2_sup`` is the global supremum of the weighted
trace ``q * exp(psi2_eps - 2 C Phi)`` with the rung-smoothed weight, and
``min_siu_residual`` uses the ladder's constant ``C`` that every state
carries.  ``continuation`` builds every state, when a ladder is solved and
when ``continuation.rebuild_states`` (re-exported here) re-checks the
stored ``phi`` fields, so ``verify`` re-runs the very code ``run`` ran.  An
unreadable ``states.npz`` raises ``ValueError``, an unreadable
``report.csv`` ``SchemaMismatch``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import uuid
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, estimates
from .config import ExperimentConfig, parse_config
from .continuation import ContinuationState, rebuild_states, run_continuation

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

# Each record column and its ``compare`` tolerance, (absolute, relative) or
# None for an informational column.  ``eps``, ``delta_eps`` and
# ``newton_steps`` are read from the state, every other column is the
# diagnostic of its name.
_COLUMNS = {
    "eps": (0.0, 0.0),
    "delta_eps": (1e-4, 1e-6),
    "sup_phi": (1e-3, 0.0),
    "newton_steps": None,
    "weighted_c2_sup": (1e-6, 0.1),
    "min_siu_residual": (5e-2, 0.1),
    "trace_defect": (1e-9, 0.0),
}
_STATE_COLUMNS = ("eps", "delta_eps", "newton_steps")


@dataclass(frozen=True)
class RunRecord:
    name: str
    config_hash: str
    tool_version: str
    C_used: float
    C_source: str
    rows: tuple[tuple[float, float, float, int, float, float, float], ...]
    verdicts: tuple[estimates.Verdict, ...]
    hypothesis_satisfied: bool
    hypothesis_notes: tuple[str, ...]

    @property
    def violated(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.verdicts if v.status == estimates.VIOLATED)

    @property
    def inconclusive(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.verdicts if v.status == estimates.INCONCLUSIVE)


def _rung_rows(states) -> tuple:
    """The CSV rows, each column read by its name."""
    return tuple(
        tuple(getattr(s, c) if c in _STATE_COLUMNS else s.diagnostics[c] for c in _COLUMNS)
        for s in states
    )


def build_record(experiment: ExperimentConfig, states) -> RunRecord:
    """The record of solved states, or of what :func:`run_experiment` kept of
    them: their per-rung rows and every verdict of
    ``estimates.record_verdicts``."""
    scenario = experiment.scenario
    return RunRecord(
        name=scenario.name,
        config_hash=experiment.config_hash,
        tool_version=__version__,
        C_used=float(states[0].C),
        C_source="configured" if scenario.C_config is not None else "certified",
        rows=_rung_rows(states),
        verdicts=estimates.record_verdicts(scenario, states),
        hypothesis_satisfied=experiment.hypothesis_satisfied,
        hypothesis_notes=experiment.hypothesis_notes,
    )


@dataclass(frozen=True)
class _RungSummary:
    """What the record and the command's warnings read of one solved rung:
    its scalars and its solve's counts summed over the grids, no field."""

    eps: float
    delta_eps: float
    newton_steps: int
    C: float
    diagnostics: dict
    gmres_info_nonzero: int
    nested_rejected: int

    @classmethod
    def of(cls, state: ContinuationState) -> "_RungSummary":
        grids = list(state.solve.grids())
        return cls(
            eps=state.eps,
            delta_eps=state.delta_eps,
            newton_steps=state.newton_steps,
            C=state.C,
            diagnostics=state.diagnostics,
            gmres_info_nonzero=sum(g.gmres_info_nonzero for g in grids),
            nested_rejected=sum(g.nested_rejected for g in grids),
        )


def run_experiment(experiment: ExperimentConfig, outdir: str):
    """Solve the ladder and write its record into ``outdir``; returns
    ``(rungs, record)``, ``rungs`` holding per rung its scalars and solve
    counts, but no field.

    The directory and ``states.npz`` are opened before the first rung, and
    each state streams into the archive as it is solved; only its scalars
    are kept, so memory does not grow with the number of rungs.  Any
    exception removes the temporary archive and every directory made here.
    """
    created = _missing_directories(outdir)
    try:
        os.makedirs(outdir, exist_ok=True)
        keep_states = "states" in experiment.output.formats
        archive = _StatesArchive(outdir, experiment) if keep_states else None

        def kept(state: ContinuationState) -> _RungSummary:
            if archive:
                archive.add(state)
            return _RungSummary.of(state)

        with archive or contextlib.nullcontext():
            rungs = run_continuation(experiment.scenario, kept)
            record = build_record(experiment, rungs)
            if archive:
                archive.close()
        write_artifacts(outdir, experiment, record)
    except BaseException:
        _remove_directories(created)
        raise
    return rungs, record


def _missing_directories(path: str) -> list[str]:
    """The directories ``os.makedirs(path)`` would create, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _remove_directories(created: list[str]) -> None:
    """Remove the run directory in ``created`` and each parent it left empty."""
    if created:
        shutil.rmtree(created[0], ignore_errors=True)
    for parent in created[1:]:
        try:
            os.rmdir(parent)
        except OSError:
            break


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def render_csv(record: RunRecord) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_COLUMNS)
    for row in record.rows:
        writer.writerow(str(v) if isinstance(v, int) else _fmt(v) for v in row)
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
    for verdict in record.verdicts:
        lines.append(f"[{verdict.status}] {verdict.name}: {verdict.summary}")
        for key, value in verdict.data:
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


def write_artifacts(outdir: str, experiment: ExperimentConfig, record: RunRecord) -> None:
    """Write the config echo into the existing ``outdir``, and the CSV and
    verdict block that ``[output] formats`` lists."""
    formats = experiment.output.formats
    with open(os.path.join(outdir, "config.ini"), "w", newline="") as f:
        f.write(experiment.echo)
    if "verdicts" in formats:
        with open(os.path.join(outdir, "verdicts.txt"), "w", newline="") as f:
            f.write(render_verdicts(record))
    if "csv" in formats:
        with open(os.path.join(outdir, "report.csv"), "w", newline="") as f:
            f.write(render_csv(record))


# Each per-rung member of ``states.npz`` and the state attribute it stores,
# in archive order: ``phi`` first, so that it can be written while the
# ladder solves.  A ``meta`` member after them names the record.
_MEMBERS = {"phi": "phi", "eps": "eps", "delta": "delta_eps", "newton_steps": "newton_steps"}


class _StatesArchive:
    """The ``states.npz`` of one run, written while its ladder solves.

    Opened under a unique temporary name in ``outdir``, with the header of
    ``phi.npy`` shaped for the experiment's schedule and grid.  :meth:`add`
    hands a state's potential to one writer thread, which deflates it into
    ``phi.npy`` while the caller goes on, so the potential must not be
    written into afterwards, and keeps its other members; :meth:`close`
    waits for the writer, checks that every rung was added, writes the
    other members and renames the archive to ``states.npz``.  Each member
    holds the bytes ``np.savez_compressed`` would write.  Leaving the
    ``with`` block without :meth:`close` stops the writer and removes the
    temporary file, so no partial archive is left.
    """

    def __init__(self, outdir: str, experiment: ExperimentConfig):
        scenario = experiment.scenario
        self._path = os.path.join(outdir, "states.npz")
        self._tmp = os.path.join(outdir, f".states-{uuid.uuid4().hex}.npz")
        self._shape = (len(scenario.eps_schedule), *scenario.spec.shape)
        self._meta = {
            "name": scenario.name,
            "config_hash": experiment.config_hash,
            "tool_version": __version__,
        }
        self._kept = {key: [] for key in _MEMBERS.values() if key != "phi"}
        self._pending = []
        self._closed = False
        self._zip = zipfile.ZipFile(self._tmp, "x", zipfile.ZIP_DEFLATED, allowZip64=True)
        self._phi = None
        try:
            self._phi = self._zip.open("phi.npy", "w", force_zip64=True)
            header = {"descr": "<f8", "fortran_order": False, "shape": self._shape}
            np.lib.format.write_array_header_1_0(self._phi, header)
        except BaseException:
            self._discard()
            raise
        self._writer = ThreadPoolExecutor(1)

    def add(self, state: ContinuationState) -> None:
        """Hand the state's potential to the writer, in rung order, and keep
        its other members."""
        values = np.ascontiguousarray(state.phi.values, dtype="<f8")
        if values.shape != self._shape[1:]:
            raise ValueError(
                f"states.npz holds potentials of shape {self._shape[1:]}, "
                f"not {values.shape}"
            )
        self._pending.append(self._writer.submit(self._phi.write, values))
        for key, kept in self._kept.items():
            kept.append(getattr(state, key))

    def close(self) -> None:
        """Wait for the writer, write the other members and ``meta``, and
        rename the archive to ``states.npz``."""
        self._writer.shutdown()
        for written in self._pending:
            written.result()
        if len(self._pending) != self._shape[0]:
            raise ValueError(
                f"states.npz holds {self._shape[0]} rungs; "
                f"{len(self._pending)} states were added"
            )
        self._phi.close()
        for name, key in _MEMBERS.items():
            if key != "phi":
                with self._zip.open(f"{name}.npy", "w", force_zip64=True) as f:
                    np.lib.format.write_array(f, np.array(self._kept[key]))
        with self._zip.open("meta.npy", "w", force_zip64=True) as f:
            np.lib.format.write_array(f, np.array(json.dumps(self._meta)))
        self._zip.close()
        os.replace(self._tmp, self._path)
        self._closed = True

    def __enter__(self) -> _StatesArchive:
        return self

    def __exit__(self, *exc_info) -> None:
        self._writer.shutdown(cancel_futures=True)
        if not self._closed:
            self._discard()

    def _discard(self) -> None:
        # Closed, then removed: an error while closing a file that is removed
        # anyway changes nothing.
        for handle in (self._phi, self._zip):
            if handle is not None:
                with contextlib.suppress(OSError):
                    handle.close()
        with contextlib.suppress(FileNotFoundError):
            os.remove(self._tmp)


def load_states(outdir: str, experiment: ExperimentConfig) -> list[ContinuationState]:
    """Rebuild continuation states from a stored record (no solving).

    The stored fields are trusted for ``phi``; all per-rung diagnostics are
    recomputed by :func:`rebuild_states`, which is exactly what an
    estimates-only verification needs.  Raises ``FileNotFoundError`` for
    missing states, ``ValueError`` for an archive that is not a readable
    record (damaged, missing a member or the config hash, no rungs, or
    per-rung arrays of different lengths), for a foreign config hash, for
    ``eps`` other than the schedule's and for non-finite fields, and ``EstimateError`` or ``PositivityError`` when an
    estimate's precondition fails on the stored fields.
    """
    path = os.path.join(outdir, "states.npz")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no stored states at {path}; run with 'states' in output formats first"
        )
    try:
        # numpy leaves a file it opened itself open when the archive is
        # damaged, so the file is opened, and closed, here.
        with open(path, "rb") as f, np.load(f) as data:
            missing = [name for name in ("meta", *_MEMBERS) if name not in data.files]
            if missing:
                raise ValueError(f"stored states at {path} lack {', '.join(missing)}")
            meta = json.loads(str(data["meta"]))
            phi, eps, delta, steps = (data[name] for name in _MEMBERS)
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


class SchemaMismatch(ValueError):
    """The two records are not comparable (columns, rungs, or scenario differ)."""


@dataclass(frozen=True)
class CompareResult:
    ok: bool
    lines: tuple[str, ...]


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
    if header_a != tuple(_COLUMNS):
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
    for j, (col, tol) in enumerate(_COLUMNS.items()):
        va = np.array([r[j] for r in rows_a])
        vb = np.array([r[j] for r in rows_b])
        worst = float(np.max(np.abs(va - vb))) if len(va) else 0.0
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
