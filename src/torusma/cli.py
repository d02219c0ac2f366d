"""Command-line interface.

Verbs:

* ``run <scenario|config>`` — full continuation plus estimate verdicts;
  ``report.run_experiment`` writes the run record (config echo, CSV,
  verdict block, states) into a directory keyed by the config hash, and a
  run that ends early leaves no record; this module only maps the outcome
  to an exit code.
* ``verify <scenario|config|rundir>`` — recompute every estimate verdict
  from the stored potential fields of an earlier run, without solving
  anything, and check the stored CSV still matches byte for byte (a
  mismatch names its first differing line on stderr).  A run directory is
  verified in place; a scenario name or config path is located under the
  configured output directory.
* ``compare <dirA> <dirB>`` — column-wise record comparison with
  per-column tolerances (regression and resolution studies).
* ``list-scenarios`` — the bundled scenario library.

``main`` keeps freed heap memory for reuse (glibc); the library does not.

Exit codes: 0 success; 1 verdict failure (any violated check, or any
inconclusive check under ``--strict``); 2 solver or estimate failure;
3 configuration error; 4 internal error (an unexpected exception, reported
as one ``internal error:`` line).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from itertools import zip_longest

from .config import ConfigError, ExperimentConfig, parse_config, with_resolution
from .continuation import ContinuationError
from .estimates import EstimateError
from .ma import PositivityError
from .pluripotential import RegularizationContractError
from .report import (
    SchemaMismatch,
    build_record,
    compare_records,
    load_states,
    render_csv,
    render_verdicts,
    run_experiment,
)
from .scenarios import bundled_descriptions, bundled_experiment, bundled_names

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusma",
        description=(
            "Desk-scale continuation laboratory for degenerate complex "
            "Monge-Ampere equations on flat tori."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_target(p):
        p.add_argument(
            "target",
            help="bundled scenario name or path to a config file",
        )
        p.add_argument(
            "--resolution-override",
            type=int,
            default=None,
            metavar="N",
            help="re-run the scenario on an N-point grid",
        )
        p.add_argument(
            "--output-dir",
            default=None,
            metavar="DIR",
            help="parent directory for run records (default: from config)",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="treat inconclusive verdicts as failures",
        )

    add_target(sub.add_parser("run", help="solve the ladder and write the record"))
    add_target(
        sub.add_parser(
            "verify", help="recompute estimates from a stored record"
        )
    )
    cmp_p = sub.add_parser("compare", help="compare two run records")
    cmp_p.add_argument("record_a")
    cmp_p.add_argument("record_b")
    sub.add_parser("list-scenarios", help="list the bundled scenario library")
    return parser


def _resolve(target: str, resolution_override: int | None) -> ExperimentConfig:
    path = target
    if os.path.isdir(target):
        path = os.path.join(target, "config.ini")
        if not os.path.isfile(path):
            raise ConfigError(f"directory {target!r} contains no config.ini")
    if os.path.exists(path):
        with open(path) as f:
            experiment = parse_config(f.read())
    elif target in bundled_names():
        experiment = bundled_experiment(target)
    else:
        raise ConfigError(
            f"{target!r} is neither a config file nor a bundled scenario "
            f"(bundled: {', '.join(bundled_names())})"
        )
    if resolution_override is not None:
        try:
            experiment = with_resolution(experiment, resolution_override)
        except ValueError as exc:
            raise ConfigError(f"resolution override: {exc}") from None
    return experiment


def _run_dir(experiment: ExperimentConfig, output_dir: str | None) -> str:
    parent = output_dir if output_dir is not None else experiment.output.directory
    return os.path.join(
        parent, f"{experiment.scenario.name}-{experiment.config_hash[:12]}"
    )


def _verdict_exit(record, strict: bool) -> int:
    if record.violated:
        return EXIT_VERDICT
    if strict and record.inconclusive:
        return EXIT_VERDICT
    return EXIT_OK


def _warn_per_rung(rungs) -> None:
    for index, rung in enumerate(rungs):
        for count, what in (
            (
                rung.gmres_info_nonzero,
                "GMRES solve(s) stopped short of the inner tolerance",
            ),
            (
                rung.nested_rejected,
                "nested-grid start(s) rejected; Newton started without the coarse correction",
            ),
        ):
            if count:
                print(
                    f"warning: rung {index} (eps={rung.eps:g}): {count} {what}",
                    file=sys.stderr,
                )


def _cmd_run(args) -> int:
    experiment = _resolve(args.target, args.resolution_override)
    outdir = _run_dir(experiment, args.output_dir)
    try:
        rungs, record = run_experiment(experiment, outdir)
    except ContinuationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _warn_per_rung(rungs)
    sys.stdout.write(render_verdicts(record))
    print(f"artifacts: {outdir}")
    return _verdict_exit(record, args.strict)


def _first_difference(stored: str, recomputed: str) -> str:
    """The number and both texts of the first line where two texts differ."""
    lines = zip_longest(stored.splitlines(True), recomputed.splitlines(True))
    number, texts = next((i, pair) for i, pair in enumerate(lines, 1) if pair[0] != pair[1])
    stored_line, recomputed_line = (
        "(end of file)" if line is None else line.rstrip("\r\n") for line in texts
    )
    return (
        f"  first difference at line {number}:\n"
        f"    stored:     {stored_line}\n"
        f"    recomputed: {recomputed_line}"
    )


def _cmd_verify(args) -> int:
    experiment = _resolve(args.target, args.resolution_override)
    if os.path.isdir(args.target):
        # A run directory is a self-contained record; verify it in place.
        outdir = args.target
    else:
        outdir = _run_dir(experiment, args.output_dir)
    try:
        states = load_states(outdir, experiment)
        record = build_record(experiment, states)
    except (EstimateError, PositivityError, RegularizationContractError) as exc:
        print(f"estimate error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        # foreign states, malformed or non-finite arrays, unusable settings
        raise ConfigError(str(exc)) from None
    sys.stdout.write(render_verdicts(record))
    csv_path = os.path.join(outdir, "report.csv")
    if os.path.exists(csv_path):
        with open(csv_path, newline="") as f:
            stored = f.read()
        recomputed = render_csv(record)
        if stored == recomputed:
            print("stored report.csv is consistent with the recomputed record")
        else:
            print(
                "stored report.csv DIFFERS from the recomputed record\n"
                + _first_difference(stored, recomputed),
                file=sys.stderr,
            )
            return EXIT_VERDICT
    return _verdict_exit(record, args.strict)


def _cmd_compare(args) -> int:
    result = compare_records(args.record_a, args.record_b)
    for line in result.lines:
        print(line)
    if result.ok:
        print("records agree within tolerances")
        return EXIT_OK
    print("records disagree", file=sys.stderr)
    return EXIT_VERDICT


def _cmd_list(_args) -> int:
    descriptions = bundled_descriptions()
    width = max(len(n) for n in descriptions)
    for name in bundled_names():
        print(f"{name:<{width}}  {descriptions[name]}")
    return EXIT_OK


def _keep_freed_memory() -> None:
    """Serve grid-sized arrays from the heap and keep what is freed (glibc only).

    Either setting alone switches off glibc's dynamic thresholds and faults
    more pages in than neither; elsewhere this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: 1 GiB
    except (AttributeError, OSError, TypeError):
        pass


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "verify":
            return _cmd_verify(args)
        if args.verb == "compare":
            return _cmd_compare(args)
        return _cmd_list(args)
    except (ConfigError, OSError, SchemaMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
