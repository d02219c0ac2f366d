"""Configuration grammar, run records on disk, and the command-line verbs.

Everything here runs the CLI in-process through ``main(argv)``; the
acceptance suite exercises the installed console script in subprocesses.
"""

import ctypes
import io
import os
import re
import struct
import threading
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from torusma import cli
from torusma.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERDICT,
    main,
)
from torusma.config import ConfigError, EstimateSettings, parse_config, with_resolution
from torusma.report import SchemaMismatch, compare_records, load_states
from torusma.scenarios import bundled_experiment, bundled_names


MINI = """\
[torus]
n = 1
N = 32
[alpha]
t = 0.5
[psi1]
mode = 0.08, 1 0, 0.3
[psi2]
mode = 0.05, 0 1, 1.1
[hypothesis]
p = 2.0
[continuation]
schedule = 0.2 0.02 0.002
[output]
name = mini
"""

# MINI at n = 2, where Newton directions come from GMRES.
MINI_N2 = (
    MINI.replace("n = 1\nN = 32", "n = 2\nN = 8")
    .replace("1 0, 0.3", "1 0 0 0, 0.3")
    .replace("0 1, 1.1", "0 1 0 0, 1.1")
)

CHEAP_ABOVE = """\
[torus]
n = 1
N = 32
[psi2]
pole = 0.5 0.5, 1.4, 0.1, 0.2
[hypothesis]
p = 1.5
[continuation]
schedule = 0.25 0.125 0.0625
tol = 1e-8
[estimates]
C = 2.0
[output]
name = cheap-above
"""

WINDOW = """\
[torus]
n = 1
N = 128
[psi2]
pole = 0.5 0.5, 1.4, 0.1, 0.2
[hypothesis]
p = 1.5
[continuation]
schedule = 0.25 0.00390625
tol = 1e-6
[output]
name = window
"""

# A pole below the threshold on a ladder of two rungs.
SHORT_POLE = """\
[torus]
n = 1
N = 64
[psi2]
pole = 0.5 0.5, 0.5, 0.1, 0.2
[hypothesis]
p = 1.5
[continuation]
schedule = 0.00390625 0.001953125
[estimates]
C = 2.0
[output]
name = short-pole
"""

# n = 1, N = 16, t = 0.5 and one psi1 mode: a ladder that runs in a second.
# A section appended to it has its header at line 8 and its first key at 9.
TINY = "[torus]\nn = 1\nN = 16\n[alpha]\nt = 0.5\n[psi1]\nmode = 0.1, 1 0, 0.0\n"


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _truncated(data):
    return data[: len(data) // 2]


def _scrambled_phi_stream(data):
    # flip the first bytes of phi.npy's deflate stream, after its local header
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        offset = zf.getinfo("phi.npy").header_offset
    name_len, extra_len = struct.unpack("<HH", data[offset + 26 : offset + 30])
    start = offset + 30 + name_len + extra_len
    return data[:start] + bytes(b ^ 0xFF for b in data[start : start + 8]) + data[start + 8 :]


def _run_record_dir(parent, stdout):
    # the run command prints "artifacts: <dir>" last
    lines = [l for l in stdout.splitlines() if l.startswith("artifacts: ")]
    assert len(lines) == 1
    return lines[0].removeprefix("artifacts: ")


class TestConfigParsing:
    def test_round_trip_through_the_canonical_echo(self):
        exp = parse_config(MINI)
        again = parse_config(exp.echo)
        assert again.config_hash == exp.config_hash
        assert again.echo == exp.echo
        assert again.scenario.name == "mini"
        assert exp.echo.startswith("[torus]\n")

    def test_defaults_are_resolved(self):
        exp = parse_config("[torus]\nn = 1\nN = 16\n")
        s = exp.scenario
        assert s.name == "custom"
        assert s.p == 2.0
        assert s.tol == 1e-10
        assert s.eps_schedule == tuple(0.25 * 0.5**k for k in range(8))
        assert s.settings.holder_gamma == 0.5
        assert exp.output.directory == "runs"
        assert exp.hypothesis_satisfied
        assert any("holds trivially" in n for n in exp.hypothesis_notes)

    def test_balance_shift_is_baked_into_the_echo(self):
        exp = parse_config(MINI)
        # the mass-balance constant appears as a k = 0 mode of psi1
        assert exp.scenario.psi1.smooth[-1].k == (0, 0)
        assert "mode = " in exp.echo.split("[psi1]\n", 1)[1].split("[")[0]

    def test_above_threshold_pole_is_flagged_not_rejected(self):
        exp = parse_config(CHEAP_ABOVE)
        assert not exp.hypothesis_satisfied
        assert any("at risk" in n for n in exp.hypothesis_notes)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("[torus]\nn = 1\nN = 16\n[bogus]\n", "line 4: unknown section [bogus]"),
            ("[torus]\nn = 1\nN = 16\nem = 3\n", "line 4: unknown key 'em'"),
            (
                "[torus]\nn = 1\nN = 16\n[estimates]\nsobolev_d = 2\n",
                "line 5: unknown key 'sobolev_d'",
            ),
            ("[torus]\nn = one\nN = 16\n", "line 2: torus n: not an integer: 'one'"),
            ("[torus]\nN = 16\n", "missing required key 'n' in [torus]"),
            ("[torus]\nn = 1\nN = 16\nN = 32\n", "line 4: key 'N' given more than once"),
            ("n = 1\n", "line 1: assignment before any [section] header"),
            ("[torus]\nwhat even\n", "line 2: expected 'key = value'"),
            (
                "[torus]\nn = 1\nN = 16\n[psi1]\nmode = 0.1, 1 0\n",
                "line 5: mode needs 'amplitude, k-vector, phase'",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[psi1]\nmode = 0.1, 1 0 0, 0.0\n",
                "line 5: mode k-vector needs 2 integers, got 3",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[psi2]\npole = 0.5 0.5, 0.4\n",
                "line 5: pole needs 'center, weight, r0, r1'",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[psi2]\npole = 0.5 0.5, 0.4, 0.2, 0.1\n",
                "line 5: ",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[estimates]\nholder_gamma = 1.5\n",
                "line 5: holder_gamma must be in (0,1)",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[estimates]\nexclusion_inner = 1.0\n",
                "line 4: need 2 <= exclusion_inner < exclusion_outer",
            ),
            (
                "[torus]\nn = 1\nN = 32\n[psi2]\npole = 0.5 0.5, 0.5, 0.1, 0.2\n"
                "[estimates]\nexclusion_outer = 30.0\n",
                "leaves no admissible Hoelder stencil pairs",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[output]\nformats = csv,yaml\n",
                "unknown output format 'yaml'",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[continuation]\nschedule = 0.1 0.2\n",
                "line 5: schedule must be strictly decreasing",
            ),
            # A value is rejected at its own line, never at a valid neighbour's;
            # a check that spans two keys names the section header.
            ("[torus]\nn = 3\nN = 16\n", "line 2: complex dimension must be 1 or 2"),
            ("[torus]\nn = 1\nN = 7\n", "line 3: grid size must be even"),
            (
                "[torus]\nn = 1\nN = 16\n[alpha]\nt = 1.5\neps0 = 0.4\n",
                "line 5: degeneracy parameter must be in [0,1]",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[alpha]\nt = 1.5\n",
                "line 5: degeneracy parameter must be in [0,1]",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[alpha]\nt = 0.5\neps0 = 0\n",
                "line 6: integrability exponent must be positive",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[hypothesis]\np = 0.5\n"
                "[continuation]\nschedule = 0.2 0.1\n",
                "line 5: integrability exponent must exceed 1",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[estimates]\n"
                "exclusion_inner = 10.0\nexclusion_outer = 12.0\nsobolev_q = 0\n",
                "line 7: sobolev_q must be positive",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[estimates]\nholder_gamma = 0.5\n"
                "exclusion_outer = 4.0\nexclusion_inner = 6.0\n",
                "line 4: need 2 <= exclusion_inner < exclusion_outer",
            ),
            # Every number is finite, tol > 0 and C >= 0, each judged at its line.
            (TINY + "[continuation]\ntol = nan\n", "line 9: tol: not a finite number: 'nan'"),
            (TINY + "[continuation]\ntol = -1.0\n", "line 9: solver tolerance must be positive"),
            (TINY + "[continuation]\ntol = 0.0\n", "line 9: solver tolerance must be positive"),
            (
                TINY + "[continuation]\ntol = 0.0\nschedule = 0.2 0.1\n",
                "line 9: solver tolerance must be positive",
            ),
            (TINY + "[hypothesis]\np = nan\n", "line 9: hypothesis p: not a finite number"),
            (
                TINY + "[continuation]\nschedule = 0.2 nan 0.002\n",
                "line 9: schedule entry: not a finite number",
            ),
            (TINY + "[estimates]\nC = nan\n", "line 9: estimates C: not a finite number"),
            (TINY + "[estimates]\nC = -1.0\n", "line 9: configured C must be nonnegative"),
            (
                TINY + "[estimates]\nsobolev_q = nan\n",
                "line 9: estimates sobolev_q: not a finite number",
            ),
            (
                TINY + "[estimates]\nexclusion_outer = nan\n",
                "line 9: estimates exclusion_outer: not a finite number",
            ),
            (
                TINY + "[psi2]\npole = 0.5 0.5, nan, 0.1, 0.2\n",
                "line 9: pole weight: not a finite number",
            ),
        ],
    )
    def test_rejections_carry_the_offending_line(self, text, fragment):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert fragment in str(info.value)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sobolev_q": 0.0}, "sobolev_q must be positive"),
            ({"sobolev_q": float("nan")}, "sobolev_q must be positive"),
            ({"exclusion_inner": 1.0}, "need 2 <= exclusion_inner < exclusion_outer"),
            ({"exclusion_inner": float("nan")}, "need 2 <= exclusion_inner < exclusion_outer"),
            ({"exclusion_outer": float("nan")}, "need 2 <= exclusion_inner < exclusion_outer"),
        ],
        ids=["q-zero", "q-nan", "inner-one", "inner-nan", "outer-nan"],
    )
    def test_estimate_settings_built_in_python_are_checked(self, kwargs, message):
        # The parser rejects a non-finite number first; Python callers meet
        # the settings' own checks, which nan must fail too.
        with pytest.raises(ValueError, match=re.escape(message)):
            EstimateSettings(**kwargs)

    def test_a_zero_constant_is_accepted_and_runs(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY + "[estimates]\nC = 0.0\n")
        assert main(["run", cfg, "--output-dir", str(tmp_path / "runs")]) == EXIT_OK
        assert "constant C = 0 (configured)" in capsys.readouterr().out

    def test_formats_are_echoed_in_one_order(self):
        # The same files make the same record: one echo, one hash.
        one, other = (
            parse_config(TINY + f"[output]\nformats = {listing}\n")
            for listing in ("csv,verdicts", "verdicts, csv")
        )
        assert one.output.formats == other.output.formats == ("csv", "verdicts")
        assert "\nformats = csv,verdicts\n" in one.echo
        assert one.echo == other.echo
        assert one.config_hash == other.config_hash

    def test_comments_and_blank_lines_are_ignored(self):
        noisy = "# top\n\n[torus]\n; mid\nn = 1\n\nN = 16\n# done\n"
        assert parse_config(noisy).scenario.spec.N == 16

    def test_with_resolution_changes_only_the_grid(self):
        exp = parse_config(MINI)
        refined = with_resolution(exp, 16)
        assert refined.scenario.spec.N == 16
        assert refined.scenario.name == exp.scenario.name
        assert refined.scenario.eps_schedule == exp.scenario.eps_schedule
        assert refined.config_hash != exp.config_hash

    @pytest.mark.parametrize("name", bundled_names())
    def test_with_resolution_at_the_same_grid_keeps_the_echo(self, name):
        exp = bundled_experiment(name)
        assert with_resolution(exp, exp.scenario.spec.N).echo == exp.echo


class TestRunVerb:
    def test_clean_run_writes_all_artifacts(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINI)
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "overall: pass" in stdout
        rundir = _run_record_dir(out, stdout)
        assert os.path.basename(rundir).startswith("mini-")
        for artifact in ("config.ini", "report.csv", "verdicts.txt", "states.npz"):
            assert os.path.isfile(os.path.join(rundir, artifact))
        # CSV rows carry \r\n line endings and one row per rung
        raw = Path(rundir, "report.csv").read_bytes()
        assert raw.count(b"\r\n") == 4  # header + 3 rungs

    def test_formats_choose_the_written_files(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINI.replace("name = mini", "name = mini\nformats = csv"))
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "overall: pass" in stdout
        rundir = _run_record_dir(out, stdout)
        assert sorted(os.listdir(rundir)) == ["config.ini", "report.csv"]

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINI)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", cfg, "--output-dir", out_a]) == EXIT_OK
        dir_a = _run_record_dir(out_a, capsys.readouterr().out)
        assert main(["run", cfg, "--output-dir", out_b]) == EXIT_OK
        dir_b = _run_record_dir(out_b, capsys.readouterr().out)
        for artifact in ("config.ini", "report.csv", "verdicts.txt", "states.npz"):
            a = Path(dir_a, artifact).read_bytes()
            b = Path(dir_b, artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"

    def test_states_are_stored_as_savez_compressed_stores_them(self, tmp_path, capsys):
        # The potentials are streamed rung by rung into ``phi.npy``; every
        # member must read back, and compress, as np.savez_compressed's would.
        cfg = _write(tmp_path, MINI)
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        path = os.path.join(_run_record_dir(out, capsys.readouterr().out), "states.npz")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        assert list(arrays) == ["phi", "eps", "delta", "newton_steps", "meta"]
        assert arrays["phi"].shape == (3, 32, 32)
        reference = str(tmp_path / "reference.npz")
        np.savez_compressed(reference, **arrays)
        with zipfile.ZipFile(path) as got, zipfile.ZipFile(reference) as want:
            assert got.namelist() == want.namelist()
            for name in want.namelist():
                a, b = got.getinfo(name), want.getinfo(name)
                assert (a.CRC, a.compress_size, a.file_size) == (
                    b.CRC,
                    b.compress_size,
                    b.file_size,
                ), name
                assert got.read(name) == want.read(name), name

    def test_the_api_writes_the_record_the_command_writes(self, tmp_path, capsys):
        from torusma.report import run_experiment

        cfg = _write(tmp_path, MINI)
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        cli_dir = Path(_run_record_dir(out, capsys.readouterr().out))
        run_experiment(parse_config(MINI), str(tmp_path / "api"))
        api_dir = tmp_path / "api"
        names = ["config.ini", "report.csv", "states.npz", "verdicts.txt"]
        assert sorted(os.listdir(cli_dir)) == sorted(os.listdir(api_dir)) == names
        for name in names:
            assert (cli_dir / name).read_bytes() == (api_dir / name).read_bytes(), name

    def test_an_archive_short_of_the_schedule_is_not_kept(self, tmp_path):
        from torusma.continuation import run_continuation
        from torusma.report import _StatesArchive

        experiment = parse_config(MINI)
        states = run_continuation(experiment.scenario)
        with pytest.raises(ValueError, match="3 rungs; 2 states were added"):
            with _StatesArchive(str(tmp_path), experiment) as archive:
                for state in states[:2]:
                    archive.add(state)
                archive.close()
        assert os.listdir(tmp_path) == []

    def test_violating_scenario_exits_one_with_fail_banner(self, tmp_path, capsys):
        cfg = _write(tmp_path, CHEAP_ABOVE)
        code = main(["run", cfg, "--output-dir", str(tmp_path / "runs")])
        stdout = capsys.readouterr().out
        assert code == EXIT_VERDICT
        assert "hypothesis: NOT satisfied" in stdout
        assert "overall: FAIL" in stdout
        for name in ("normalization", "density-hypothesis"):
            assert f"[violated] {name}" in stdout

    def test_solver_failure_exits_two(self, tmp_path, capsys):
        # Rung 1 fails after rung 0 went to the archive: no record is left.
        cfg = _write(tmp_path, WINDOW)
        out = tmp_path / "runs"
        code = main(["run", cfg, "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_SOLVER
        assert err.startswith("solver error: rung 1")
        assert "smoothed field drops" in err
        assert not out.exists()

    def test_unwritable_output_parent_exits_three(self, tmp_path, capsys, monkeypatch):
        # The run directory is made before the ladder solves: no rung runs.
        import torusma.continuation as continuation

        calls = []

        def solve(*args, **kwargs):
            calls.append(args)
            raise AssertionError("solved although the output is unwritable")

        monkeypatch.setattr(continuation, "solve_ma_detailed", solve)
        cfg = _write(tmp_path, MINI)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        code = main(["run", cfg, "--output-dir", str(blocker / "x")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:")
        assert err.count("\n") == 1
        assert calls == []

    @pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
    @pytest.mark.parametrize("failure", [None, "solver", TypeError, KeyboardInterrupt])
    def test_every_exit_joins_the_writer_and_leaves_no_partial_record(
        self, tmp_path, capsys, monkeypatch, failure, rerun
    ):
        # Each failure comes at rung 1, after rung 0 went to the archive's
        # writer.  A rerun goes into the directory of an earlier record of
        # the same config, which must keep every byte, whatever the rerun did.
        import torusma.continuation as continuation
        from torusma.ma import PositivityError

        cfg = _write(tmp_path, WINDOW if failure == "solver" and not rerun else MINI)
        out = tmp_path / "runs"
        if rerun:
            assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_OK
            rundir = Path(_run_record_dir(str(out), capsys.readouterr().out))
            before = {path.name: path.read_bytes() for path in rundir.iterdir()}
        if failure in (TypeError, KeyboardInterrupt) or (failure == "solver" and rerun):
            stop = PositivityError if failure == "solver" else failure
            real_solve, solved = continuation.solve_ma_detailed, []

            def solve(*args, **kwargs):
                if solved:
                    raise stop("stopped at rung 1")
                solved.append(real_solve(*args, **kwargs))
                return solved[-1]

            monkeypatch.setattr(continuation, "solve_ma_detailed", solve)
        threads = threading.active_count()
        if failure is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(["run", cfg, "--output-dir", str(out)])
        else:
            expected = {None: EXIT_OK, "solver": EXIT_SOLVER, TypeError: EXIT_INTERNAL}
            assert main(["run", cfg, "--output-dir", str(out)]) == expected[failure]
        assert threading.active_count() == threads
        if rerun:
            assert sorted(os.listdir(out)) == [rundir.name]
            assert {path.name: path.read_bytes() for path in rundir.iterdir()} == before
        elif failure is None:
            rundir = _run_record_dir(out, capsys.readouterr().out)
            assert sorted(os.listdir(out)) == [os.path.basename(rundir)]
            assert sorted(os.listdir(rundir)) == [
                "config.ini",
                "report.csv",
                "states.npz",
                "verdicts.txt",
            ]
        else:
            assert not out.exists()

    def test_states_stream_the_handed_potentials_bit_for_bit(
        self, tmp_path, capsys, monkeypatch
    ):
        # An n = 2 ladder warm-starts each rung from the last potential that
        # went to the writer: a later write into it would show here.  The
        # potentials are copied as they are handed over, since the run keeps
        # none of them.
        from torusma import report

        real_add = report._StatesArchive.add
        handed = []

        def add(archive, state):
            handed.append(state.phi.values.copy())
            real_add(archive, state)

        monkeypatch.setattr(report._StatesArchive, "add", add)
        cfg = _write(tmp_path, MINI_N2)
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        path = os.path.join(_run_record_dir(out, capsys.readouterr().out), "states.npz")
        with np.load(path) as data:
            stored = data["phi"]
        expected = np.stack(handed)
        assert stored.shape == expected.shape == (3, 8, 8, 8, 8)
        assert stored.tobytes() == expected.tobytes()

    def test_gmres_shortfalls_are_reported_per_rung(
        self, tmp_path, capsys, monkeypatch
    ):
        import torusma.ma as ma

        real_gmres = ma.gmres

        def short(*args, **kwargs):
            x, _ = real_gmres(*args, **kwargs)
            return x, 1

        monkeypatch.setattr(ma, "gmres", short)
        cfg = _write(tmp_path, MINI_N2)
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        captured = capsys.readouterr()
        rundir = _run_record_dir(out, captured.out)
        rows = Path(rundir, "report.csv").read_text().splitlines()[1:]
        steps = [int(row.split(",")[3]) for row in rows]
        warnings = [
            line for line in captured.err.splitlines() if line.startswith("warning:")
        ]
        expected = [
            f"warning: rung {k} (eps={eps:g}): {n} GMRES solve(s) "
            f"stopped short of the inner tolerance"
            for k, (eps, n) in enumerate(zip((0.2, 0.02, 0.002), steps))
            if n
        ]
        assert expected and warnings == expected

    def test_rejected_nested_starts_are_reported_per_rung(
        self, tmp_path, capsys, monkeypatch
    ):
        # At N = 16 every n = 2 rung nests once; a prolongation that leaves
        # the form indefinite is rejected and the rung solves without it.
        import torusma.ma as ma

        def indefinite(values, N):
            x = np.arange(N) / N
            return np.broadcast_to(np.cos(2 * np.pi * x)[:, None, None, None], (N,) * 4)

        monkeypatch.setattr(ma, "_prolong", indefinite)
        cfg = _write(tmp_path, MINI_N2.replace("N = 8", "N = 16"))
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning:")
        ]
        assert warnings == [
            f"warning: rung {k} (eps={eps:g}): 1 nested-grid start(s) rejected; "
            f"Newton started without the coarse correction"
            for k, eps in enumerate((0.2, 0.02, 0.002))
        ]

    def test_coarse_grid_shortfalls_are_reported_with_the_rung(
        self, tmp_path, capsys, monkeypatch
    ):
        # At N = 16 every n = 2 rung nests once: its GMRES calls are those of
        # its N = 8 solve and of its N = 16 solve, and every one is counted.
        import torusma.continuation as continuation
        import torusma.ma as ma

        real_gmres, real_solve = ma.gmres, continuation.solve_ma_detailed
        calls = []  # per rung, the grid size of each GMRES call

        def solve(*args, **kwargs):
            calls.append([])
            return real_solve(*args, **kwargs)

        def short(A, b, **kwargs):
            calls[-1].append(round(b.size**0.25))
            x, _ = real_gmres(A, b, **kwargs)
            return x, 1

        monkeypatch.setattr(continuation, "solve_ma_detailed", solve)
        monkeypatch.setattr(ma, "gmres", short)
        cfg = _write(tmp_path, MINI_N2.replace("N = 8", "N = 16"))
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning:")
        ]
        assert len(calls) == 3 and {8, 16} <= {N for rung in calls for N in rung}
        assert warnings == [
            f"warning: rung {k} (eps={eps:g}): {len(rung)} GMRES solve(s) "
            f"stopped short of the inner tolerance"
            for k, (eps, rung) in enumerate(zip((0.2, 0.02, 0.002), calls))
            if rung
        ]

    def test_non_finite_newton_direction_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        import torusma.ma as ma

        def broken(A, b, **kwargs):
            return np.full_like(b, np.nan), 0

        monkeypatch.setattr(ma, "gmres", broken)
        cfg = _write(tmp_path, MINI_N2)
        code = main(["run", cfg, "--output-dir", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert code == EXIT_SOLVER
        assert err.startswith("solver error:")
        assert "non-finite" in err

    def test_non_finite_n1_newton_direction_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        import torusma.ma as ma

        def broken(values):
            return np.full_like(values, np.nan)

        monkeypatch.setattr(ma, "_solve_half_laplacian", broken)
        cfg = _write(tmp_path, MINI)
        code = main(["run", cfg, "--output-dir", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert code == EXIT_SOLVER
        assert err.startswith("solver error:")
        assert "non-finite" in err

    def test_programming_error_exits_four(self, tmp_path, capsys, monkeypatch):
        # Not a solver failure: exit 4 with one line, no record, no traceback.
        import torusma.continuation as continuation

        def broken(*args, **kwargs):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(continuation, "solve_ma_detailed", broken)
        cfg = _write(tmp_path, MINI)
        out = tmp_path / "runs"
        assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == (
            "internal error: TypeError: unexpected argument\n"
        )
        assert not out.exists()

    def test_a_repeated_format_exits_three_at_its_line(self, tmp_path, capsys):
        cfg = _write(tmp_path, TINY + "[output]\nformats = csv,csv,verdicts\n")
        out = tmp_path / "runs"
        assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: line 9: output format 'csv' given more than once\n"
        )
        assert not out.exists()

    def test_unknown_target_exits_three(self, capsys):
        assert main(["run", "no-such-scenario"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "neither a config file nor a bundled scenario" in err

    def test_bad_config_exits_three(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[torus]\nn = 1\nN = 16\nem = 3\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert "config error: line 4:" in capsys.readouterr().err

    def test_bad_resolution_override_exits_three(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINI)
        code = main(["run", cfg, "--resolution-override", "15"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: resolution override: "
            "grid size must be even and >= 8, got 15\n"
        )

    def test_unusable_exclusion_outer_exits_three_before_solving(
        self, tmp_path, capsys
    ):
        # A radius of 30 spacings (0.94) on an N=32 grid leaves no stencil
        # pair clear of the pole: rejected at parse time, no record written.
        text = CHEAP_ABOVE.replace("C = 2.0\n", "C = 2.0\nexclusion_outer = 30.0\n")
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: exclusion_outer = 30.0 grid spacings")
        assert "Traceback" not in err
        assert not out.exists()

    def test_resolution_override_rechecks_exclusion_outer(self, tmp_path, capsys):
        # 20 spacings is usable at N=32 (radius 0.625) but not at N=16 (1.25).
        text = CHEAP_ABOVE.replace("C = 2.0\n", "C = 2.0\nexclusion_outer = 20.0\n")
        assert parse_config(text).scenario.settings.exclusion_outer == 20.0
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        code = main(
            ["run", cfg, "--output-dir", str(out), "--resolution-override", "16"]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "resolution override: exclusion_outer = 20.0" in err
        assert not out.exists()

    def test_short_ladder_is_inconclusive_and_strict_fails_it(
        self, tmp_path, capsys
    ):
        short = MINI.replace("schedule = 0.2 0.02 0.002", "schedule = 0.2 0.02")
        cfg = _write(tmp_path, short)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "a")]) == EXIT_OK
        assert "overall: pass with inconclusive checks" in capsys.readouterr().out
        code = main(["run", cfg, "--output-dir", str(tmp_path / "b"), "--strict"])
        assert code == EXIT_VERDICT

    def test_short_pole_ladder_leaves_unweighted_growth_inconclusive(
        self, tmp_path, capsys
    ):
        # On two rungs the growth of sup q (1.74 here) is no trend: the check
        # is inconclusive like every other ladder trend, not violated.
        cfg = _write(tmp_path, SHORT_POLE)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "a")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[inconclusive] unweighted-growth: need at least 3 rungs, got 2\n" in out
        assert "[violated]" not in out
        code = main(["run", cfg, "--output-dir", str(tmp_path / "b"), "--strict"])
        assert code == EXIT_VERDICT


def _pole_ladder(rungs: int) -> str:
    """An n = 1 pole ladder at N = 64 of ``rungs`` rungs, halving eps from 1/4."""
    schedule = " ".join(repr(0.25 * 0.5**k) for k in range(rungs))
    return (
        "[torus]\nn = 1\nN = 64\n[alpha]\nt = 0.5\n[psi1]\nmode = 0.3, 1 0, 0.3\n"
        "[psi2]\npole = 0.5 0.5, 0.5, 0.1, 0.2\n[hypothesis]\np = 1.5\n"
        f"[continuation]\nschedule = {schedule}\n[estimates]\nC = 2.0\n"
    )


class TestRunMemory:
    def test_memory_does_not_grow_with_the_rungs(self, tmp_path):
        # Each potential streams into states.npz and only the rung's scalars
        # are kept, so eight more rungs add less than one potential to the
        # traced peak (a run that kept its potentials added eight).  A first
        # run fills the grid-size caches.
        from torusma.report import run_experiment

        run_experiment(parse_config(_pole_ladder(4)), str(tmp_path / "warm"))
        peaks = {}
        for rungs in (4, 12):
            experiment = parse_config(_pole_ladder(rungs))
            tracemalloc.start()
            try:
                run_experiment(experiment, str(tmp_path / str(rungs)))
                peaks[rungs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[12] - peaks[4] < 64 * 64 * 8


def _prefix_ladder(n: int, rungs: int) -> str:
    """A pole ladder of ``rungs`` rungs halving eps from 1/16: at n = 1 on
    N = 32, at n = 2 on N = 16, the pole below the threshold ``n / p``."""
    schedule = " ".join(repr(2.0**-k) for k in range(4, 4 + rungs))
    torus, mode, centre = {
        1: ("n = 1\nN = 32", "1 0", "0.5 0.5"),
        2: ("n = 2\nN = 16", "1 0 0 0", "0.5 0.5 0.25 0.5"),
    }[n]
    return (
        f"[torus]\n{torus}\n[alpha]\nt = 0.5\n[psi1]\nmode = 0.3, {mode}, 0.3\n"
        f"[psi2]\npole = {centre}, 0.5, 0.1, 0.2\n[hypothesis]\np = 1.5\n"
        f"[continuation]\nschedule = {schedule}\n[estimates]\nC = 2.0\n"
    )


class TestLadderPrefix:
    """A rung depends on the scenario, its sharp models, its eps and its warm
    start, never on the rungs after it, so the first k rungs of a longer
    schedule are the k-rung record: the same ``report.csv`` rows and the
    same stored ``phi`` bits.  The Hoelder numbers do depend on the
    schedule, since only its last three rungs measure them, but no
    ``report.csv`` column holds them."""

    @pytest.mark.parametrize("n, short, long", [(1, 3, 5), (2, 2, 4)], ids=["n1", "n2"])
    def test_a_prefix_of_the_schedule_is_its_own_record(self, tmp_path, n, short, long):
        from torusma.report import run_experiment

        rows, phi = {}, {}
        for rungs in (short, long):
            out = tmp_path / str(rungs)
            run_experiment(parse_config(_prefix_ladder(n, rungs)), str(out))
            rows[rungs] = (out / "report.csv").read_text().splitlines()
            with np.load(out / "states.npz") as data:
                phi[rungs] = data["phi"]
        assert len(rows[short]) == short + 1 and len(rows[long]) == long + 1
        assert rows[long][: short + 1] == rows[short]
        assert phi[long][:short].tobytes() == phi[short].tobytes()


class TestVerifyVerb:
    @pytest.fixture()
    def mini_run(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINI)
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        rundir = _run_record_dir(out, capsys.readouterr().out)
        return cfg, out, rundir

    def test_verify_by_config_path(self, mini_run, capsys):
        cfg, out, _ = mini_run
        assert main(["verify", cfg, "--output-dir", out]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "stored report.csv is consistent with the recomputed record" in stdout

    def test_verify_run_directory_in_place(self, mini_run, capsys):
        _, _, rundir = mini_run
        assert main(["verify", rundir]) == EXIT_OK
        assert "consistent with the recomputed record" in capsys.readouterr().out

    def test_corrupted_csv_is_caught(self, mini_run, capsys):
        _, _, rundir = mini_run
        path = os.path.join(rundir, "report.csv")
        with open(path, "rb") as f:
            original = f.read()
        lines = original.decode().split("\r\n")
        appended = "9,9,9,9,9,9,9\r\n"
        with open(path, "w", newline="") as f:
            f.write(original.decode() + appended)
        assert main(["verify", rundir]) == EXIT_VERDICT
        captured = capsys.readouterr()
        assert "consistent" not in captured.out
        # The stored text runs on past the end of the recomputed one.
        assert captured.err.splitlines()[-4:] == [
            "stored report.csv DIFFERS from the recomputed record",
            f"  first difference at line {len(lines)}:",
            "    stored:     9,9,9,9,9,9,9",
            "    recomputed: (end of file)",
        ]
        # A changed cell is named by its line, with both texts.
        changed = lines[2].replace(",", ";", 1)
        with open(path, "w", newline="") as f:
            f.write("\r\n".join(lines[:2] + [changed] + lines[3:]))
        assert main(["verify", rundir]) == EXIT_VERDICT
        assert capsys.readouterr().err.splitlines()[-3:] == [
            "  first difference at line 3:",
            f"    stored:     {changed}",
            f"    recomputed: {lines[2]}",
        ]

    def test_missing_states_exits_three(self, tmp_path, capsys):
        slim = MINI.replace("name = mini", "name = mini\nformats = csv,verdicts")
        cfg = _write(tmp_path, slim)
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        rundir = _run_record_dir(out, capsys.readouterr().out)
        assert main(["verify", rundir]) == EXIT_CONFIG
        assert "no stored states" in capsys.readouterr().err

    def test_foreign_states_are_rejected_by_hash(self, mini_run, capsys):
        _, _, rundir = mini_run
        # a doctored config no longer matches the stored provenance hash
        cfg_path = Path(rundir, "config.ini")
        cfg_path.write_text(cfg_path.read_text().replace("tol = 1e-10", "tol = 1e-08"))
        assert main(["verify", rundir]) == EXIT_CONFIG
        assert "stored states were produced by config" in capsys.readouterr().err

    @staticmethod
    def _doctor_states(rundir, change):
        path = os.path.join(rundir, "states.npz")
        with np.load(path) as data:
            arrays = dict(data)
        change(arrays)
        np.savez_compressed(path, **arrays)

    @classmethod
    def _doctor_phi(cls, rundir, change):
        cls._doctor_states(rundir, lambda a: a.update(phi=change(a["phi"])))

    def test_estimate_failure_on_valid_fields_exits_two(self, mini_run, capsys):
        _, _, rundir = mini_run
        capsys.readouterr()
        # a finite field whose metric trace turns negative somewhere
        x = np.arange(32) / 32
        bump = 0.5 * np.cos(2 * np.pi * x)[:, None]
        self._doctor_phi(rundir, lambda phi: phi + bump)
        assert main(["verify", rundir]) == EXIT_SOLVER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "estimate error: normalized metric trace must be positive"
        )

    @pytest.mark.parametrize("rung_0_fails", [False, True], ids=["valid", "rung-0-fails"])
    def test_non_finite_stored_field_exits_three(self, mini_run, capsys, rung_0_fails):
        # Every stored field is validated before any rung's estimates run,
        # so a non-finite last rung is reported even where rung 0 would fail
        # an estimate (as in the test above).
        _, _, rundir = mini_run
        capsys.readouterr()

        def poison(phi):
            if rung_0_fails:
                phi[0] += 0.5 * np.cos(2 * np.pi * np.arange(32) / 32)[:, None]
            phi[-1, 0, 0] = np.nan
            return phi

        self._doctor_phi(rundir, poison)
        assert main(["verify", rundir]) == EXIT_CONFIG
        assert "config error: field contains non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda a: a.pop("meta"), "lack meta"),
            (lambda a: a.update(meta=np.array('{"name": "mini"}')), "carry no config hash"),
            (lambda a: a.update(eps=a["eps"][:-1]), "same positive number of rungs"),
            (
                lambda a: a.update({k: v[:0] for k, v in a.items() if k != "meta"}),
                "same positive number of rungs, got (0, 0, 0, 0)",
            ),
            (
                lambda a: a.update({k: v[:-1] for k, v in a.items() if k != "meta"}),
                "stored states hold 2 rungs, the schedule 3",
            ),
            (lambda a: a.update(eps=a["eps"] * 1.5), "are not the schedule"),
        ],
        ids=[
            "missing-meta",
            "meta-without-hash",
            "short-eps",
            "no-rungs",
            "short-ladder",
            "foreign-eps",
        ],
    )
    def test_malformed_states_exit_three(self, mini_run, capsys, change, message):
        _, _, rundir = mini_run
        capsys.readouterr()
        self._doctor_states(rundir, change)
        assert main(["verify", rundir]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: ") and message in err[0]

    @pytest.mark.parametrize(
        "damage", [_truncated, _scrambled_phi_stream], ids=["truncated", "scrambled"]
    )
    def test_unreadable_states_archive_exits_three(self, mini_run, capsys, damage):
        _, _, rundir = mini_run
        capsys.readouterr()
        path = Path(rundir, "states.npz")
        path.write_bytes(damage(path.read_bytes()))
        assert main(["verify", rundir]) == EXIT_CONFIG
        assert "not a readable archive" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize(
        "damage", [_truncated, _scrambled_phi_stream], ids=["truncated", "scrambled"]
    )
    def test_unreadable_states_archive_leaves_no_file_open(self, mini_run, damage):
        _, _, rundir = mini_run
        path = Path(rundir, "states.npz")
        path.write_bytes(damage(path.read_bytes()))
        experiment = parse_config(Path(rundir, "config.ini").read_text())
        before = len(os.listdir("/proc/self/fd"))
        # The error is kept, with its traceback, while the descriptors are
        # counted: a file the failed load still held would be open.
        with pytest.raises(ValueError, match="not a readable archive") as info:
            load_states(rundir, experiment)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_programming_error_exits_four(self, mini_run, capsys, monkeypatch):
        import torusma.estimates as estimates

        def broken(*args, **kwargs):
            raise TypeError("unexpected argument")

        _, _, rundir = mini_run
        capsys.readouterr()
        monkeypatch.setattr(estimates._LadderEstimates, "measure", broken)
        assert main(["verify", rundir]) == EXIT_INTERNAL
        assert capsys.readouterr().err == (
            "internal error: TypeError: unexpected argument\n"
        )

    def test_directory_without_config_exits_three(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["verify", str(empty)]) == EXIT_CONFIG
        assert "contains no config.ini" in capsys.readouterr().err


class TestCompareVerb:
    def _run(self, tmp_path, capsys, text, sub, extra=()):
        cfg = _write(tmp_path, text, name=f"{sub}.ini")
        out = str(tmp_path / sub)
        code = main(["run", cfg, "--output-dir", out, *extra])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        return _run_record_dir(out, stdout)

    def test_identical_records_agree(self, tmp_path, capsys):
        a = self._run(tmp_path, capsys, MINI, "a")
        b = self._run(tmp_path, capsys, MINI, "b")
        assert main(["compare", a, b]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "records agree within tolerances" in stdout
        assert "newton_steps: max |diff| = 0 (informational)" in stdout

    def test_resolution_study_stays_within_tolerance(self, tmp_path, capsys):
        coarse = bundled_experiment("smooth")  # smoke that the name exists
        assert coarse.scenario.spec.N == 32
        a = self._run(tmp_path, capsys, MINI, "a")
        b = self._run(
            tmp_path, capsys, MINI, "b", extra=("--resolution-override", "16")
        )
        assert main(["compare", a, b]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "records agree within tolerances" in stdout
        sup_line = next(l for l in stdout.splitlines() if l.startswith("sup_phi"))
        assert sup_line.endswith("ok")

    def test_rung_count_mismatch_is_a_schema_error(self, tmp_path, capsys):
        a = self._run(tmp_path, capsys, MINI, "a")
        short = MINI.replace("schedule = 0.2 0.02 0.002", "schedule = 0.2 0.02")
        b = self._run(tmp_path, capsys, short, "b")
        assert main(["compare", a, b]) == EXIT_CONFIG
        assert "rung counts differ: 3 vs 2" in capsys.readouterr().err

    def test_doctored_column_disagrees(self, tmp_path, capsys):
        a = self._run(tmp_path, capsys, MINI, "a")
        b = self._run(tmp_path, capsys, MINI, "b")
        path = Path(b, "report.csv")
        rows = path.read_bytes().split(b"\r\n")
        cells = rows[1].split(b",")
        cells[2] = b"0.5"  # sup_phi of the first rung
        rows[1] = b",".join(cells)
        path.write_bytes(b"\r\n".join(rows))
        assert main(["compare", a, b]) == EXIT_VERDICT
        out = capsys.readouterr()
        assert "records disagree" in out.err
        assert "EXCEEDS" in out.out

    def test_missing_record_exits_three(self, tmp_path, capsys):
        a = self._run(tmp_path, capsys, MINI, "a")
        assert main(["compare", a, str(tmp_path / "nowhere")]) == EXIT_CONFIG
        assert "no report.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda rows: [], "is empty"),
            (
                lambda rows: [rows[0], b"abc," + rows[1].split(b",", 1)[1], *rows[2:]],
                "could not convert string to float: 'abc'",
            ),
            (
                lambda rows: [rows[0], rows[1].rsplit(b",", 1)[0], *rows[2:]],
                "a row does not have 7 cells",
            ),
        ],
        ids=["empty", "non-numeric", "short-row"],
    )
    def test_malformed_csv_exits_three(self, tmp_path, capsys, change, message):
        a = self._run(tmp_path, capsys, MINI, "a")
        b = self._run(tmp_path, capsys, MINI, "b")
        path = Path(b, "report.csv")
        rows = path.read_bytes().split(b"\r\n")
        path.write_bytes(b"\r\n".join(change(rows)))
        assert main(["compare", a, b]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_compare_records_api_schema_checks(self, tmp_path, capsys):
        a = self._run(tmp_path, capsys, MINI, "a")
        renamed = MINI.replace("name = mini", "name = other")
        b = self._run(tmp_path, capsys, renamed, "b")
        with pytest.raises(SchemaMismatch, match="scenario names differ"):
            compare_records(a, b)


class TestListVerb:
    def test_lists_every_bundled_scenario(self, capsys):
        assert main(["list-scenarios"]) == EXIT_OK
        stdout = capsys.readouterr().out
        for name in bundled_names():
            assert any(
                line.startswith(name + " ") for line in stdout.splitlines()
            ), name
        assert len(stdout.splitlines()) == len(bundled_names())

    def test_bundled_config_hashes_are_pinned(self):
        # The record directory names of the bundled scenarios: however the
        # library builds them, earlier records must keep their place.
        got = {name: bundled_experiment(name).config_hash[:12] for name in bundled_names()}
        assert got == {
            "trivial": "65b23b061579",
            "smooth": "a651f1a84f78",
            "smooth-degenerate": "786d4d4bb586",
            "pole-below": "7f67fc8e5738",
            "pole-above": "b069537e498a",
            "oracle-n1": "f9acafe12359",
            "manufactured-n2": "88e4591dcb3e",
        }

    def test_bundled_library_is_the_documented_seven(self):
        assert bundled_names() == (
            "trivial",
            "smooth",
            "smooth-degenerate",
            "pole-below",
            "pole-above",
            "oracle-n1",
            "manufactured-n2",
        )


class TestAllocatorSettings:
    """``main`` asks glibc to keep freed memory before it parses anything."""

    def test_main_sets_both_thresholds_before_dispatching(self, monkeypatch, capsys):
        log = []

        class FakeLibc:
            def mallopt(self, param, value):
                log.append(("mallopt", param, value))
                return 1

        def fake_cdll(name):
            log.append(("CDLL", name))
            return FakeLibc()

        real_list = cli._cmd_list

        def listing(args):
            log.append("dispatch")
            return real_list(args)

        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        monkeypatch.setattr(cli, "_cmd_list", listing)
        assert main(["list-scenarios"]) == EXIT_OK
        assert log == [
            ("CDLL", None),
            ("mallopt", -3, 32 * 2**20),  # M_MMAP_THRESHOLD
            ("mallopt", -1, 2**30),  # M_TRIM_THRESHOLD
            "dispatch",
        ]

    @pytest.mark.parametrize("failure", [OSError, TypeError, AttributeError])
    def test_main_runs_where_mallopt_is_missing(self, monkeypatch, capsys, failure):
        def cdll(name):
            if failure is AttributeError:
                return object()  # a C library without mallopt
            raise failure("no C library")

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert main(["list-scenarios"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == len(bundled_names())


class TestGoldenRecord:
    """The mini scenario's first-rung physics, pinned numerically.

    Guards the whole pipeline (parse, balance, solve, estimate, render)
    against silent numerical drift; the byte-level golden record for a
    bundled scenario lives in the acceptance suite.
    """

    def test_first_rung_scalars(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINI)
        out = str(tmp_path / "runs")
        assert main(["run", cfg, "--output-dir", out]) == EXIT_OK
        rundir = _run_record_dir(out, capsys.readouterr().out)
        rows = Path(rundir, "report.csv").read_text().splitlines()
        header = rows[0].split(",")
        first = dict(zip(header, rows[1].split(",")))
        assert float(first["eps"]) == 0.2
        # delta tracks (1+eps)^n - 1 up to the smooth-density correction
        assert float(first["delta_eps"]) == pytest.approx(0.2, abs=0.02)
        assert float(first["sup_phi"]) == pytest.approx(0.05066630856179, rel=1e-8)
        assert float(first["trace_defect"]) <= 1e-12
        assert int(first["newton_steps"]) >= 1
