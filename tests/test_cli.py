"""Configuration grammar, run records on disk, and the command-line verbs.

Everything here runs the CLI in-process through ``main(argv)``; the
acceptance suite exercises the installed console script in subprocesses.
"""

import io
import os
import struct
import zipfile

import numpy as np
import pytest

from torusma.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERDICT,
    main,
)
from torusma.config import ConfigError, parse_config, with_resolution
from torusma.report import SchemaMismatch, compare_records
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
        assert exp.settings.holder_gamma == 0.5
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
                "holder_gamma must be in (0,1)",
            ),
            (
                "[torus]\nn = 1\nN = 16\n[estimates]\nexclusion_inner = 1.0\n",
                "need 2 <= exclusion_inner < exclusion_outer",
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
                "strictly decreasing",
            ),
        ],
    )
    def test_rejections_carry_the_offending_line(self, text, fragment):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert fragment in str(info.value)

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
        raw = open(os.path.join(rundir, "report.csv"), "rb").read()
        assert raw.count(b"\r\n") == 4  # header + 3 rungs

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINI)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", cfg, "--output-dir", out_a]) == EXIT_OK
        dir_a = _run_record_dir(out_a, capsys.readouterr().out)
        assert main(["run", cfg, "--output-dir", out_b]) == EXIT_OK
        dir_b = _run_record_dir(out_b, capsys.readouterr().out)
        for artifact in ("config.ini", "report.csv", "verdicts.txt", "states.npz"):
            a = open(os.path.join(dir_a, artifact), "rb").read()
            b = open(os.path.join(dir_b, artifact), "rb").read()
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
        assert list(arrays) == ["eps", "delta", "newton_steps", "phi", "meta"]
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
        cfg = _write(tmp_path, WINDOW)
        code = main(["run", cfg, "--output-dir", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert code == EXIT_SOLVER
        assert err.startswith("solver error:")
        assert "smoothed field drops" in err

    def test_unwritable_output_parent_exits_three(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINI)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        code = main(["run", cfg, "--output-dir", str(blocker / "x")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:")
        assert err.count("\n") == 1

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
        rows = open(os.path.join(rundir, "report.csv")).read().splitlines()[1:]
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
        assert parse_config(text).settings.exclusion_outer == 20.0
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
        with open(path, "ab") as f:
            f.write(b"9,9,9,9,9,9,9\r\n")
        assert main(["verify", rundir]) == EXIT_VERDICT
        assert "DIFFERS from the recomputed record" in capsys.readouterr().err

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
        cfg_path = os.path.join(rundir, "config.ini")
        doctored = open(cfg_path).read().replace("tol = 1e-10", "tol = 1e-08")
        open(cfg_path, "w").write(doctored)
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

    def test_non_finite_stored_field_exits_three(self, mini_run, capsys):
        _, _, rundir = mini_run
        capsys.readouterr()

        def poison(phi):
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
        ],
        ids=["missing-meta", "meta-without-hash", "short-eps", "no-rungs"],
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
        path = os.path.join(rundir, "states.npz")
        data = open(path, "rb").read()
        open(path, "wb").write(damage(data))
        assert main(["verify", rundir]) == EXIT_CONFIG
        assert "not a readable archive" in capsys.readouterr().err

    def test_programming_error_exits_four(self, mini_run, capsys, monkeypatch):
        import torusma.continuation as continuation

        def broken(*args, **kwargs):
            raise TypeError("unexpected argument")

        _, _, rundir = mini_run
        capsys.readouterr()
        monkeypatch.setattr(continuation, "rung_diagnostics", broken)
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
        path = os.path.join(b, "report.csv")
        rows = open(path, "rb").read().split(b"\r\n")
        cells = rows[1].split(b",")
        cells[2] = b"0.5"  # sup_phi of the first rung
        rows[1] = b",".join(cells)
        open(path, "wb").write(b"\r\n".join(rows))
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
        path = os.path.join(b, "report.csv")
        rows = open(path, "rb").read().split(b"\r\n")
        open(path, "wb").write(b"\r\n".join(change(rows)))
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
        rows = open(os.path.join(rundir, "report.csv")).read().splitlines()
        header = rows[0].split(",")
        first = dict(zip(header, rows[1].split(",")))
        assert float(first["eps"]) == 0.2
        # delta tracks (1+eps)^n - 1 up to the smooth-density correction
        assert float(first["delta_eps"]) == pytest.approx(0.2, abs=0.02)
        assert float(first["sup_phi"]) == pytest.approx(0.05066630856179, rel=1e-8)
        assert float(first["trace_defect"]) <= 1e-12
        assert int(first["newton_steps"]) >= 1
