"""One benchmark operation in a fresh interpreter.

Usage: ``python3 perfbench/child.py <request.json> <result.json>``, started by
``run.py``.  The request names the workload, the seed, the step
(``setup``, ``run``, ``verify`` or ``solve``) and whether to trace.  The child
sets up (imports torusma, numpy and scipy, then resolves the experiment or
builds the arrays), times the operation through torusma's public entry
points, checks its outputs and writes one JSON result.  The clock for set-up
starts at the first statement below, so interpreter start-up is excluded.

Each timed section is reported as wall seconds and as seconds at reference
speed (``speed.py``): the host's speed is sampled throughout the section.
"""

import time

T0 = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MIB = float(2**20)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB


def _statuses(rundir: str) -> dict:
    """``name -> status`` from the ``[status] name: ...`` lines of verdicts.txt."""
    out = {}
    with open(os.path.join(rundir, "verdicts.txt")) as f:
        for line in f:
            if line.startswith("["):
                status, _, rest = line[1:].partition("] ")
                out[rest.split(":", 1)[0]] = status
    return out


def _cli(args):
    """``torusma.cli.main(args)`` with its stdout captured; ``(rc, text)``."""
    import torusma.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = torusma.cli.main(args)
    return rc, buf.getvalue()


def _check_pole_n1_run(experiment, rc, rundir, reference) -> list:
    import numpy as np
    from torusma.geometry import GridField
    from torusma.ma import poisson_oracle_n1
    from torusma.pluripotential import regularize
    from torusma.report import compare_records

    if rc != 0:
        return [f"run exited {rc}, expected 0"]
    errors = []
    statuses = _statuses(rundir)
    if statuses != wl.POLE_N1_STATUSES:
        errors.append(f"verdict statuses {statuses} differ from pole-below's")
    cmp = compare_records(rundir, reference)
    if not cmp.ok:
        errors.append("compare with the reference record failed: " + "; ".join(cmp.lines))
    scenario = experiment.scenario
    with np.load(os.path.join(rundir, "states.npz")) as data:
        eps, delta, phi = data["eps"], data["delta"], data["phi"]
    worst = 0.0
    for k, e in enumerate(eps):
        e = float(e)
        p1 = regularize(scenario.psi1, e, check=False)
        p2 = regularize(scenario.psi2, e, check=False)
        F = GridField(scenario.spec, (1.0 + float(delta[k])) * np.exp(p1.values - p2.values))
        exact = poisson_oracle_n1(F, scenario.alpha.coefficients(e))
        worst = max(worst, float(np.max(np.abs(phi[k] - exact.values))))
    if worst > 1e-8:
        errors.append(f"rung differs from poisson_oracle_n1 by {worst:.3e} > 1e-8")
    return errors


def _check_pole_n2_run(rc, rundir) -> list:
    if rc not in (0, 1):
        return [f"run exited {rc}, expected 0 or 1"]
    statuses = _statuses(rundir)
    return [
        f"{name} is {statuses.get(name)}, expected holds"
        for name in wl.POLE_N2_IDENTITIES
        if statuses.get(name) != "holds"
    ]


def main() -> int:
    with open(sys.argv[1]) as f:
        req = json.load(f)
    workload, seed, step = req["workload"], req["seed"], req["step"]
    kind = wl.WORKLOADS[workload]["kind"]
    meter = speed.SpeedMeter()
    t_meter = meter.start()

    tracer = None
    if req["trace"]:
        tracer = tracing.Tracer()
        tracing.install_fft_hooks(tracer)
    if kind == "ladder":
        import torusma.cli  # noqa: F401  (what the torusma script imports)
        from torusma.config import parse_config
    else:
        import torusma.ma  # noqa: F401
    import torusma

    src = os.path.join(req["root"], "src", "torusma")
    if os.path.dirname(os.path.abspath(torusma.__file__)) != os.path.abspath(src):
        print(f"torusma imported from {torusma.__file__}, not {src}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracing.install(tracer)

    t_import = time.monotonic()
    if kind == "ladder":
        with open(req["config"]) as f:
            experiment = parse_config(f.read())
    else:
        a, F, phi_star = wl.newton_n2_inputs(seed)
    t_setup = time.monotonic()
    # Set-up runs from T0 (numpy's import included); the meter's warm-up and
    # samples are not part of it.
    setup_s = meter.stop(t_meter) + (t_meter - T0 - meter.warmup_s)
    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * meter.factor,
        "resolve_s": t_setup - t_import,
        "errors": [],
    }
    errors = out["errors"]
    if tracer is not None:
        tracer.enabled = True

    if step == "run":
        outdir = req["outdir"]
        t = meter.start()
        rc, text = _cli(["run", req["config"], "--output-dir", outdir])
        out["op_s"] = meter.stop(t)
        out["op_ref_s"] = out["op_s"] * meter.factor
        out["op_sampling_s"] = meter.spent_s
        out["rss_mib"] = _peak_rss_mib()
        if tracer is not None:
            tracer.enabled = False
        out["rc"] = rc
        rundir = None
        for line in text.splitlines():
            if line.startswith("artifacts: "):
                rundir = line[len("artifacts: "):].strip()
        out["rundir"] = rundir
        if rundir is None:
            errors.append(f"run exited {rc} without writing a record")
        else:
            out["record_mib"] = tracing.tree_bytes(rundir) / MIB
            if workload == wl.POLE_N1:
                errors += _check_pole_n1_run(experiment, rc, rundir, req["reference"])
            else:
                errors += _check_pole_n2_run(rc, rundir)
    elif step == "verify":
        t = meter.start()
        rc, text = _cli(["verify", req["rundir"]])
        out["op_s"] = meter.stop(t)
        out["op_ref_s"] = out["op_s"] * meter.factor
        out["op_sampling_s"] = meter.spent_s
        out["rss_mib"] = _peak_rss_mib()
        if tracer is not None:
            tracer.enabled = False
        out["rc"] = rc
        if rc != req["run_rc"]:
            errors.append(f"verify exited {rc}, run exited {req['run_rc']}")
        if "stored report.csv is consistent" not in text:
            errors.append("verify did not find the stored report.csv consistent")
    elif step == "solve":
        import numpy as np
        from torusma.ma import ma_density, positivity_check, solve_ma_detailed

        t = meter.start()
        result = solve_ma_detailed(a, F, tol=wl.NEWTON_N2_TOL)
        out["op_s"] = meter.stop(t)
        out["op_ref_s"] = out["op_s"] * meter.factor
        out["op_sampling_s"] = meter.spent_s
        out["rss_mib"] = _peak_rss_mib()
        out["record_mib"] = result.phi.values.nbytes / MIB
        if tracer is not None:
            out["trace"] = tracer.snapshot()
            tracer.reset()
        # The a-posteriori check a caller makes: the residual and positivity
        # of the returned potential, recomputed without solving.  It takes a
        # few tenths of a second, so the median of several is reported.
        times, ref_times, sampling = [], [], 0.0
        for _ in range(wl.NEWTON_N2_CHECKS):
            t = meter.start()
            density = ma_density(a, result.phi)
            positive = positivity_check(a, result.phi)
            times.append(meter.stop(t))
            ref_times.append(times[-1] * meter.factor)
            sampling += meter.spent_s
        out["verify_s"] = statistics.median(times)
        out["verify_ref_s"] = statistics.median(ref_times)
        out["verify_total_s"] = sum(times) + sampling
        if tracer is not None:
            tracer.enabled = False
            out["verify_trace"] = tracer.snapshot()
        residual = float(np.max(np.abs(np.log(density.values) - np.log(F.values))))
        error = float(np.max(np.abs(result.phi.values - phi_star.values)))
        if error > wl.NEWTON_N2_MAX_ERROR:
            errors.append(f"sup |phi - phi*| = {error:.3e} > {wl.NEWTON_N2_MAX_ERROR}")
        if residual > 10 * wl.NEWTON_N2_TOL:
            errors.append(f"recomputed residual {residual:.3e} > {10 * wl.NEWTON_N2_TOL}")
        if not positive.ok:
            errors.append(f"returned form is not positive (min eig {positive.min_eig:.3e})")
    if tracer is not None and "trace" not in out and step != "setup":
        out["trace"] = tracer.snapshot()

    with open(sys.argv[2], "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
