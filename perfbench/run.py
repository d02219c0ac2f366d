"""torusma benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pole-n1 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen and what it
bypasses): ``pole-n1``, ``pole-n2``, ``newton-n2``.

``--trace 0`` repeats the operation, each repetition in fresh child
processes, until ``--seconds`` have passed, and reports medians of the
following times at reference speed (``speed.py``; the wall-time medians are
printed beside them) and sizes:

* ``run_s``: one ``torusma run`` (solve, verdicts, record written) for the
  ladder workloads, one ``solve_ma_detailed`` call for ``newton-n2``;
* ``verify_s``: ``torusma verify`` on the record the same repetition wrote;
  for ``newton-n2`` the caller's a-posteriori check of the returned
  potential (``ma_density`` and ``positivity_check``, no solve);
* ``setup_s``: a fresh interpreter's imports plus config parsing and mass
  balance (ladder) or building the input arrays (``newton-n2``), sampled in
  every child and in extra set-up-only children;
* ``peak_rss_mb``: peak resident memory of the run child (MiB);
* ``record_mb``: bytes of the run record on disk (MiB); for ``newton-n2``
  the bytes of the returned potential.

``--trace 1`` makes one untraced run, then two traced repetitions of the same
seed, and reports the per-layer metrics of the first (see ``tracing.py``).
The counts of the two traced runs must agree exactly.

Every operation's output is checked (``child.py``); a failed check or an
unexpected exit code counts in ``failed``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# BLAS/OpenMP threads in every child, on both sides of any comparison.  One
# thread keeps runs steady on a shared machine; torusma's FFTs are
# single-threaded either way.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 3          # set-up samples per run, topped up by set-up-only children
CHILD_TIMEOUT_S = 170      # one child may not take longer
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference", f"pole-n1-seed{wl.REFERENCE_SEED}")

UNITS = {
    "run_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "record_mb": "MiB",
}


class ChildFailed(RuntimeError):
    """A child crashed or timed out: the benchmark itself cannot continue."""


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def _child(request: dict, tag: str) -> dict:
    req_path = os.path.join(WORK, f"{tag}.request.json")
    res_path = os.path.join(WORK, f"{tag}.result.json")
    request = dict(request, root=ROOT)
    with open(req_path, "w") as f:
        json.dump(request, f)
    if os.path.exists(res_path):
        os.remove(res_path)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), req_path, res_path],
            env=_env(),
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{tag}: child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not os.path.exists(res_path):
        raise ChildFailed(f"{tag}: child exited {proc.returncode}")
    with open(res_path) as f:
        return json.load(f)


class Repetition:
    """One repetition of a workload (run and verify, or one solve): its
    children's results and failures.  A failed check is reported, not
    raised; only a crashed child stops the benchmark."""

    def __init__(self, workload: str, seed: int, trace: bool, tag: str, verify: bool = True):
        self.results = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        base = {"workload": workload, "seed": seed, "trace": trace}
        if wl.WORKLOADS[workload]["kind"] == "solve":
            res = _child(dict(base, step="solve"), tag)
            self._add(res)
            self.run, self.verify = res, res
            return
        config = os.path.join(WORK, f"{tag}.ini")
        with open(config, "w") as f:
            f.write(wl.config_text(workload, seed))
        outdir = os.path.join(WORK, f"{tag}.runs")
        try:
            self.run = _child(
                dict(base, step="run", config=config, outdir=outdir, reference=REFERENCE),
                f"{tag}.run",
            )
            self._add(self.run)
            self.verify = None
            if verify and self.run.get("rundir"):
                self.verify = _child(
                    dict(
                        base,
                        step="verify",
                        config=config,
                        rundir=self.run["rundir"],
                        run_rc=self.run["rc"],
                    ),
                    f"{tag}.verify",
                )
                self._add(self.verify)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _add(self, res):
        self.attempted += 1
        self.failed += bool(res["errors"])
        self.results.append(res)
        self.errors += res["errors"]

    def verify_s(self, key: str) -> float:
        """Verify time: ``key`` is ``"wall"`` or ``"ref"`` (reference speed)."""
        if self.verify is self.run:
            return self.run["verify_s" if key == "wall" else "verify_ref_s"]
        return self.verify["op_s" if key == "wall" else "op_ref_s"]


def _setup_only(workload: str, seed: int, tag: str) -> dict:
    request = {"workload": workload, "seed": seed, "trace": False, "step": "setup"}
    if wl.WORKLOADS[workload]["kind"] == "ladder":
        config = os.path.join(WORK, f"{tag}.ini")
        with open(config, "w") as f:
            f.write(wl.config_text(workload, seed))
        request["config"] = config
    return _child(request, tag)


def _pocketfft(module: str) -> str:
    try:
        importlib.import_module(module)
    except ImportError:
        return "not pocketfft"
    return f"pocketfft ({module})"


def _provenance(workload: str) -> dict:
    import numpy
    import scipy
    import scipy.fft

    def read(path):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return None

    model = None
    cpuinfo = read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for i in range(8):
        level = read(f"{base}/index{i}/level")
        if level is None:
            break
        kind = read(f"{base}/index{i}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = read(f"{base}/index{i}/size")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "torusma")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    sizes = wl.largest_arrays(workload)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": (
            f"numpy.fft: {_pocketfft('numpy.fft._pocketfft_umath')}; "
            f"scipy.fft: {_pocketfft('scipy.fft._pocketfft.pypocketfft')}, "
            f"workers={scipy.fft.get_workers()}"
        ),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_core": caches,
        "blas_threads": THREADS,
        "git_commit": commit or "unavailable (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "largest_field_bytes": sizes["field_bytes"],
        "largest_form_bytes": sizes["form_bytes"],
        "fft_flops_and_bytes": "computed from transform sizes, not measured",
    }


def _median(values):
    return float(statistics.median(values))


def _measure(workload: str, seed: int, seconds: float):
    """Untraced repetitions until ``seconds`` have passed; end-to-end metrics."""
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        reps.append(Repetition(workload, seed, False, f"{workload}-{seed}-r{len(reps)}"))
    children = [res for r in reps for res in r.results]
    while len(children) < SETUP_SAMPLES:
        children.append(_setup_only(workload, seed, f"{workload}-{seed}-s{len(children)}"))
    verified = [r for r in reps if r.verify is not None]
    metrics = {
        "run_s": _median([r.run["op_ref_s"] for r in reps]),
        "verify_s": _median([r.verify_s("ref") for r in verified] or [0.0]),
        "setup_s": _median([c["setup_ref_s"] for c in children]),
        "peak_rss_mb": _median([r.run["rss_mib"] for r in reps]),
        "record_mb": _median([r.run.get("record_mib", 0.0) for r in reps]),
    }
    wall = {
        "run_s": _median([r.run["op_s"] for r in reps]),
        "verify_s": _median([r.verify_s("wall") for r in verified] or [0.0]),
        "setup_s": _median([c["setup_s"] for c in children]),
    }
    samples = dict.fromkeys(metrics, len(reps))
    samples["setup_s"] = len(children)
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    return reps, metrics, samples, wall


def _traced(workload: str, seed: int):
    """One untraced run, then two traced repetitions of the same seed."""
    errors = []
    plain = Repetition(workload, seed, False, f"{workload}-{seed}-u", verify=False)
    first = Repetition(workload, seed, True, f"{workload}-{seed}-t0")
    second = Repetition(workload, seed, True, f"{workload}-{seed}-t1", verify=False)
    reps = [plain, first, second]

    # Traced wall time includes the speed sampling, which the spans also hold.
    snaps = [first.run["trace"]]
    wall = first.run["op_s"] + first.run["op_sampling_s"]
    if first.verify is first.run:
        snaps.append(first.run["verify_trace"])
        wall += first.run["verify_total_s"]
    elif first.verify is not None:
        snaps.append(first.verify["trace"])
        wall += first.verify["op_s"] + first.verify["op_sampling_s"]
    merged = tracing.merge(snaps)
    values = tracing.layer_metrics(merged, wall)
    values["config.resolve.s"] = first.run["resolve_s"]
    values["trace.overhead"] = first.run["op_ref_s"] / plain.run["op_ref_s"]

    a, b = tracing.counts(first.run["trace"]), tracing.counts(second.run["trace"])
    if a != b:
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        errors.append(f"traced counts differ between two runs of seed {seed}: {diff[:8]}")
    metrics = {}
    for name, value in sorted(values.items()):
        metrics[name] = {"value": value, "unit": tracing.unit(name)}
    with open(os.path.join(WORK, f"trace-{workload}-{seed}.json"), "w") as f:
        json.dump({"wall_s": wall, "spans": merged["spans"], "counters": merged["counters"]}, f)
    return reps, metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "torusma", "__init__.py")):
        print(f"no torusma sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    # A terminated benchmark stops its running child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            reps, metrics, errors = _traced(args.workload, args.seed)
            samples, wall = {}, {}
        else:
            reps, metrics, samples, wall = _measure(args.workload, args.seed, args.seconds)
            errors = []
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    # The determinism check of a traced run counts as one more operation.
    attempted = sum(r.attempted for r in reps) + args.trace
    failed = sum(r.failed for r in reps) + bool(errors)
    errors = [e for r in reps for e in r.errors] + errors
    for e in errors:
        print(f"check failed: {e}")
    print("provenance: " + json.dumps(_provenance(args.workload), sort_keys=True))
    print(
        f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions, "
        f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} operations)"
    )
    for name, m in metrics.items():
        n = f" (median of {samples[name]})" if name in samples else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{n}")
    for name, value in wall.items():
        print(f"wall {name} = {value:.6g} s (median, not scaled to reference speed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
