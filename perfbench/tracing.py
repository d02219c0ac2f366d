"""Outside-in spans and counters for torusma's layers.

Nothing here edits the program.  ``install`` replaces, in every torusma
module, each public function that the module imports from another layer (and
each public function it defines, for calls within the module) by a wrapper
that records a span.  Spans are aggregated in memory by ``(parent, name)``:
call count, inclusive seconds and self seconds, where self time is the span's
duration minus the durations of its direct children.  A span name is
``<layer>.<function>`` and the layer is the torusma module that defines the
function.

Extra hooks count what the spans alone cannot see:

* every n-dimensional ``numpy.fft`` and ``scipy.fft`` entry point, with the
  number of points transformed; flops and bytes are *computed* from the
  transform sizes (5 P log2 P flops for a complex transform of P points,
  half that for a real one; one read of the input and one write of the
  output), never measured;
* the ``gmres`` name in ``torusma.ma``: calls, operator and preconditioner
  applications, and returns with ``info != 0``;
* the ``__post_init__`` validators of ``GridField`` and
  ``HermitianFormField``;
* Newton steps, rungs and record bytes, read from the wrapped functions'
  return values and outputs.

The FFT hooks are installed before torusma is imported, so a later
``from scipy.fft import rfftn`` inside the program binds the wrapper too.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict

MODULES = (
    "geometry",
    "pluripotential",
    "ma",
    "continuation",
    "estimates",
    "config",
    "report",
    "scenarios",
    "cli",
)

# Layers whose self time counts as covered; the cli is the traced operation
# itself and the root is the benchmark's own timer.
LAYERS = (
    "config",
    "geometry",
    "ma",
    "pluripotential",
    "continuation",
    "estimates",
    "report",
)

_FFT_FUNCS = {
    "fftn": "c2c",
    "ifftn": "c2c",
    "fft2": "c2c",
    "ifft2": "c2c",
    "rfftn": "r2c",
    "irfftn": "c2r",
    "rfft2": "r2c",
    "irfft2": "c2r",
}

ROOT = "root"


class Tracer:
    """In-memory span aggregate for one phase of one process."""

    def __init__(self):
        self.enabled = False
        self.stats: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[list] = [[ROOT, 0.0]]
        self._depth: dict[str, int] = defaultdict(int)

    def reset(self):
        # Cleared in place: hooks hold references to these containers.
        self.stats.clear()
        self.counters.clear()
        self._stack[:] = [[ROOT, 0.0]]
        self._depth.clear()

    def call(self, name, fn, args, kwargs, post=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack = self._stack
        stack.append(frame)
        depth = self._depth
        outer = depth[name] == 0
        depth[name] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            depth[name] -= 1
            stack.pop()
            parent = stack[-1]
            parent[1] += dt
            key = (parent[0], name)
            s = self.stats.get(key)
            if s is None:
                s = self.stats[key] = [0, 0.0, 0.0]
            s[0] += 1
            if outer:
                s[1] += dt
            s[2] += dt - frame[1]
        if post is not None:
            post(result, args, kwargs)
        return result

    def wrap(self, name, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, post)

        traced.__traced__ = fn
        return traced

    def snapshot(self) -> dict:
        return {
            "spans": [[p, n, s[0], s[1], s[2]] for (p, n), s in self.stats.items()],
            "counters": dict(self.counters),
        }


def _fft_post(tracer, kind):
    def post(result, args, kwargs):
        x = args[0] if args else kwargs.get("x", kwargs.get("a"))
        # Count points on the real side of a real transform.
        shape = getattr(result if kind == "c2r" else x, "shape", ())
        points = math.prod(shape)
        # The transform size per batch is the whole array unless axes are given.
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        size = math.prod(shape[a] for a in axes) if axes is not None else points
        per_point = 5.0 if kind == "c2c" else 2.5
        c = tracer.counters
        c["geometry.fft.transforms"] += 1
        c["geometry.fft.points"] += points
        c["geometry.fft.flops"] += per_point * points * math.log2(max(size, 2))
        c["geometry.fft.bytes"] += getattr(x, "nbytes", 0) + getattr(result, "nbytes", 0)

    return post


def install_fft_hooks(tracer: Tracer) -> None:
    """Wrap the n-dimensional numpy.fft and scipy.fft entry points."""
    import numpy.fft
    import scipy.fft

    for module in (numpy.fft, scipy.fft):
        for name, kind in _FFT_FUNCS.items():
            fn = getattr(module, name, None)
            if fn is None or hasattr(fn, "__traced__"):
                continue
            setattr(module, name, tracer.wrap("geometry.fft", fn, _fft_post(tracer, kind)))


def tree_bytes(path: str) -> int:
    """Bytes of every file under ``path``."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def _posts(tracer: Tracer) -> dict:
    c = tracer.counters

    def newton(result, args, kwargs):
        c["ma.newton_steps"] += result.newton_steps

    def rungs(result, args, kwargs):
        c["continuation.rungs"] += len(result)

    def written(result, args, kwargs):
        c["report.write_artifacts.bytes"] += tree_bytes(args[0])

    def loaded(result, args, kwargs):
        c["report.load_states.bytes"] += os.path.getsize(
            os.path.join(args[0], "states.npz")
        )

    return {
        "ma.solve_ma_detailed": newton,
        "continuation.run_continuation": rungs,
        "report.write_artifacts": written,
        "report.load_states": loaded,
    }


def _traced_gmres(tracer: Tracer, gmres):
    from scipy.sparse.linalg import LinearOperator, aslinearoperator

    c = tracer.counters

    def counted(op, span, counter):
        op = aslinearoperator(op)

        def apply(x):
            c[counter] += 1
            return tracer.call(span, op.matvec, (x,), {})

        return LinearOperator(op.shape, matvec=apply, dtype=op.dtype)

    def post(result, args, kwargs):
        if result[1] != 0:
            c["ma.gmres.info_nonzero"] += 1

    inner = tracer.wrap("ma.gmres", gmres, post)

    @functools.wraps(gmres)
    def traced(A, b, *args, **kwargs):
        if not tracer.enabled:
            return gmres(A, b, *args, **kwargs)
        A = counted(A, "ma.matvec", "ma.gmres.matvecs")
        if kwargs.get("M") is not None:
            kwargs["M"] = counted(kwargs["M"], "ma.precond", "ma.gmres.precond")
        return inner(A, b, *args, **kwargs)

    traced.__traced__ = gmres
    return traced


def install(tracer: Tracer) -> None:
    """Wrap torusma's public cross-layer functions (import torusma first)."""
    mods = {m: importlib.import_module(f"torusma.{m}") for m in MODULES}
    public = {}
    for layer, mod in mods.items():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            if callable(obj) and not isinstance(obj, type):
                public[id(obj)] = (f"{layer}.{name}", obj)
    posts = _posts(tracer)
    wrappers = {
        key: tracer.wrap(span, fn, posts.get(span)) for key, (span, fn) in public.items()
    }
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            w = wrappers.get(id(obj))
            if w is not None:
                setattr(mod, attr, w)
    ma = mods["ma"]
    ma.gmres = _traced_gmres(tracer, ma.gmres)
    geometry = mods["geometry"]
    for cls, span in (
        (geometry.GridField, "geometry.field_init"),
        (geometry.HermitianFormField, "geometry.form_init"),
    ):
        cls.__post_init__ = tracer.wrap(span, cls.__post_init__)


def merge(snapshots) -> dict:
    """Sum several snapshots (processes or phases) into one."""
    spans: dict[tuple[str, str], list] = {}
    counters: dict[str, float] = defaultdict(int)
    for snap in snapshots:
        for p, n, calls, incl, self_s in snap["spans"]:
            s = spans.setdefault((p, n), [0, 0.0, 0.0])
            s[0] += calls
            s[1] += incl
            s[2] += self_s
        for k, v in snap["counters"].items():
            counters[k] += v
    return {
        "spans": [[p, n, *s] for (p, n), s in spans.items()],
        "counters": dict(counters),
    }


def counts(snap) -> dict:
    """Every count in a snapshot: span calls by (parent, name) and counters."""
    out = {f"{p} > {n}": calls for p, n, calls, _, _ in snap["spans"]}
    out.update(snap["counters"])
    return out


def _by_name(snap):
    calls, incl = defaultdict(int), defaultdict(float)
    for _, n, c, i, _ in snap["spans"]:
        calls[n] += c
        incl[n] += i
    return calls, incl


# Spans reported with ``.calls`` and ``.s``, then spans reported with ``.s``
# only; a metric is named after its span unless renamed here.
_CALLS_AND_TIME = (
    "geometry.complex_hessian",
    "geometry.half_laplacian",
    "geometry.invert_half_laplacian",
    "geometry.spectral_gradient",
    "geometry.heat_smooth",
    "geometry.min_eigenvalue_field",
    "geometry.form_init",
    "geometry.field_init",
    "ma.solve_ma_detailed",
    "ma.gmres",
    "ma.positivity_check",
    "ma.ma_density",
    "pluripotential.regularize",
    "pluripotential.evaluate",
    "pluripotential.hessian_lower_bound",
    "estimates.siu_residual",
    "estimates.comparison_residual",
    "estimates.trace_identity_defect",
    "estimates.max_principle_probe",
    "estimates.holder_seminorm",
    "estimates.sobolev_holder_probe",
)
_TIME_ONLY = (
    "geometry.fft",
    "pluripotential.density_lp_check",
    "pluripotential.skoda_integrability",
    "continuation.run_continuation",
    "report.write_artifacts",
    "report.load_states",
)
_RENAMED = {"ma.solve_ma_detailed": "ma.solve"}
_COUNTERS = (
    "geometry.fft.transforms",
    "geometry.fft.points",
    "geometry.fft.flops",
    "geometry.fft.bytes",
    "ma.newton_steps",
    "ma.gmres.matvecs",
    "ma.gmres.precond",
    "ma.gmres.info_nonzero",
    "continuation.rungs",
    "report.write_artifacts.bytes",
    "report.load_states.bytes",
)
_LADDER_VERDICTS = (
    "estimates.c0_uniformity",
    "estimates.c2_uniformity",
    "estimates.delta_trend",
    "estimates.holder_scaling",
)


def layer_metrics(snap, wall_s: float) -> dict:
    """Per-layer metric values from a merged snapshot of the operations.

    ``wall_s`` is the traced wall time of those operations; coverage is the
    summed self time of the layers in ``LAYERS`` divided by it.
    """
    calls, incl = _by_name(snap)
    out = {}
    for span in _CALLS_AND_TIME:
        out[f"{_RENAMED.get(span, span)}.calls"] = calls.get(span, 0)
    for span in _CALLS_AND_TIME + _TIME_ONLY:
        out[f"{_RENAMED.get(span, span)}.s"] = incl.get(span, 0.0)
    for key in _COUNTERS:
        out[key] = snap["counters"].get(key, 0)
    steps = out["ma.newton_steps"]
    out["ma.matvecs_per_step"] = out["ma.gmres.matvecs"] / steps if steps else 0.0
    trials = sum(
        c
        for p, n, c, _, _ in snap["spans"]
        if p == "ma.solve_ma_detailed" and n == "geometry.min_eigenvalue_field"
    )
    out["ma.line_search.trials"] = trials
    out["ma.line_search.backtracks"] = trials - steps
    out["continuation.delta_eps.calls"] = calls.get("continuation.delta_eps", 0)
    out["estimates.ladder_verdicts.s"] = sum(incl.get(n, 0.0) for n in _LADDER_VERDICTS)
    # build_record runs under run_experiment for `torusma run` and directly
    # under the cli for `torusma verify`.
    out["report.build_record.run.s"] = out["report.build_record.verify.s"] = 0.0
    for p, n, _, i, _ in snap["spans"]:
        if n == "report.build_record":
            side = "run" if p == "report.run_experiment" else "verify"
            out[f"report.build_record.{side}.s"] += i
    self_by_layer = defaultdict(float)
    for _, n, _, _, s in snap["spans"]:
        self_by_layer[n.split(".", 1)[0]] += s
    for layer in LAYERS + ("cli",):
        out[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    covered = sum(self_by_layer.get(layer, 0.0) for layer in LAYERS)
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return out


_UNITS = {
    "geometry.fft.points": "points",
    "geometry.fft.flops": "flop",
    "ma.matvecs_per_step": "matvec/step",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"
