"""No library module imports a name it never uses, keeps a private one
that nothing reads, exports a function that only unit tests call, or caches
a field, and continuation states are built at one site.

No linter ships with the toolchain, so this walks each module's syntax tree
with the stdlib ``ast``: every name an import binds must be read somewhere
in the module, or be re-exported through its ``__all__``; every module-level
private name (``_x``, not a dunder) must be read by some module of the
package, by name, as an attribute or through ``from ... import``; every
function in an ``__all__`` must be read by the package outside its own
``def``, by the acceptance suite or by the benchmark, by name, as an
attribute of a module, or imported by a module that reads the name it
binds; every ``functools`` cache is keyed by ``int`` and ``bool``
parameters only; ``ContinuationState(...)`` is called exactly once in the
package, in ``continuation._rung_state``, and the lattice walk of the
Hoelder stencil legs once; the Hoelder stencil is built only in
``estimates._LadderEstimates.build`` and its pass run only in
``estimates._LadderEstimates.measure``, the one private name of
``estimates`` that ``continuation`` reads, and no diagnostics key is named
in ``continuation``; ``_LadderEstimates.build`` is called only in
``continuation.run_continuation`` and ``continuation.rebuild_states``, once
per ladder, so ``delta_eps`` and a rung build no estimates;
``Verdict(...)`` is called only in the two deciding rules and the
integrability check, all in ``estimates``;
``report`` imports nothing
from ``pluripotential``, reads no private name of ``estimates`` or
``continuation`` and smooths no potential, and ``rebuild_states`` is
defined in ``continuation`` alone; ``_regularize`` is called only in
``continuation._Rung.build`` and ``pluripotential.regularize``, and
``pluripotential._certified``, the one maker of a weight's curvature
certificate, only in ``pluripotential._regularize``,
``estimates._LadderEstimates.build`` and ``estimates.comparison_residual``,
while ``estimates`` reads no ``min_eigenvalue_field``; only
``report.run_experiment`` makes a run directory, only ``report`` names
``states.npz``, and the command line imports neither ``shutil`` nor
``contextlib``; the scenario library imports nothing of the package but
``config``; only the command-line module imports ``ctypes``; only
``geometry`` reads the ``parts`` of a Hermitian form; and importing the
command line loads no module of scipy, nor ``numpy.f2py``,
``numpy.testing`` or ``numpy.random``, while a scipy without its compiled
pocketfft fails that import with an ``ImportError``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torusma"


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in its ``__all__``."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return exported


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(bound - read - _exported(tree))


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "__all__ = ['dataclass']\n"
        "x = np.zeros(3)\n"
    )
    assert _unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _root(node: ast.expr) -> str | None:
    """The name an attribute chain such as ``torusma.cli.main`` starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _reads(tree: ast.Module, strict: bool = False) -> set[str]:
    """The names a module reads: by name, as an attribute, and through
    ``from ... import``.  ``strict`` counts an import only where the module
    reads the name it binds, and an attribute only on a name an import
    binds (``module.function``, not ``state.delta_eps``)."""
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
    read = set(loaded)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (not strict or _root(node) in bound):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(
                a.name for a in node.names if not strict or (a.asname or a.name) in loaded
            )
    return read


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree) - read
    )


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": (
            "__version__ = '1'\n"
            "_LIMIT = 3\n"
            "_unused: int = 0\n"
            "def _helper(): return _LIMIT\n"
            "def _orphan(): pass\n"
            "class _Data: pass\n"
        ),
        "b": "from .a import _helper\nimport a\nx = a._Data\n",
    }
    assert _unread_private_names(sources) == ["a._orphan", "a._unused"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert _unread_private_names(sources) == []


# A public function is one the package, the acceptance suite or the
# benchmark calls; one that only unit tests call is a second path to what
# the record already computes.  The tracer's span names are strings, not
# reads; an import counts only where the importing module reads the name
# it binds, and an attribute only on a module (``estimates.f``, not
# ``state.f``).  ``degeneracy_integrability`` is the only check of the
# background's degeneracy, which no record reports yet: whether the record
# reports it or it goes is decided on its own (ROADMAP item 5).
# ``delta_eps`` is read by no module and called by no acceptance test, but
# the acceptance suite imports it, so it cannot go while that suite is
# unchanged.
_CALLERS = (ROOT / "tests" / "test_acceptance.py", *sorted(ROOT.glob("perfbench/*.py")))
_UNREAD_PUBLIC_ALLOWED = ["continuation.delta_eps", "ma.degeneracy_integrability"]


def _unread_public_functions(sources: dict[str, str], callers=()) -> list[str]:
    """Each exported function of ``sources`` read nowhere but in its own ``def``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    outside = set().union(*(_reads(ast.parse(source), strict=True) for source in callers))
    unread = []
    for module, tree in trees.items():
        exported = _exported(tree)
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name not in exported:
                continue
            rest = ast.Module([other for other in tree.body if other is not node], [])
            others = (_reads(t, strict=True) for m, t in trees.items() if m != module)
            if node.name not in outside.union(_reads(rest, strict=True), *others):
                unread.append(f"{module}.{node.name}")
    return sorted(unread)


def test_the_check_finds_an_unread_public_function():
    sources = {
        "a": (
            "__all__ = ['used', 'attr', 'imported', 'renamed', 'unused', 'recursive',"
            " 'orphan', 'Cls', 'K']\n"
            "def used(): pass\n"
            "def attr(): pass\n"
            "def imported(): pass\n"
            "def renamed(): pass\n"
            "def unused(): pass\n"
            "def recursive(): return recursive()\n"
            "def orphan(): pass\n"
            "def _private(): pass\n"
            "class Cls: pass\n"
            "K = 1\n"
            "x = used()\n"
        ),
        "b": "from . import a\nfrom .a import unused\ny = a.attr\nz = y.orphan\n",
    }
    callers = (
        "from torusma.a import imported, renamed as other, unused as spare\n"
        "span = 'a.orphan'\n"
        "imported()\n"
        "z = other\n",
    )
    assert _unread_public_functions(sources, callers) == [
        "a.orphan",
        "a.recursive",
        "a.unused",
    ]


def test_every_public_function_is_read_outside_the_unit_tests():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    callers = [path.read_text() for path in _CALLERS]
    assert _unread_public_functions(sources, callers) == _UNREAD_PUBLIC_ALLOWED


# A cache keyed by ints and bools holds multipliers of a grid size, never a
# field: fields must not be cached at module level.
_CACHE_DECORATORS = {"lru_cache", "cache"}
_CACHE_KEY_TYPES = {"int", "bool"}


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _cached_functions_with_field_keys(source: str) -> list[str]:
    """Cached functions with a parameter not annotated ``int`` or ``bool``."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(_decorator_name(d) in _CACHE_DECORATORS for d in node.decorator_list):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        if args.vararg or args.kwarg or not all(
            isinstance(a.annotation, ast.Name) and a.annotation.id in _CACHE_KEY_TYPES
            for a in params
        ):
            bad.append(node.name)
    return sorted(bad)


def test_the_check_finds_a_cache_keyed_by_a_field():
    source = (
        "import functools\n"
        "from functools import lru_cache, cache\n"
        "@lru_cache(maxsize=8)\n"
        "def _ok(n: int, N: int, flag: bool): pass\n"
        "@functools.lru_cache\n"
        "def _field(f: GridField): pass\n"
        "@cache\n"
        "def _unannotated(n): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def _scale(n: int, eps: float): pass\n"
        "@lru_cache\n"
        "def _star(*args: int): pass\n"
        "def _plain(f: GridField): pass\n"
    )
    assert _cached_functions_with_field_keys(source) == [
        "_field",
        "_scale",
        "_star",
        "_unannotated",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_caches_are_keyed_by_ints_and_bools(path):
    assert _cached_functions_with_field_keys(path.read_text()) == []


# One constructor builds every continuation state, so ``run`` and ``verify``
# cannot drift into two state paths again.
def _call_sites(sources: dict[str, str], name: str) -> list[str]:
    """``module:line`` of every call of ``name``, bare or as an attribute."""
    sites = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                sites.append(f"{module}:{node.lineno}")
    return sorted(sites)


def test_the_check_finds_every_call_site():
    sources = {
        "a": (
            "from .c import ContinuationState\n"
            "def build(): return ContinuationState(1, 2)\n"
            "ok = isinstance(x, ContinuationState)\n"
        ),
        "b": (
            "from . import c\n"
            "s = c.ContinuationState(eps=1)\n"
            "t = ContinuationStateView(s)\n"
        ),
    }
    assert _call_sites(sources, "ContinuationState") == ["a:2", "b:2"]


def test_continuation_states_are_built_at_one_site():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    sites = _call_sites(sources, "ContinuationState")
    assert _enclosing_functions(sources, sites) == ["continuation._rung_state"]


# The Hoelder stencil legs are walked at one site, the lattice ``product``
# inside ``estimates._admissible_legs``, so the seminorms and the parse-time
# admissibility check cannot drift into two walks again.
def test_stencil_legs_are_walked_at_one_site():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    walker = next(
        node
        for node in ast.walk(ast.parse(sources["estimates"]))
        if isinstance(node, ast.FunctionDef) and node.name == "_admissible_legs"
    )
    [site] = _call_sites(sources, "product")
    module, line = site.split(":")
    assert module == "estimates"
    assert walker.lineno < int(line) <= walker.end_lineno


# Every record check is one named ``Verdict``, decided in ``estimates``:
# ``_decide`` makes it HOLDS or VIOLATED from failure phrases, ``_too_short``
# makes a ladder below three rungs INCONCLUSIVE, and only the integrability
# check's borderline margin is a status of its own.  A new check goes
# through these, not through a branch of its own.
def _enclosing_functions(sources: dict[str, str], sites) -> list[str]:
    """``module.function`` of the top-level function, or ``module.Class.method``
    of the method of a top-level class, around each ``module:line``."""
    found = []
    for site in sites:
        module, line = site.split(":")
        body = ast.parse(sources[module]).body
        scopes = [("", body)]
        scopes += [(f"{c.name}.", c.body) for c in body if isinstance(c, ast.ClassDef)]
        found += [
            f"{module}.{prefix}{node.name}"
            for prefix, nodes in scopes
            for node in nodes
            if isinstance(node, ast.FunctionDef)
            and node.lineno <= int(line) <= node.end_lineno
        ]
    return sorted(found)


def test_the_check_finds_the_enclosing_function():
    sources = {
        "a": (
            "x = V(0)\n"
            "def f():\n"
            "    return V(1)\n"
            "\n"
            "def g(): pass\n"
            "class C:\n"
            "    y = V(2)\n"
            "    @classmethod\n"
            "    def m(cls):\n"
            "        return V(3)\n"
        )
    }
    assert _enclosing_functions(sources, _call_sites(sources, "V")) == ["a.C.m", "a.f"]


def test_verdicts_are_built_at_three_sites():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    sites = _call_sites(sources, "Verdict")
    assert len(sites) == 3
    assert _enclosing_functions(sources, sites) == [
        "estimates._decide",
        "estimates._skoda",
        "estimates._too_short",
    ]


# A rung's potentials are smoothed in one place, ``continuation._Rung.build``
# (``psi1`` and ``psi2``, once each), which ``run``, ``verify`` and
# ``delta_eps`` all call; the public ``regularize`` wraps the same function.
def test_potentials_are_smoothed_at_two_sites():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    sites = _call_sites(sources, "_regularize")
    assert _enclosing_functions(sources, sites) == [
        "continuation._Rung.build",
        "continuation._Rung.build",
        "pluripotential.regularize",
    ]


# A comparison weight's curvature certificate, ``min eig H(psi) + C``, is
# taken by ``pluripotential._certified`` alone, so the smoothing guarantee
# (b) and the comparison precondition read one number: it weighs each
# smoothed potential, the ladder's background weight and the public
# residual's weight, and ``estimates`` takes no eigenvalue of its own.
def test_weights_are_certified_at_three_sites():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert "min_eigenvalue_field" not in _reads(ast.parse(sources["estimates"]))
    sites = _call_sites(sources, "_certified")
    assert _enclosing_functions(sources, sites) == [
        "estimates._LadderEstimates.build",
        "estimates.comparison_residual",
        "pluripotential._regularize",
    ]


# The Hoelder stencil is built once per ladder, in
# ``estimates._LadderEstimates.build``, and each of the last rungs measures
# its potential on it as it is built, in ``_LadderEstimates.measure``: the
# record keeps no potential for interior-regularity, and ``run`` and
# ``verify`` take one path to it.
def _method_call_sites(sources: dict[str, str], owner: str, method: str) -> list[str]:
    """``module:line`` of every call of ``owner.method``, ``owner`` bare or an
    attribute itself (``estimates.Owner.method``)."""
    sites = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            func = node.func if isinstance(node, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and func.attr == method
                and owner in (getattr(func.value, "id", None), getattr(func.value, "attr", None))
            ):
                sites.append(f"{module}:{node.lineno}")
    return sorted(sites)


def test_the_check_finds_method_call_sites():
    sources = {
        "a": "x = Owner.build(1)\ny = m.Owner.build()\nz = Other.build()\nw = Owner.make()\n",
    }
    assert _method_call_sites(sources, "Owner", "build") == ["a:1", "a:2"]


def test_the_hoelder_stencil_is_built_and_passed_at_one_site_each():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    stencils = _method_call_sites(sources, "_HolderStencil", "build")
    assert _enclosing_functions(sources, stencils) == ["estimates._LadderEstimates.build"]
    passes = _call_sites(sources, "_holder_pass")
    assert _enclosing_functions(sources, passes) == ["estimates._LadderEstimates.measure"]


# What the estimates of every rung read is built once per ladder, by the
# two functions that walk a ladder; a rung reads only the scenario, the
# sharp models and its eps, so ``delta_eps`` builds no estimates.
def test_ladder_estimates_are_built_by_the_two_ladder_walks():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    sites = _method_call_sites(sources, "_LadderEstimates", "build")
    assert _enclosing_functions(sources, sites) == [
        "continuation.rebuild_states",
        "continuation.run_continuation",
    ]


# The bundled scenarios are config documents: the library reaches the
# package only through the parser, never through the objects it builds.
def _package_imports(source: str) -> list[str]:
    """The package modules a module imports, relatively or as ``torusma.x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("torusma" if node.level else "", node.module)))
            if module == "torusma":
                found.update(f"torusma.{a.name}" for a in node.names)
            else:
                found.add(module)
    return sorted({m.split(".")[1] for m in found if m.startswith("torusma.")})


def test_the_check_finds_package_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .config import parse_config\n"
        "from .pluripotential import Pole\n"
        "from . import geometry, ma\n"
        "import torusma.continuation\n"
        "from torusma.estimates import Verdict\n"
        "from torusma import report\n"
    )
    assert _package_imports(source) == [
        "config",
        "continuation",
        "estimates",
        "geometry",
        "ma",
        "pluripotential",
        "report",
    ]


def test_scenarios_import_only_the_config_parser():
    assert _package_imports((SRC / "scenarios.py").read_text()) == ["config"]


# ``report`` is the record format: ``estimates.record_verdicts`` decides
# every verdict, so the format reaches neither the models of
# ``pluripotential`` nor a private rule or bound of ``estimates``.
def _private_reads_of(source: str, module: str) -> list[str]:
    """The private names a module reads from ``module``, as an attribute of
    the bare name or through ``from ... import``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith(module):
            found.update(a.name for a in node.names)
    return sorted(name for name in found if name.startswith("_") and not name.endswith("__"))


def test_the_check_finds_private_reads():
    source = (
        "from . import estimates\n"
        "from .estimates import Verdict, _bound\n"
        "x = estimates._decide(estimates.HOLDS, estimates.__name__)\n"
        "y = other._skoda\n"
    )
    assert _private_reads_of(source, "estimates") == ["_bound", "_decide"]


def test_report_decides_no_verdict():
    source = (SRC / "report.py").read_text()
    assert "pluripotential" not in _package_imports(source)
    assert _private_reads_of(source, "estimates") == []


# One object of ``estimates`` measures a rung: ``continuation`` builds the
# rung and its state, and reaches the estimates only through
# ``_LadderEstimates``, so a new per-rung quantity is added in one module.
def _diagnostics_keys(source: str) -> set[str]:
    """The string keys that ``_LadderEstimates`` and ``_holder_pass`` of an
    ``estimates`` source put into a diagnostics dict, as a display or by
    subscript assignment."""
    keys = set()
    for scope in ast.parse(source).body:
        if getattr(scope, "name", None) not in ("_LadderEstimates", "_holder_pass"):
            continue
        for node in ast.walk(scope):
            if isinstance(node, ast.Dict):
                keys.update(k.value for k in node.keys if isinstance(k, ast.Constant))
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if isinstance(node.slice, ast.Constant):
                    keys.add(node.slice.value)
    return keys


def test_the_check_finds_diagnostics_keys():
    source = (
        "def _holder_pass():\n"
        "    d = {'a': 1}\n"
        "    d['b'] = 2\n"
        "    return d['c']\n"
        "class _LadderEstimates:\n"
        "    def measure(self): return {'e': 3, **x}\n"
        "def other(): return {'f': 4}\n"
    )
    assert _diagnostics_keys(source) == {"a", "b", "e"}


def test_continuation_measures_no_rung_itself():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    continuation = sources["continuation"]
    assert _private_reads_of(continuation, "estimates") == ["_LadderEstimates"]
    keys = _diagnostics_keys(sources["estimates"])
    assert {"sharp_weighted_sup", "shift_defect", "holder_outer", "sobolev_norm"} <= keys
    assert len(keys) == 11
    assert not keys & _string_constants(continuation)


# ``continuation`` builds every rung and state, solved or rebuilt from a
# record, so ``report`` reaches it only through its public names.
def _definers(sources: dict[str, str], name: str) -> list[str]:
    """The modules that define a top-level function ``name``."""
    return sorted(
        module
        for module, source in sources.items()
        if any(
            isinstance(node, ast.FunctionDef) and node.name == name
            for node in ast.parse(source).body
        )
    )


def test_the_check_finds_definers():
    sources = {"a": "def f(): pass\n", "b": "from .a import f\ndef g(): f()\n"}
    assert _definers(sources, "f") == ["a"]


def test_report_builds_no_rung():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    report = sources["report"]
    assert _private_reads_of(report, "continuation") == []
    assert _call_sites({"report": report}, "regularize") == []
    assert _definers(sources, "rebuild_states") == ["continuation"]


# ``report.run_experiment`` owns a record on disk: it alone makes the run
# directory, only ``report`` names the archive, and the command line keeps
# no cleanup of its own, so a failed run's leftovers are decided in one place.
def _string_constants(source: str) -> set[str]:
    """Every string literal of a module, docstrings included."""
    return {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_the_check_finds_string_constants():
    source = 'x = "states.npz"\ny = f"{x}.tmp"\nz = b"raw"\n'
    assert _string_constants(source) == {"states.npz", ".tmp"}


def test_report_alone_writes_a_record():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    makedirs = _call_sites(sources, "makedirs")
    assert _enclosing_functions(sources, makedirs) == ["report.run_experiment"]
    naming = [m for m, text in sources.items() if "states.npz" in _string_constants(text)]
    assert naming == ["report"]
    assert not {"contextlib", "shutil"} & set(_top_level_imports(sources["cli"]))


# Allocator policy belongs to the program's entry point: ``import torusma``
# and every library call leave the caller's allocator as they find it.
def _top_level_imports(source: str) -> list[str]:
    """The top-level names of the absolute modules a module imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return sorted(found)


def test_the_check_finds_top_level_imports():
    source = (
        "import ctypes.util\n"
        "from ctypes import CDLL\n"
        "import numpy as np\n"
        "from .ctypes import x\n"
        "def f():\n"
        "    import os\n"
    )
    assert _top_level_imports(source) == ["ctypes", "numpy", "os"]


def test_only_the_command_line_imports_ctypes():
    importers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "ctypes" in _top_level_imports(path.read_text())
    ]
    assert importers == ["cli.py"]


# The layout of a Hermitian form, its independent real parts, is known to
# ``geometry`` alone; every other module goes through the form's methods.
def _attribute_reads(source: str, attribute: str) -> int:
    """How many times a module reads ``<expr>.<attribute>``."""
    return sum(
        isinstance(node, ast.Attribute) and node.attr == attribute
        for node in ast.walk(ast.parse(source))
    )


def test_the_check_finds_attribute_reads():
    source = (
        "def f(form, parts):\n"
        "    g = form.parts[0]\n"
        "    return parts, g.parts, form.trace()\n"
    )
    assert _attribute_reads(source, "parts") == 2


def test_only_geometry_reads_form_parts():
    readers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if _attribute_reads(path.read_text(), "parts")
    ]
    assert readers == ["geometry.py"]


def _python(code: str, *path: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``path`` ahead of the package."""
    path = os.pathsep.join(filter(None, [*path, str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


# The n = 2 Krylov solve is the package's own (``krylov.gmres``), the
# transforms call scipy's compiled pocketfft directly and ``logsumexp`` is
# ported (``pluripotential._logsumexp``), so a process that runs ``torusma``
# loads no Python module of scipy, and none of the numpy packages that
# ``scipy.fft``'s array-API layer would bring along.
def test_the_command_line_loads_no_scipy_module():
    code = (
        "import sys, torusma.cli\n"
        "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith("
        "('scipy.', 'numpy.f2py', 'numpy.testing', 'numpy.random'))))\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_a_missing_pocketfft_fails_loudly(tmp_path):
    # A scipy package without its fft directory: the import names the
    # directory it searched, and nothing falls back to another transform.
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    proc = _python("import torusma.cli", str(tmp_path))
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr
    assert str(tmp_path / "scipy" / "fft" / "_pocketfft") in proc.stderr
