"""No library module imports a name it never uses, keeps a private one
that nothing reads, exports a function that only unit tests call, or caches
a field, and continuation states are built at one site.

No linter ships with the toolchain, so this walks each module's syntax tree
with the stdlib ``ast``: every name an import binds must be read somewhere
in the module, or be re-exported through its ``__all__``; every module-level
private name (``_x``, not a dunder) must be read by some module of the
package, by name, as an attribute or through ``from ... import``; every
function in an ``__all__`` must be read the same way by the package outside
its own ``def``, by the acceptance suite or by the benchmark; every
``functools`` cache is keyed by ``int`` and ``bool`` parameters only;
``ContinuationState(...)`` is called exactly once in the package; and the
scenario library imports nothing of the package but ``config``.
"""

import ast
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


def _reads(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
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
# reads.  ``degeneracy_integrability`` is the only check of the background's
# degeneracy, which no record reports yet: whether the record reports it or
# it goes is decided on its own (ROADMAP item 4).
_CALLERS = (ROOT / "tests" / "test_acceptance.py", *sorted(ROOT.glob("perfbench/*.py")))
_UNREAD_PUBLIC_ALLOWED = ["ma.degeneracy_integrability"]


def _unread_public_functions(sources: dict[str, str], callers=()) -> list[str]:
    """Each exported function of ``sources`` read nowhere but in its own ``def``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    outside = set().union(*(_reads(ast.parse(source)) for source in callers))
    unread = []
    for module, tree in trees.items():
        exported = _exported(tree)
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name not in exported:
                continue
            rest = ast.Module([other for other in tree.body if other is not node], [])
            others = (_reads(t) for m, t in trees.items() if m != module)
            if node.name not in outside.union(_reads(rest), *others):
                unread.append(f"{module}.{node.name}")
    return sorted(unread)


def test_the_check_finds_an_unread_public_function():
    sources = {
        "a": (
            "__all__ = ['used', 'attr', 'imported', 'recursive', 'orphan', 'Cls', 'K']\n"
            "def used(): pass\n"
            "def attr(): pass\n"
            "def imported(): pass\n"
            "def recursive(): return recursive()\n"
            "def orphan(): pass\n"
            "def _private(): pass\n"
            "class Cls: pass\n"
            "K = 1\n"
            "x = used()\n"
        ),
        "b": "from . import a\ny = a.attr\n",
    }
    callers = ("from torusma.a import imported\nspan = 'a.orphan'\n",)
    assert _unread_public_functions(sources, callers) == ["a.orphan", "a.recursive"]


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
    assert len(_call_sites(sources, "ContinuationState")) == 1


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
