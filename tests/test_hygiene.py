"""Source hygiene of the package modules."""

import ast
import importlib
import re
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "pbc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Top-level imported names, mapped to their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    """Names the module reads, in code, in string annotations, or as
    re-exports listed in ``__all__``; a name only assigned to is not
    read."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, (ast.AnnAssign, ast.arg, ast.FunctionDef)):
            ann = (node.returns if isinstance(node, ast.FunctionDef)
                   else node.annotation)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
        elif (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _defined(tree: ast.Module) -> dict:
    """Module-level functions, classes and constants, mapped to their
    line numbers; dunder names such as ``__all__`` are left out."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target]):
                if (isinstance(target, ast.Name)
                        and not target.id.startswith("__")):
                    names[target.id] = node.lineno
    return names


def _read(path: Path) -> set:
    """Names a module reads (``_used``), or reads as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return _used(tree) | {node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute)}


PACKAGE_READS = set().union(*map(_read, PACKAGE.glob("*.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_name_is_read_in_the_package(path):
    # A function, class or constant nothing reads is dead code, unless
    # an ``__all__`` exports it.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = {name: line for name, line in _defined(tree).items()
            if name not in PACKAGE_READS}
    assert not dead, f"{path.name} defines names nothing reads: {dead}"


# Functions that may call themselves: each recursion is bounded by a
# limit the tool enforces, far below the interpreter's recursion limit.
RECURSION_ALLOWED = {
    # Star nesting, which the parser caps at 200 levels.
    "width": "star nesting",
    "instantiate_object": "star nesting",
}


def _self_calls(tree: ast.Module) -> dict:
    """Functions that call themselves by their plain name, mapped to the
    line of the first such call."""
    calls = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == func.name):
                calls.setdefault(func.name, node.lineno)
    return calls


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_recurses_unless_its_depth_is_bounded(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    recursive = {name: line for name, line in _self_calls(tree).items()
                 if name not in RECURSION_ALLOWED}
    assert not recursive, (
        f"{path.name} has functions that call themselves, which deep "
        f"input turns into a RecursionError: {recursive}")


def test_every_allowed_recursion_exists():
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= _self_calls(tree).keys()
    assert set(RECURSION_ALLOWED) <= found


def test_only_objects_and_terms_check_words():
    # Words are normal by construction; the shallow check runs only
    # where objects come in from outside: star atoms and typecheck.
    callers = {
        path.name for path in PACKAGE.glob("*.py")
        if any(isinstance(node, ast.Name) and node.id == "_checked_word"
               for node in ast.walk(ast.parse(path.read_text(
                   encoding="utf-8"))))}
    assert callers == {"objects.py", "terms.py"}


def test_only_rows_reads_a_rope():
    # The rope's format is one module's: every other module builds,
    # compares and reads rows through _rows's kernels and _plain.  A
    # rope has no mapping methods, so a reader that skips _plain fails
    # on its first rope, which the row kernel tests make appear.
    def reads(node):
        return (isinstance(node, ast.Name) and node.id == "_Cat"
                or isinstance(node, ast.alias) and node.name == "_Cat"
                or isinstance(node, ast.Attribute)
                and node.attr in ("parts", "split", "flat"))
    readers = {
        path.name for path in PACKAGE.glob("*.py")
        if any(map(reads, ast.walk(ast.parse(path.read_text(
            encoding="utf-8")))))}
    assert readers == {"_rows.py"}


def test_every_package_name_the_readme_cites_exists():
    # A dotted name under a package module, such as `pbc.semantics.denote`,
    # `_rows._concat` or `semantics.Series()`, must still be there.
    modules = {path.stem for path in MODULES}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = []
    for cited in re.finditer(r"`(pbc\.)?(\w+)((?:\.\w+)*)(?:\(\))?`", text):
        prefix, module, attrs = cited.groups()
        if module not in modules or not (prefix or attrs):
            continue
        try:
            reduce(getattr, attrs.split(".")[1:],
                   importlib.import_module(f"pbc.{module}"))
        except AttributeError:
            missing.append(cited.group(0))
    assert not missing, f"README cites names that are gone: {missing}"


@pytest.mark.parametrize("name", ["Seq", "Par", "TauStar"])
def test_composite_terms_compare_without_the_generated_eq(name):
    # The dataclass-generated == and hash recurse once per nesting
    # level, so a deep term would raise RecursionError.
    cls = getattr(importlib.import_module("pbc.terms"), name)
    assert not cls.__dataclass_params__.eq


@pytest.mark.parametrize("name", ["Seq", "Par", "TauStar"])
def test_composite_terms_print_without_the_generated_repr(name):
    # The dataclass-generated repr recurses once per nesting level too.
    cls = getattr(importlib.import_module("pbc.terms"), name)
    assert not cls.__dataclass_params__.repr


def test_the_benchmark_tracer_finds_every_name_it_reads():
    # perfbench/tracing.py wraps each name in LAYERS, looked up in its
    # pbc module, and imports names from pbc modules: a name moved out
    # of its module fails every traced benchmark run.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(
        encoding="utf-8"))
    wanted = []
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                        for t in node.targets)):
            for layer, names in ast.literal_eval(node.value).items():
                wanted += ((f"pbc.{layer}", name) for name in names)
        elif (isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("pbc.")):
            wanted += ((node.module, a.name) for a in node.names)
    assert ("pbc.normalform", "Case") in wanted
    assert ("pbc.semantics", "compose_maps") in wanted
    missing = [f"{module}.{name}" for module, name in wanted
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"the tracer reads names that are gone: {missing}"


@pytest.mark.parametrize("module", ["pbc"] + [
    f"pbc.{path.stem}" for path in MODULES], ids=str)
def test_every_exported_name_exists(module):
    # A name moved out of a module but left in its __all__ breaks
    # ``from pbc import *`` only for the caller that tries it.
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what is gone: {missing}"
