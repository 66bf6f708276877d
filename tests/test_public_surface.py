"""The package's public names, its docstring examples and the README's
worked examples all run, and each module reads every name it imports."""

import ast
import doctest
import io
import pkgutil
import re
import shlex
from functools import reduce
from importlib import import_module
from pathlib import Path

import pytest

import dumont
from dumont.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(f"dumont.{m.name}" for m in pkgutil.iter_modules(dumont.__path__))


def test_every_public_name_resolves():
    missing = [name for name in dumont.__all__ if not hasattr(dumont, name)]
    assert missing == []
    assert len(set(dumont.__all__)) == len(dumont.__all__)


@pytest.mark.parametrize("name", ["dumont", *MODULES])
def test_docstring_examples(name):
    result = doctest.testmod(import_module(name))
    assert result.failed == 0
    if name == "dumont.permcore":
        assert result.attempted >= 1


_REFERENCE = re.compile(r":(?:func|class|mod|data):`([\w.]+)`")


def _resolves(module, ref):
    """Whether ``ref`` is an attribute path from ``module``, or a module
    followed by an attribute path from it."""
    parts = ref.split(".")
    roots = [(module, parts)]
    for i in range(1, len(parts) + 1):
        try:
            roots.append((import_module(".".join(parts[:i])), parts[i:]))
        except ImportError:
            break
    for root, path in roots:
        try:
            reduce(getattr, path, root)
            return True
        except AttributeError:
            pass
    return False


def test_docstring_references_resolve():
    # A :func:, :class:, :mod: or :data: reference in the package's source
    # names something in its own module or by its dotted path, so deleting
    # or renaming a name leaves no docstring pointing at it.
    refs = [(name, ref) for name in MODULES
            for ref in _REFERENCE.findall(Path(import_module(name).__file__).read_text("utf-8"))]
    assert len(refs) > 40
    assert [(name, ref) for name, ref in refs if not _resolves(import_module(name), ref)] == []


# Imports a module keeps for others to read through it.
_REEXPORTS = {"dumont.harness": {"BudgetExceeded"}}


def _unused_imports(source):
    """The names the imports of ``source`` bind that it never reads."""
    tree = ast.parse(source)
    bound = {(alias.asname or alias.name).partition(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_used():
    # The package's __init__ imports only to re-export, so it is not in MODULES.
    assert _unused_imports("import os.path, sys\nfrom a import b as c\nc(sys)") == {"os"}
    unused = {name: _unused_imports(Path(import_module(name).__file__).read_text("utf-8"))
              - _REEXPORTS.get(name, set()) for name in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}


def readme_claims():
    """(argv, output) of each README command line with a ``# ->`` claim."""
    out = []
    for line in README.read_text(encoding="utf-8").splitlines():
        if "# ->" in line:
            command, claim = line.split("# ->")
            argv = shlex.split(command)
            assert argv[0] == "dumont"
            out.append((argv[1:], claim.strip()))
    return out


def test_readme_examples_print_what_they_claim():
    claims = readme_claims()
    assert [claim for _, claim in claims] == ["614352", "EENENNENEENN", "16325478"]
    for argv, claim in claims:
        stream = io.StringIO()
        assert main(argv, out=stream) == 0
        assert stream.getvalue() == claim + "\n"
