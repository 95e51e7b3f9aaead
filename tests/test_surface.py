"""Every public name of the package is read by the package, the benchmark or
a documented user path.

A name counts as read where library or benchmark code loads it: a Name or an
Attribute in a load context, or an import of it.  Docstrings and comments
are not code, so mentioning a name there does not count.  The package's
__init__ is left out of the library scan, since importing every exported
name is its whole job.
"""

import ast
from pathlib import Path

import click

from nnapprox.cli import main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nnapprox"

# Public names that no library code calls but that are documented for users.
USER_API = {"compose", "general_activation"}


def _read_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_exported_name_is_read_or_documented():
    library = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    read = _read_names(library) | _read_names(sorted((ROOT / "perfbench").glob("*.py")))
    unread = sorted(_exported() - read - USER_API)
    assert not unread, f"exported but read by no library or benchmark code: {unread}"


def test_user_api_is_exported_and_documented():
    readme = (ROOT / "README.md").read_text()
    assert USER_API <= _exported()
    assert all(f"`{name}" in readme for name in USER_API)


def test_only_network_imports_numbers():
    # every scalar check goes through network._number or network._integer
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import) and any(alias.name == "numbers" for alias in node.names):
                importers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
                importers.add(path.name)
    assert importers == {"network.py"}


def test_only_the_array_contract_and_two_own_checks_call_isfinite():
    # every caller-facing array is checked by network._finite; cheb_fit names
    # the node of a non-finite value, and _kernels cannot import network
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "isfinite" and getattr(node.value, "id", "") == "np":
                    users.add((path.name, getattr(top, "name", None)))
    assert users == {("network.py", "_finite"), ("chebyshev.py", "cheb_fit"), ("_kernels.py", "greedy_cover")}


def _parameters(command, path=()):
    """(command path, parameter) for every parameter beneath command."""
    for param in command.params:
        yield " ".join(path), param
    for name, sub in getattr(command, "commands", {}).items():
        yield from _parameters(sub, (*path, name))


def test_no_cli_option_restates_a_library_domain():
    # the library checks every value; an option range would be a second copy
    # of the check, with its own message.  Choice and Path are allowed
    params = list(_parameters(main))
    assert len(params) > 50
    ranged = [(path, p.name) for path, p in params if isinstance(p.type, (click.IntRange, click.FloatRange))]
    assert not ranged, f"options with a click range: {ranged}"
