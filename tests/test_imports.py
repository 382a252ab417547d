"""Every name a ``src/mapmp`` module imports is used in that module, so an
import left behind by deleted code fails here rather than lingering."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mapmp"
# Bound and never called: benchmarks/workloads.py wraps these names of the
# two modules, so they must stay importable from them.
WRAPPED = {"schedulers": {"dual_and_slack", "block_slack", "star_slack"}, "bench": {"recover_primal"}}


def imported_and_used(path: Path):
    """The names ``path`` binds by import (``__future__`` aside) and the
    names it reads, counting the strings of ``__all__`` as reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return imported, used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    imported, used = imported_and_used(path)
    wrapped = WRAPPED.get(path.stem, set())
    assert sorted(imported - used - wrapped) == []
    assert wrapped <= imported - used  # the exceptions are still bound, and still not called


def private_imports(path: Path) -> set:
    """The (module, name) pairs of underscore names ``path`` imports from
    another module of the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")}


def test_no_module_imports_a_private_name():
    # a helper one module shares with another has a public name, as the
    # recorder in schedulers runs objective's public record_pass
    found = {(path.stem, *pair) for path in SRC.glob("*.py") for pair in private_imports(path)}
    assert found == set()


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from __future__ import annotations\nimport math\nimport os as system\n"
                      "from .x import a, b\n__all__ = ['b']\nprint(math.pi, a)\n")
    imported, used = imported_and_used(module)
    assert imported - used == {"system"}
