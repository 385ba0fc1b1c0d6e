"""Every module reads every name it imports: an import nothing reads is dead code.

The scan covers `src/gridshare` and `tests`. An import under
`if TYPE_CHECKING:` serves annotations only and is exempt, and so is a
`__future__` import.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "gridshare").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    exempt = {id(node) for branch in ast.walk(tree)
              if isinstance(branch, ast.If) and isinstance(branch.test, ast.Name)
              and branch.test.id == "TYPE_CHECKING"
              for statement in branch.body for node in ast.walk(statement)}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and id(node) not in exempt:
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif (isinstance(node, ast.ImportFrom) and id(node) not in exempt
              and node.module != "__future__"):
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_read(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line}: {name}" for line, name in unused)


def test_the_scan_finds_an_unread_import_and_exempts_type_checking_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import TYPE_CHECKING\n"
        "from json import dumps, loads\n"
        "if TYPE_CHECKING:\n"
        "    from csv import writer\n"
        "print(os.sep, loads)\n"
    )
    assert unused_imports(source) == [(2, "osp"), (4, "dumps")]
