"""Public names: everything exported is bound and used, everything bound is exported."""

import ast
from pathlib import Path

import supercong


def test_star_import_binds_every_exported_name():
    namespace: dict[str, object] = {}
    exec("from supercong import *", namespace)
    assert set(supercong.__all__) <= set(namespace)


def test_all_matches_the_names_init_imports():
    tree = ast.parse(Path(supercong.__file__).read_text())
    bound = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(supercong.__all__) == len(set(supercong.__all__))
    assert set(supercong.__all__) == bound


def test_every_exported_name_is_used_by_the_package():
    # a public name that only tests call is API the package does not need
    used = set()
    for path in Path(supercong.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(supercong.__all__) - used) == []
