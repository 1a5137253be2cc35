"""The package's public names: everything exported is bound, everything bound is exported."""

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
