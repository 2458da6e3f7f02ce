"""The package namespace re-exports exactly each module's public names."""

import ast
import importlib

import pytest

import compound_bcc


def package_imports():
    """{module: names} of the package's ``from .module import ...`` lines."""
    with open(compound_bcc.__file__) as fh:
        tree = ast.parse(fh.read())
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


IMPORTS = package_imports()


@pytest.mark.parametrize("module", sorted(set(IMPORTS) - {"errors"}))  # errors has no __all__
def test_package_exports_equal_module_all(module):
    names = IMPORTS[module]
    assert len(names) == len(set(names))
    assert set(names) == set(importlib.import_module(f"compound_bcc.{module}").__all__)
