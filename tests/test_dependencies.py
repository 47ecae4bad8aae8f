"""PyYAML is the package's only runtime dependency: everything else that
``src/`` imports comes from the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_yaml_is_the_only_third_party_import():
    imported = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported - sys.stdlib_module_names - {"scaffolder"} == {"yaml"}
