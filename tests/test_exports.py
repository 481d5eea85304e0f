"""Everything ``scmbench`` exports is used by the package itself."""

import ast
import types
from pathlib import Path

import scmbench


def test_every_export_is_loaded_by_the_package():
    src = Path(scmbench.__file__).parent
    loaded = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    exported = {name for name, value in vars(scmbench).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert sorted(exported - loaded) == []
