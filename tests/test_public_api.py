"""The package root exports exactly what the README and the demos import.

Names that only tests or the CLI need are imported from their submodule,
so a new root export has to come with a README or demo use.
"""

import ast
import re
from pathlib import Path

import leakaudit

ROOT = Path(__file__).resolve().parent.parent


def _root_imports(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "leakaudit" and node.level == 0
        for alias in node.names
    }


def _readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_all_matches_readme_and_demo_imports():
    used = _root_imports(_readme_library_block())
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= _root_imports(demo.read_text(encoding="utf-8"))
    assert len(leakaudit.__all__) == len(set(leakaudit.__all__))
    assert set(leakaudit.__all__) == used
    for name in leakaudit.__all__:
        assert hasattr(leakaudit, name), name


def test_readme_block_defines_what_it_uses():
    tree = ast.parse(_readme_library_block())
    bound = set(_root_imports(_readme_library_block()))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert loaded - bound - {"print"} == set()
