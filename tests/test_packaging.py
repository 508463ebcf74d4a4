"""The installed package ships every data file the code reads.

Building the CLI parser reads presets.json, and the schemas cover every
JSON file the CLI writes. Tests run from src/, where every file is
present, so a data file that ``[tool.setuptools.package-data]`` misses
would break only the installed package.
"""

from pathlib import Path

import pytest

import leakaudit

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(leakaudit.__file__).parent


def test_package_data_globs_match_the_data_files():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["leakaudit"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    data_files = {
        path
        for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc")
    }
    assert {p.relative_to(PACKAGE).as_posix() for p in data_files} >= {
        "presets.json", "schemas/audit-bundle.schema.json",
    }
    assert sorted(data_files - shipped) == []
    # every glob still matches a file
    assert all(any(PACKAGE.glob(pattern)) for pattern in globs)
