"""Every module of the package parses under the oldest Python that
pyproject.toml admits.  `ast`'s feature_version check is best effort, but
it rejects later syntax such as `except*`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_declared_python_floor():
    floor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    version = (int(floor[1]), int(floor[2]))
    sources = sorted((ROOT / "src" / "orbichern").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=version)
