"""The oldest Python that pyproject.toml declares (`requires-python`) can
parse every source and test file: each is parsed with that version's
grammar, so syntax newer than the floor fails here on any interpreter that
runs the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_at_the_declared_floor():
    # a regular expression, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    assert found, "pyproject.toml declares no requires-python floor"
    floor = int(found[1]), int(found[2])
    files = sorted((*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")))
    assert files
    refused = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}: {exc}")
    assert not refused, f"syntax newer than Python {floor[0]}.{floor[1]}: {refused}"
