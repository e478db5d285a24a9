"""tools/build_fixtures.py still imports against the library.

The fixture script imports pipeline names, among them the private
`_train_districts` and `feedback_update`. A refactor that renames or
deletes one of them would break the tool only when the fixtures are next
rebuilt; this test fails instead. Importing the tool builds nothing:
only its main() does.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "build_fixtures.py"


def test_build_fixtures_imports(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends "src"
    spec = importlib.util.spec_from_file_location("build_fixtures", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert callable(tool.main)
