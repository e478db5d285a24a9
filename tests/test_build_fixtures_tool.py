"""tools/build_fixtures.py still imports against the library and writes the fixtures.

The fixture script imports pipeline names, among them the private
`_train_districts` and `feedback_update`. A refactor that renames or
deletes one of them would break the tool only when the fixtures are next
rebuilt; this test fails instead. Importing the tool builds nothing:
only its main() does. The battery and allocation scenarios need no
tuning, so their committed files are rebuilt here byte for byte.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from greenloop.scenario import save_scenario

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "build_fixtures.py"
FIXTURES = ROOT / "src" / "greenloop" / "fixtures"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends "src"
    spec = importlib.util.spec_from_file_location("build_fixtures", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_fixtures_imports(tool):
    assert callable(tool.main)


@pytest.mark.parametrize(
    "name", ["battery_baseline.json", "battery_framework.json", "alloc_small.json"]
)
def test_untuned_fixtures_rebuild_byte_for_byte(tool, tmp_path, name):
    if name == "alloc_small.json":
        spec = tool.alloc_scenario()
    else:
        spec = tool.battery_scenario(name.removeprefix("battery_").removesuffix(".json"))
    save_scenario(spec, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
