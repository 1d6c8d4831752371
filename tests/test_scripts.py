"""Every script under scripts/ imports cleanly against the package."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports_without_running_main(path):
    # a module name other than "__main__" skips the script's main block, so
    # this only executes its imports and definitions
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.__name__ != "__main__"
