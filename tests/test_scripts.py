import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts")
                 .glob("*.py"))


def _load(path):
    # module-level code only (imports, definitions); main() is not called
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_present():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_and_has_main(path):
    assert callable(getattr(_load(path), "main", None))


def test_simulate_demo_runs():
    demo = _load(next(p for p in SCRIPTS if p.name == "simulate_demo.py"))
    assert demo.main(["--paths", "100"]) == 0
