import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hapsim

SRC = Path(hapsim.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.parent / "pyproject.toml"


def test_all_lists_exactly_the_public_names():
    for name in hapsim.__all__:
        assert hasattr(hapsim, name), name
    public = {name for name, value in vars(hapsim).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(hapsim.__all__)
    assert len(hapsim.__all__) == len(set(hapsim.__all__))


def test_all_is_the_readme_library_api():
    # The names the README's python examples import from the package root,
    # and the two result types those examples return.
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    documented = {alias.name for block in blocks
                  for node in ast.walk(ast.parse(block))
                  if isinstance(node, ast.ImportFrom) and node.module == "hapsim"
                  for alias in node.names}
    assert sorted(hapsim.__all__) == sorted(
        documented | {"SumRateCurve", "SnrSweepResult"})


def test_version_has_one_source():
    # The package metadata takes its version from hapsim.__version__; read
    # as text, since Python 3.10 has no tomllib.
    text = PYPROJECT.read_text(encoding="utf-8")
    assert not re.search(r'(?m)^version\s*=\s*"', text)
    assert re.search(r'(?m)^dynamic\s*=\s*\[\s*"version"\s*\]', text)
    assert re.search(r'(?m)^version\s*=\s*\{\s*attr\s*=\s*'
                     r'"hapsim\.__version__"\s*\}', text)


def test_import_loads_no_scenario_layer():
    # Scenario files are the CLI's; a library caller's import skips the
    # scenario module and PyYAML.
    code = ("import sys, hapsim; "
            "print(sorted({'yaml', 'hapsim.scenario'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _hapsim_imports(path: Path) -> set[str]:
    """Names of the hapsim modules that one source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("hapsim." * bool(node.level) + (node.module or "")).rstrip(".")
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("hapsim."))
    return found


@pytest.mark.parametrize("module,allowed", [
    ("network", set()),
    ("kernels", set()),
    ("streams", set()),
    ("simulator", {"network", "kernels", "streams"}),
    ("scenario", {"network", "simulator"}),
    ("cli", {"network", "scenario", "simulator"}),
], ids=["network", "kernels", "streams", "simulator", "scenario", "cli"])
def test_module_imports_only_its_lower_layers(module, allowed):
    assert _hapsim_imports(SRC / f"{module}.py") == allowed


@pytest.mark.parametrize("module", ["geometry", "capacity", "channel"])
def test_folded_modules_are_gone(module):
    assert not (SRC / f"{module}.py").exists()
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"hapsim.{module}")


def test_test_files_mirror_the_modules():
    # Each module's tests live in test_<module>.py; only the end-to-end
    # suite, this file and the test helpers' own tests stand apart.
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    allowed = {f"test_{name}.py" for name in modules} | {
        "test_acceptance.py", "test_api.py", "test_helpers.py"}
    files = {path.name for path in Path(__file__).parent.glob("test_*.py")}
    assert files <= allowed, sorted(files - allowed)
