"""Every top-level import of a package module, a test or a script is used
in that file, and ``import hermlie`` loads no more than it promises."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hermlie

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(Path(hermlie.__file__).parent.glob("*.py"))
TESTS_AND_SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no expression of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Optional\nos.sep\n") == [
        "Optional (line 2)"]


# __init__.py imports only to re-export: its names are the package's interface
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"] + TESTS_AND_SCRIPTS,
    ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("argv", [None, ["obstruction", "s6.154^0", "lck"], ["verify-catalog"]],
                         ids=["import", "obstruction", "verify-catalog"])
def test_exact_paths_load_no_numpy_or_scipy(argv):
    # only the float search and the lattice probe need numpy and scipy; a
    # fresh interpreter shows what ``import hermlie`` and an exact command
    # load.  The lazy numpy placeholder sits in sys.modules from the import
    # on, so numpy counts as loaded once any of its submodules is.
    src = str(Path(hermlie.__file__).resolve().parent.parent)
    call = f"hermlie.cli.main({argv!r})" if argv else "0"
    code = (f"import sys; sys.path.insert(0, {src!r}); import hermlie.cli\n"
            f"code = {call}\n"
            "print(sorted(m for m in sys.modules if m.startswith(('numpy.', 'scipy'))), code)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines()[-1] == "[] 0"
