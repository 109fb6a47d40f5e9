import ast
import os
import subprocess
import sys
from pathlib import Path

import stirperm

PACKAGE = Path(stirperm.__file__).parent


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def _modules_added(statement: str) -> set[str]:
    """Names of the modules that ``statement`` adds to ``sys.modules`` in a
    fresh interpreter that imports the package from this source tree."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    return set(done.stdout.split())


def test_import_footprint_leaves_out_dataclasses_inspect_and_json():
    added = _modules_added("import stirperm")
    assert "stirperm.sturm" in added
    assert {"dataclasses", "inspect", "json", "subprocess"}.isdisjoint(added)
    added = _modules_added("import stirperm.cli")
    assert "stirperm.cli" in added
    assert {"dataclasses", "inspect", "stirperm.verify", "subprocess"}.isdisjoint(added)


def test_split_row_closes_every_pipe_under_dev_mode():
    # a pipe or process left to the garbage collector warns there, and the
    # warning, an error here, reaches the unraisable hook
    probe = (
        "import gc, sys\n"
        "seen = []\n"
        "sys.unraisablehook = seen.append\n"
        "from stirperm import triangle\n"
        "row = triangle._extend((1,), 30)\n"
        "assert triangle._extend_split(row, 80, 20) == triangle._extend(row, 80)\n"
        "triangle._HELPER = 'no such helper'\n"
        "assert triangle._extend_split(row, 80, 20) is None\n"
        "gc.collect()\n"
        "sys.exit(f'unraisable: {seen}' if seen else 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", probe],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
