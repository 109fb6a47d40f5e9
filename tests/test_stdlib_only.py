import ast
import os
import subprocess
import sys
from pathlib import Path

import stirperm

PACKAGE = Path(stirperm.__file__).parent


def _absolute_imports() -> list[tuple[str, str]]:
    """(file name, module name) for every absolute import in the package."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module))
    return found


def test_package_imports_only_the_standard_library():
    outside = [
        f"{path}: {name}" for path, name in _absolute_imports()
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


def test_package_starts_no_process():
    # every row is built in the calling process, where the bench measures
    # its time and memory; a helper process would escape both
    spawners = {"subprocess", "multiprocessing", "concurrent"}
    found = [
        f"{path}: {name}" for path, name in _absolute_imports()
        if name.partition(".")[0] in spawners
    ]
    assert found == []


def test_public_names_resolve_once_each():
    names = stirperm.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(stirperm, name)]
    assert missing == []
    namespace = {}
    exec("from stirperm import *", namespace)
    assert set(names) <= set(namespace)
