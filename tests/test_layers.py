"""Imports inside the package run one way, from the foundations up to the CLI."""

import ast
from pathlib import Path

import entdetect

# A module may import only modules of an earlier layer.
LAYERS = [
    {"config", "errors"},
    {"linalg"},
    {"states"},
    {"correlations"},
    {"oracles", "sources"},
    {"schmidt", "tree"},
    {"sweeps"},
    {"cli"},
]


def _relative_imports(path: Path, modules: set) -> set:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name for a in node.names if a.name in modules)
    return found


def test_imports_follow_layer_order():
    package = Path(entdetect.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    rank = {m: k for k, layer in enumerate(LAYERS) for m in layer}
    assert modules == set(rank), "every module needs a layer"
    for module in sorted(modules):
        for dep in _relative_imports(package / f"{module}.py", modules):
            assert rank[dep] < rank[module], f"{module} imports {dep}"


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_modules_use_every_import():
    # The package's public names are re-exported by __init__ alone.
    package = Path(entdetect.__file__).parent
    paths = [p for p in package.glob("*.py") if p.stem != "__init__"]
    for path in sorted(paths + list(Path(__file__).parent.glob("*.py"))):
        unused = _unused_imports(path)
        assert not unused, f"{path.name} imports {unused} without using them"
