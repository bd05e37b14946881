"""The package's modules import each other without a cycle."""

import ast
from pathlib import Path

import upsharp

PACKAGE = Path(upsharp.__file__).parent


def _relative_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports relatively, function-local
    imports included."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:  # from . import x: a module, or a name of __init__
                    targets.update(a.name if a.name in modules else "__init__"
                                   for a in node.names)
        graph[name] = targets
    return graph


def test_relative_import_graph_has_no_cycle():
    graph = _relative_imports()
    assert "profiles" in graph and graph["quadrature"]
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name not in done:
            for target in sorted(graph[name]):
                visit(target, path + [name])
            done.add(name)

    for name in sorted(graph):
        visit(name, [])
