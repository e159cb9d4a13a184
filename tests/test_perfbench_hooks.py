"""Every function the benchmark's traced mode wraps still exists where it looks for it.

perfbench/*.py install timing wrappers with `tracer.wrap(owner, "attr", ...)`,
where owner is a module, mostly minirec's, or a class in one. A renamed or moved
function breaks only the traced run, which the tier-1 suite does not start;
this test reads the calls from the benchmark's source and resolves each.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_names(tree: ast.AST) -> dict[str, str]:
    """Local name -> module for `import x`, `import x as y` and `from minirec import x`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "minirec":
            for alias in node.names:
                names[alias.asname or alias.name] = f"minirec.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


def _dotted(node: ast.expr) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def wrapped_hooks() -> list[tuple[str, object, str]]:
    """(file, owner, attribute) of every tracer.wrap call."""
    hooks = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = _module_names(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _dotted(node.func) == ["tracer", "wrap"]):
                continue
            owner, attr = _dotted(node.args[0]), node.args[1]
            assert owner is not None and owner[0] in modules and isinstance(attr, ast.Constant), \
                f"{path.name}: {ast.unparse(node)}"
            obj = importlib.import_module(modules[owner[0]])
            for part in owner[1:]:
                obj = getattr(obj, part)
            hooks.append((path.name, obj, attr.value))
    return hooks


def test_every_traced_hook_resolves():
    hooks = wrapped_hooks()
    assert len(hooks) >= 25, hooks
    missing = []
    for name, owner, attr in hooks:
        # The tracer reads a class attribute from the class's own __dict__.
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not found or not callable(getattr(owner, attr)):
            missing.append(f"{name}: {owner.__name__}.{attr}")
    assert missing == []
