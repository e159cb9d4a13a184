"""Every function, class and method in the package is reached by the product.

Code that only tests call belongs in the test suite: the product is what
the commands, the server and the benchmark run. The scan looks for each
name defined in src/minirec among the names that src/ and perfbench/
reference: a name read or called, an attribute, an imported name, or a
string that is an identifier (perfbench wraps functions by name). Dunder
methods are left out: the language calls them, not the code.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Definitions that the standard library calls by a name built at run time.
EXEMPT = {
    # http.server dispatches a request to "do_" + its method.
    "do_GET": "BaseHTTPRequestHandler calls it for a GET request",
    "do_POST": "BaseHTTPRequestHandler calls it for a POST request",
    # http.server logs every request through it; the override sends the line to logging.
    "log_message": "BaseHTTPRequestHandler.log_request calls it",
    # socketserver hands each accepted connection to it.
    "process_request": "socketserver.BaseServer calls it for each accepted connection",
}


def _trees(*dirs):
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def defined_names(src: Path) -> dict[str, str]:
    """Each function, class and method name defined under `src`, with where it is first defined."""
    found = {}
    for path, tree in _trees(src):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found.setdefault(node.name, f"{path.relative_to(src.parent)}:{node.lineno}")
    return found


def referenced_names(*dirs: Path) -> set[str]:
    """Every name the code under `dirs` reads, calls, imports or spells as an identifier string."""
    names = set()
    for _, tree in _trees(*dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def unreached(root: Path) -> dict[str, str]:
    """The names defined in root/src/minirec that neither root/src nor root/perfbench references."""
    defined = defined_names(root / "src" / "minirec")
    used = referenced_names(root / "src", root / "perfbench")
    return {name: where for name, where in defined.items() if name not in used and name not in EXEMPT}


def test_every_definition_is_reached_by_the_product():
    assert unreached(ROOT) == {}


def test_every_annotation_resolves():
    """Annotations are postponed, so a name that is never imported shows only when something resolves it."""
    unresolved = []
    for path in sorted((ROOT / "src" / "minirec").glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"minirec.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [v for v in vars(obj).values() if inspect.isfunction(v)] if inspect.isclass(obj) else []
            for target in (obj, *members):
                if inspect.isclass(target) or inspect.isfunction(target):
                    try:
                        typing.get_type_hints(target)
                    except NameError as exc:
                        unresolved.append((module.__name__, target.__qualname__, str(exc)))
    assert unresolved == []


def test_exemptions_are_still_defined():
    defined = defined_names(ROOT / "src" / "minirec")
    assert set(EXEMPT) <= set(defined)


def test_scan_finds_a_definition_only_tests_reach(tmp_path):
    package = tmp_path / "src" / "minirec"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "cache.py").write_text(
        "class Cache:\n"
        "    def __len__(self):\n        return 0\n"
        "    def get(self, key):\n        return self._get(key)\n"
        "    def _get(self, key):\n        return key\n"
        "    def get_or_insert(self, key, compute):\n        return compute()\n"
    )
    (package / "server.py").write_text("from .cache import Cache\n\ndef serve():\n    return Cache().get(1)\n")
    (tmp_path / "perfbench" / "run.py").write_text("tracer.wrap(server, 'serve')\n")
    assert set(unreached(tmp_path)) == {"get_or_insert"}
