"""The oracles in helpers.py read the package's data types and nothing else."""

import ast
from pathlib import Path

import pytest

# Besides these, any name from minirec.errors may be imported. The join
# oracle's event validation (event_fields_reference) restates the joiner's
# rules instead of calling its validator, and test_sample_stream.py checks
# that the two agree.
ALLOWED = {
    ("minirec.config", "parse_config"),
    ("minirec.delta_stream", "DeltaMessage"),
    ("minirec.delta_stream", "DenseRun"),
    ("minirec.delta_stream", "SparseRun"),
    ("minirec.features", "FeatureBatch"),
    ("minirec.features", "SlotIds"),
    ("minirec.sample_stream", "Event"),
    ("minirec.sample_stream", "JoinStats"),
    ("minirec.sample_stream", "LabeledSample"),
}


def disallowed_imports(source: str) -> list:
    """Every (module, name) the source takes from the package outside ALLOWED."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported = [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a module name handed to importlib or __import__
            if node.value == "minirec" or node.value.startswith("minirec."):
                found.append((node.value, None))
            continue
        else:
            continue
        for module, name in imported:
            if module == "minirec" and name is not None:
                module, name = f"minirec.{name}", None
            if module.startswith(".") or module == "minirec" or module.startswith("minirec."):
                if module != "minirec.errors" and (module, name) not in ALLOWED:
                    found.append((module, name))
    return found


def test_helpers_import_only_data_types():
    source = (Path(__file__).parent / "helpers.py").read_text()
    assert disallowed_imports(source) == []


@pytest.mark.parametrize("source", [
    "from minirec.sample_stream import Joiner",
    "from minirec.sample_stream import run_pipeline",
    "from minirec.sample_stream import *",
    "from minirec import sample_stream",
    "import minirec",
    "import minirec.trainer",
    "from minirec.model import forward",
    "from .sample_stream import Joiner",
    "from minirec.sample_stream import _event_fields",
    "import importlib\nimportlib.import_module('minirec.sample_stream')",
])
def test_guard_flags_package_code(source):
    assert disallowed_imports(source) != []


@pytest.mark.parametrize("source", [
    "from minirec.errors import MalformedEvent",
    "from minirec import errors",
    "import minirec.errors",
    "from minirec.sample_stream import Event, JoinStats, LabeledSample",
    "from minirec.config import parse_config",
    "import numpy as np",
])
def test_guard_allows_data_types(source):
    assert disallowed_imports(source) == []
