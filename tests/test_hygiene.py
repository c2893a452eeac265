"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pronassess"

# Imported on purpose and never used in the module:
ALLOWED = {
    # benchmarks/layers.py wraps `cli.prepare_utterance` by name
    ("cli", "prepare_utterance"),
}


def unused_imports(source: str) -> list[str]:
    """The names that `source`'s imports bind and that it never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a import b, c\nb()\n") == \
        ["os", "np", "c"]


# The package's own imports are its public names, which it re-exports.
@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_no_unused_imports(module):
    unused = unused_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert [n for n in unused if (module, n) not in ALLOWED] == []
