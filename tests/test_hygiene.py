"""Source hygiene: every name a module, test or demo imports is used in that
file, every private module-level name of the package is read in its module,
no module of the package takes another's private name, the CLI decides its
exit codes in `main` alone, the package starts threads only through
`ThreadPoolExecutor`, and `errors.named` alone re-raises a package error."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pronassess"

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


# The package modules by name, the tests and demos by folder and name. The
# package's own imports are its public names, which it re-exports.
MODULES = {p.stem: p for p in SRC.glob("*.py") if p.stem != "__init__"} | {
    f"{folder}/{p.stem}": p for folder in ("tests", "demos") for p in (ROOT / folder).glob("*.py")}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    unused = unused_imports(MODULES[module].read_text(encoding="utf-8"))
    assert [n for n in unused if (module, n) not in ALLOWED] == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_names(source: str) -> list[str]:
    """The module-level `_names` (not dunders) that `source` defines, as a
    function, class or assignment target, and never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined if _is_private(name) and name not in read]


def test_finds_an_unused_private_name():
    source = ("_A = 1\n_B: int = 2\n_c, d = 3, 4\n__all__ = []\n"
              "def _f():\n    return _A\n"
              "def _g():\n    _local = 5\n"
              "class _K:\n    pass\n"
              "print(_B, _f)\n")
    assert unused_private_names(source) == ["_c", "_g", "_K"]


@pytest.mark.parametrize("module", sorted(m for m in MODULES if "/" not in m))
def test_no_unused_private_names(module):
    assert unused_private_names(MODULES[module].read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """'module.name' of each private name (not a dunder) that `source` takes
    from a module of the package: imported by name (`from .lstm import _x`)
    or read from a module it imports (`from . import lstm`, then `lstm._x`)."""
    tree = ast.parse(source)
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "pronassess"
                                                 or node.module.startswith("pronassess.")):
            module = (node.module or "").removeprefix("pronassess").lstrip(".")
            for a in node.names:
                if not module:
                    modules[a.asname or a.name] = a.name
                elif _is_private(a.name):
                    found.append(f"{module}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and \
                node.value.id in modules and _is_private(node.attr):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_finds_a_private_import():
    source = ("from . import lstm, audio_io as io\n"
              "from .lstm import _pin, run, __all__\nfrom pronassess.model import _f\n"
              "from os import _exit\nimport numpy as np\n"
              "lstm._depth\nio._read\nio.write\nnp._core\nlstm.__doc__\n")
    assert private_imports(source) == ["lstm._pin", "model._f", "lstm._depth", "audio_io._read"]


@pytest.mark.parametrize("module", sorted(m for m in MODULES if "/" not in m))
def test_no_private_imports(module):
    assert private_imports(MODULES[module].read_text(encoding="utf-8")) == []


def _prints_error(node) -> bool:
    """Whether node is a `print` whose first argument starts with 'error:'."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print" and node.args):
        return False
    first = node.args[0]
    if isinstance(first, ast.JoinedStr) and first.values:  # an f-string
        first = first.values[0]
    return isinstance(first, ast.Constant) and str(first.value).startswith("error:")


def exit_code_breaches(source: str) -> list[str]:
    """'function:line' of each place where `source` prints an 'error:' line
    outside `main`, or a `_cmd_*` function returns a value: commands raise,
    and `main` alone reports the error and picks the exit code."""
    breaches = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            valued = isinstance(node, ast.Return) and node.value is not None
            if (_prints_error(node) and name != "main") or \
                    (valued and name.startswith("_cmd_")):
                breaches.append((node.lineno, name))
    return [f"{name}:{line}" for line, name in sorted(breaches)]


def test_finds_exit_code_breaches():
    source = ("def _cmd_a(args):\n    print(f'error: {args}')\n    return 2\n"
              "def _cmd_b(args):\n    return run(args)\n"
              "def _cmd_c(args):\n    print('ok')\n    return 0\n"
              "def helper():\n    print('error: x', file=sys.stderr)\n    return 5\n"
              "def main():\n    print('error: y')\n    return 3\n"
              "def _cmd_d(args):\n    if args:\n        return\n    print('ok')\n")
    assert exit_code_breaches(source) == ["_cmd_a:2", "_cmd_a:3", "_cmd_b:5", "_cmd_c:8",
                                          "helper:10"]


def test_cli_decides_exit_codes_in_main():
    assert exit_code_breaches((SRC / "cli.py").read_text(encoding="utf-8")) == []


def thread_starts(source: str) -> list[str]:
    """'line: what' of each place where `source` reads `threading.Thread` or
    imports `Thread` from `threading`: the package starts its threads through
    `ThreadPoolExecutor`, which joins them and re-raises their errors."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "Thread" and \
                isinstance(node.value, ast.Name) and node.value.id == "threading":
            found.append((node.lineno, "threading.Thread"))
        elif isinstance(node, ast.ImportFrom) and node.module == "threading" and \
                any(a.name == "Thread" for a in node.names):
            found.append((node.lineno, "from threading import Thread"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_finds_a_thread_start():
    source = ("import threading\nfrom threading import Lock, Thread\n"
              "worker = threading.Thread(target=print)\nlock = threading.Lock()\n"
              "from concurrent.futures import ThreadPoolExecutor\n")
    assert thread_starts(source) == ["2: from threading import Thread", "3: threading.Thread"]


@pytest.mark.parametrize("module", sorted(m for m in MODULES if "/" not in m))
def test_threads_start_only_through_a_pool(module):
    assert thread_starts(MODULES[module].read_text(encoding="utf-8")) == []


# The exception classes that `errors` defines.
ERRORS = {node.name for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
          if isinstance(node, ast.ClassDef)}


def rewraps(source: str) -> list[str]:
    """'function:line' of each `except` handler in `source` that catches a
    class of `errors` (by name or as `errors.X`, alone or in a tuple) and
    raises a new exception; a bare `raise` re-raises the same one."""
    found = []
    for top in ast.parse(source).body:
        for handler in ast.walk(top):
            if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
                continue
            caught = {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)} | \
                {n.attr for n in ast.walk(handler.type) if isinstance(n, ast.Attribute)}
            if caught & ERRORS:
                found += [(node.lineno, getattr(top, "name", "<module>"))
                          for stmt in handler.body for node in ast.walk(stmt)
                          if isinstance(node, ast.Raise) and node.exc is not None]
    return [f"{name}:{line}" for line, name in sorted(found)]


def test_finds_a_rewrap():
    source = ("def a(path):\n    try:\n        read(path)\n"
              "    except FormatError as exc:\n        raise FormatError(f'{path}: {exc}')\n"
              "def b():\n    try:\n        run()\n"
              "    except (OSError, errors.ValidationError):\n        cleanup()\n        raise\n"
              "def c():\n    try:\n        run()\n"
              "    except ValueError as exc:\n        raise ValidationError(str(exc))\n"
              "    except errors.PronAssessError:\n        if log():\n            raise Exit(3)\n")
    assert rewraps(source) == ["a:5", "c:19"]


@pytest.mark.parametrize("module", sorted(m for m in MODULES if "/" not in m))
def test_package_errors_are_rewrapped_only_by_named(module):
    found = rewraps(MODULES[module].read_text(encoding="utf-8"))
    assert [f.partition(":")[0] for f in found] == (["named"] if module == "errors" else [])
