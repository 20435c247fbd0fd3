"""Library code writes nothing: only the CLI prints or touches stdout and
stderr, so every failure reaches the user through ``cli.main``."""

import ast
from pathlib import Path

import pytest

import ctrlscore

PACKAGE = Path(ctrlscore.__file__).resolve().parent
#: The front end and its entry point, the two modules that may write.
FRONT_END = {"cli.py", "__main__.py"}


def output_uses(source: str) -> list[str]:
    """Each use of ``print``, ``sys.stdout`` or ``sys.stderr`` in ``source``,
    as ``line:name``."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "print":
            uses.append(f"{node.lineno}:print")
        elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            uses.append(f"{node.lineno}:sys.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            uses.extend(f"{node.lineno}:sys.{alias.name}" for alias in node.names
                        if alias.name in ("stdout", "stderr"))
    return uses


@pytest.mark.parametrize("source, uses", [
    ("print('x')", ["1:print"]),
    ("import sys\nsys.stderr.write('x')", ["2:sys.stderr"]),
    ("import sys\nout = sys.stdout", ["2:sys.stdout"]),
    ("from sys import stdout, argv", ["1:sys.stdout"]),
    ("import sys\nwarn = print", ["2:print"]),
    ("import sys\nsys.argv\nlog = 'print'", []),
])
def test_output_uses_finds_every_kind_of_write(source, uses):
    assert output_uses(source) == uses


def test_only_the_cli_modules_write_output():
    modules = {str(path.relative_to(PACKAGE)): path for path in PACKAGE.rglob("*.py")}
    assert set(modules) >= FRONT_END | {"optimizer.py", "errors.py"}
    found = {name: output_uses(path.read_text(encoding="utf-8"))
             for name, path in modules.items() if name not in FRONT_END}
    assert {name: uses for name, uses in found.items() if uses} == {}
