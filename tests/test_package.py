"""Source-level checks over the package and its tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [path for path in (ROOT / "src" / "totalcorr").glob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads as a plain name; the
    `__future__` imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_unread_names():
    source = "from __future__ import annotations\nimport os\nimport a.b as c\nfrom d import e, f\ne(c)\n"
    assert unused_imports(source) == ["f", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_readme_python_blocks_run(capsys):
    # each print(...) line prints one line, and a trailing "# value" comment
    # is what it must print
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        expected = [line.partition("#")[2].strip() for line in block.splitlines()
                    if line.startswith("print(")]
        assert len(printed) == len(expected), block
        for out, want in zip(printed, expected):
            assert out == want or not want, printed
