"""The public API as the package states it: ``qsegre.__all__`` against what
``__init__`` binds, no unused import in a module, and the README's library
tour run line by line."""

import ast
import io
import tokenize
import types
from pathlib import Path

import pytest

import qsegre

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(qsegre.__file__).resolve().parent


def test_all_names_resolve():
    for name in qsegre.__all__:
        assert hasattr(qsegre, name), name


def test_all_is_sorted():
    assert qsegre.__all__ == sorted(qsegre.__all__)


def test_every_public_name_is_listed():
    bound = {name for name, value in vars(qsegre).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(qsegre.__all__)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``from __future__`` binds nothing."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport math\nfrom x import a, b as c\nmath.pi\nc"
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def tour_lines() -> list[str]:
    """The lines of the README's library tour, its first ```python block."""
    text = (ROOT / "README.md").read_text()
    start = text.index("```python\n", text.index("## Library tour")) + len("```python\n")
    return text[start:text.index("```", start)].splitlines()


def split_comment(line: str) -> tuple[str, str | None]:
    """A line's code and the text of its comment, if it has one."""
    for tok in tokenize.generate_tokens(io.StringIO(line).readline):
        if tok.type == tokenize.COMMENT:
            return line[:tok.start[1]].rstrip(), tok.string[1:].strip()
    return line, None


def test_readme_tour_runs():
    # each line is one statement; a comment "raises X" names the qsegre error
    # the line raises, and a comment that is a Python literal is the line's value
    namespace = {}
    checked = 0
    for line in tour_lines():
        code, comment = split_comment(line)
        if not code:
            continue
        if comment and comment.startswith("raises "):
            with pytest.raises(getattr(qsegre, comment.split()[1])):
                exec(code, namespace)
            checked += 1
            continue
        try:
            want = ast.literal_eval(comment or "")
        except (ValueError, SyntaxError):  # no comment, or prose
            exec(code, namespace)
            continue
        assert eval(code, namespace) == want, line
        checked += 1
    assert checked >= 5
