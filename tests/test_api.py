"""The public API as the package states it: ``qsegre.__all__`` against what
``__init__`` binds, no unused import in a module, the unchecked construction
path in ``gaussrat`` alone, a polynomial's stored terms read in ``poly``
alone, and the README's library tour run line by line."""

import ast
import io
import tokenize
import types
from pathlib import Path

import pytest

import qsegre
from qsegre.gaussrat import Frozen

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


def value_types() -> set[str]:
    """The names of the package's value types, the subclasses of ``gaussrat.Frozen``."""
    found, todo = set(), [Frozen]
    while todo:
        cls = todo.pop()
        found.add(cls.__name__)
        todo += cls.__subclasses__()
    return found


def unchecked_constructions(source: str, types: set[str]) -> list[str]:
    """The calls that make a value without its constructor: ``object.__new__(...)``,
    and ``X.__new__(...)`` for a value type X."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
                and isinstance(node.func.value, ast.Name) and node.func.value.id in types | {"object"}):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_unchecked_constructions_are_found():
    source = ("m = Monomial.__new__(Monomial)\nobject.__new__(cls)\nsuper().__new__(cls)\n"
              "Other.__new__(Other)\nf(object.__new__)")
    assert unchecked_constructions(source, {"Monomial"}) == ["1: Monomial.__new__(Monomial)", "2: object.__new__(cls)"]


def test_values_are_made_unchecked_in_gaussrat_alone():
    types = value_types()
    assert {"Monomial", "MultiPoly", "PlueckerRelation", "PlueckerSet", "SegreIdeal", "StateVar"} <= types
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name != "gaussrat.py":
            assert unchecked_constructions(module.read_text(), types) == [], module.name


def stored_term_reads(source: str) -> list[str]:
    """The reads of a polynomial's stored term tuple: any ``x._terms``."""
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "_terms"]


def test_stored_term_reads_are_found():
    source = ("p._terms\nfor m, c in q.poly._terms: pass\np.terms\n_terms = 1\n"
              "p._terms_seen\nf('_terms')\nx = r._terms[0]")
    assert stored_term_reads(source) == ["1: p._terms", "2: q.poly._terms", "7: r._terms"]


def test_stored_terms_are_read_in_poly_alone():
    # other modules read a polynomial through terms, which returns the stored order as a dict
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name != "poly.py":
            assert stored_term_reads(module.read_text()) == [], module.name


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
