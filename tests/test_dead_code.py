"""Every public function, class and method in ``src/emomusic`` has a caller.

A name counts as used when it occurs as a whole word in ``src/emomusic``
(``__init__.py`` aside, since re-exporting is not using), ``demos/`` or
``perfbench/`` outside its own definition. Tests do not count: code that
only tests call belongs under ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "emomusic").glob("*.py")
                 if p.name != "__init__.py")
SEARCHED = SOURCES + sorted((ROOT / "demos").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions(tree: ast.Module):
    """(qualified name, bare name, node) per public top-level function or
    class and per public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def unused_names() -> list[str]:
    texts = {path: path.read_text().splitlines() for path in SEARCHED}
    unused = []
    for path in SOURCES:
        for qualified, name, node in public_definitions(ast.parse("\n".join(texts[path]))):
            # the definition's own lines, decorators included, do not count
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for other, lines in texts.items()
                       for i, line in enumerate(lines, 1)
                       if other != path or not first <= i <= node.end_lineno):
                unused.append(f"{path.name}:{qualified}")
    return unused


def test_every_public_definition_has_a_caller():
    assert unused_names() == []
