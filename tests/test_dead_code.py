"""Every public function, class and method in ``src/emomusic`` has a caller.

A name counts as used when it occurs as a whole word in the code of
``src/emomusic`` (``__init__.py`` aside, since re-exporting is not using),
``demos/`` or ``perfbench/`` outside its own definition. Comments and
docstrings do not count, since naming a function is not calling it; other
string literals do, since the stage table and the perfbench targets name
functions in strings. Tests do not count: code that only tests call belongs
under ``tests/``.

The word search cannot see operators (``a + b`` never names ``__add__``), so
every method of ``Tensor`` must also be called by one tiny training step and
one generation call.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import numpy as np

from emomusic.autodiff import Tensor
from emomusic.model import ModelConfig, forward_batch, init_state, next_token_loss
from emomusic.sampling import generate_pieces
from emomusic.tokens import BOS, EOS, PAD

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


def code_lines(source: str) -> list[str]:
    """``source``'s lines with every comment and docstring blanked out."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines[doc.lineno - 1:doc.end_lineno] = [""] * (doc.end_lineno - doc.lineno + 1)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col]
    return lines


def unused_names() -> list[str]:
    texts = {path: code_lines(path.read_text()) for path in SEARCHED}
    unused = []
    for path in SOURCES:
        for qualified, name, node in public_definitions(ast.parse(path.read_text())):
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


def test_every_tensor_method_is_called(monkeypatch):
    called = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    methods = [name for name, attr in vars(Tensor).items() if callable(attr)]
    for name in methods:
        monkeypatch.setattr(Tensor, name, recording(name, getattr(Tensor, name)))
    state = init_state(ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ffn=16, max_len=8,
                                   dropout=0.1, attr_dim=3), seed=0)
    ids = np.array([[BOS, 5, 6, EOS], [BOS, 7, EOS, PAD]])
    bits = np.array([[1, 0, 1], [0, 1, 1]])
    loss, _ = next_token_loss(forward_batch(state, ids, bits, np.random.default_rng(0)), ids)
    loss.backward()
    generate_pieces(state, bits, [1, 2], 0.9, 4)
    assert sorted(set(methods) - called) == []
