"""Source lints: no unused import or dead private helper, and one table of stream tags."""

import ast
from pathlib import Path

import hgsparse
from hgsparse import _rng


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names that ``tree`` imports and never mentions.

    A name counts as used wherever it is read, also inside a string
    annotation.  ``from __future__`` imports are not names.
    """
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            hint = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                used.update(n.id for n in ast.walk(ast.parse(hint.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted(name for name in imported if name not in used)


def test_no_unused_imports():
    assert _unused_imports(ast.parse(
        "from __future__ import annotations\n"
        "from typing import Iterable, NamedTuple\n"
        "import numpy as np\nimport os.path\n"
        "def f(x: 'Iterable[int]') -> int:\n    return np.size(x)\n")) == ["NamedTuple", "os"]
    package = Path(hgsparse.__file__).parent
    paths = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    offenders = {str(path): unused for path in paths
                 if (unused := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert offenders == {}


def _private_names(stmt: ast.stmt) -> list[str]:
    """The private functions and constants that a module-level statement defines."""
    if isinstance(stmt, ast.FunctionDef):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        return []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _unread_privates(trees: list[ast.Module]) -> list[str]:
    """The private module-level names that no statement but their own reads."""
    defined, read = set(), set()
    for tree in trees:
        for stmt in tree.body:
            own = _private_names(stmt)
            defined.update(own)
            read.update(node.id for node in ast.walk(stmt)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id not in own)
    return sorted(defined - read)


def test_no_dead_private_helpers():
    assert _unread_privates([ast.parse(
        "_A, _B = 1, 2\n_C: int = _A\n"
        "def _f():\n    return _f()\n"
        "def g():\n    return _C\n"), ast.parse("def _h():\n    return _B\n")]) == ["_f", "_h"]
    package = Path(hgsparse.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    assert _unread_privates(trees) == []


_KEYED = ("counter_words", "substream_seed")  # the calls that take a stream tag


def _tag_names(rng_tree: ast.Module) -> set[str]:
    """The stream tags that ``_rng`` names at module level."""
    return {node.id for stmt in rng_tree.body if isinstance(stmt, ast.Assign)
            for target in stmt.targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and node.id.endswith("_TAG")}


def _loose_tags(tree: ast.Module, tags: set[str]) -> list[int]:
    """The lines of the keyed calls whose tag does not come from the table.

    A call's tag is its second argument or its ``tag`` keyword.  It must
    be a table name, or a table name plus an offset; an int literal, or
    any other name, is loose.
    """
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) not in _KEYED:
            continue
        tag = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "tag"), None)
        while isinstance(tag, ast.BinOp) and isinstance(tag.op, ast.Add):
            tag = tag.left
        if not (isinstance(tag, ast.Name) and tag.id in tags):
            lines.append(node.lineno)
    return lines


def test_stream_tags_come_from_one_table():
    package = Path(hgsparse.__file__).parent
    tags = _tag_names(ast.parse((package / "_rng.py").read_text(encoding="utf-8")))
    assert tags == {"SPLIT_TAG", "NEGATIVE_TAG", "SWEEP_TAG", "GEN_SRC_TAG", "GEN_DST_TAG"}
    assert _loose_tags(ast.parse(
        "counter_words(s, 2, c)\nsubstream_seed(s, SWEEP_TAG)\n"
        "counter_words(s, tag, c)\nrng.counter_words(s, GEN_SRC_TAG + 2 * i, c)\n"
        "substream_seed(s, tag=1)\nhg.substream_seed(s, tag=NEGATIVE_TAG)\n"), tags) == [1, 3, 5]
    # no two streams share a tag, whatever the generator's edge-type count
    fixed = [_rng.SPLIT_TAG, _rng.NEGATIVE_TAG, _rng.SWEEP_TAG]
    generated = [tag + 2 * i for i in range(1000) for tag in (_rng.GEN_SRC_TAG, _rng.GEN_DST_TAG)]
    assert len(set(fixed + generated)) == len(fixed) + len(generated)
    offenders = {path.name: lines for path in sorted(package.glob("*.py"))
                 if path.name != "_rng.py"
                 and (lines := _loose_tags(ast.parse(path.read_text(encoding="utf-8")), tags))}
    assert offenders == {}


def _substream_calls(tree: ast.Module) -> list[int]:
    """The lines of the calls of ``substream_seed``, by name or attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "substream_seed"]


def test_only_rng_derives_a_seed():
    # each stream keys its tag once, in counter_words; a caller that derived
    # a seed with substream_seed first would key its tag twice
    assert _substream_calls(ast.parse(
        "substream_seed(s, 1)\nf(substream_seed)\nhg.substream_seed(s, tag=2)\n"
        "counter_words(s, SWEEP_TAG, c)\nfrom ._rng import substream_seed\n")) == [1, 3]
    package = Path(hgsparse.__file__).parent
    offenders = {path.name: lines for path in sorted(package.glob("*.py"))
                 if path.name != "_rng.py"
                 and (lines := _substream_calls(ast.parse(path.read_text(encoding="utf-8"))))}
    assert offenders == {}


def _rng_imports(tree: ast.Module, names: set[str]) -> list[int]:
    """The lines of ``tree``'s imports that reach into ``_rng``.

    An import reaches in when a part of its module path is ``_rng``, or
    when it imports ``_rng`` or one of ``names``, the names that ``_rng``
    defines, also as re-exported by the package.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for alias in node.names for part in alias.name.split(".")]
        else:
            continue
        if "_rng" in parts or names.intersection(parts):
            lines.append(node.lineno)
    return lines


def test_cli_takes_no_stream_rule_from_rng():
    # the command passes its seed on; every derived seed has its home in the library
    package = Path(hgsparse.__file__).parent
    rng_tree = ast.parse((package / "_rng.py").read_text(encoding="utf-8"))
    names = {stmt.name for stmt in rng_tree.body if isinstance(stmt, ast.FunctionDef)}
    names |= {node.id for stmt in rng_tree.body if isinstance(stmt, ast.Assign)
              for target in stmt.targets for node in ast.walk(target)
              if isinstance(node, ast.Name)}
    assert {"substream_seed", "SWEEP_TAG"} <= names
    assert _rng_imports(ast.parse(
        "from ._rng import SWEEP_TAG\nfrom hgsparse._rng import x\nfrom . import _rng\n"
        "import hgsparse._rng as r\nfrom . import substream_seed\n"
        "from .sparsify import sparsify\nimport numpy as np\n"), names) == [1, 2, 3, 4, 5]
    assert _rng_imports(ast.parse((package / "cli.py").read_text(encoding="utf-8")), names) == []
