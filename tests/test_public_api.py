"""Every public name of the package has a caller outside the tests.

The check reads ``src/leril/*.py`` with ``ast``. It collects the public
top-level functions and classes of each module, and the public methods and
properties of its public classes; NamedTuple fields are plain annotations,
so they are not collected. A top-level name passes when some ``Name``,
``Attribute`` or import in ``src/leril`` or ``scripts/`` uses it; a method or
property only when some ``Attribute`` (``x.name``) does, since a local
variable of the same name calls nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "leril"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_names() -> list[tuple[str, str, bool]]:
    """(qualified name, bare name, whether it is a member) of every public definition."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            names.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                names.extend(
                    (f"{path.stem}.{node.name}.{item.name}", item.name, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_"
                )
    return names


def _used_names() -> tuple[set[str], set[str]]:
    """Every name used in any way, and the names used as attributes."""
    used, attributes = set(), set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used | attributes, attributes


def test_every_public_name_has_a_caller():
    names = _public_names()
    # the walk sees methods
    assert "corpus_store.CorpusStore.query_by_relation" in {q for q, _, _ in names}
    used, attributes = _used_names()
    unused = [q for q, name, member in names if name not in (attributes if member else used)]
    assert unused == []
