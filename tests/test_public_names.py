"""The library holds only what its commands, its own modules and the
benchmark call: every function, class and method of `provrefine`, public
or private, has a use in `src/` outside its own definition, or is named
in `perfbench/*.py` (whose tracer names library functions in strings).
Dunder methods are exempt, since Python calls them implicitly.

A use counts only where the code around it is itself used: the scan
drops unused definitions until none is left to drop, so a name whose
only callers are dead code is dead too.  Test-only helpers belong in the
`tests/*_reference.py` oracles.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "provrefine"
PERFBENCH = ROOT / "perfbench"

_DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _scan():
    """(definitions, uses): the functions, classes and methods but the
    dunder methods as (qualified name, node), and per used name the tuples
    of the definition nodes around each of its uses."""
    defs, uses = [], {}

    def walk(node, enclosing: tuple):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                uses.setdefault(child.id, []).append(enclosing)
            elif isinstance(child, ast.Attribute):
                uses.setdefault(child.attr, []).append(enclosing)
            walk(child, enclosing + (child,)
                 if isinstance(child, _DEFINITIONS) else enclosing)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                defs.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{path.stem}.{node.name}.{m.name}", m)
                            for m in node.body if isinstance(m, ast.FunctionDef))
        walk(tree, ())
    return [(q, node) for q, node in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))], uses


def unused_names() -> list:
    defs, uses = _scan()
    bench = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))
    defs = [(q, node) for q, node in defs
            if not re.search(rf"\b{re.escape(node.name)}\b", bench)]
    dead = set()  # the nodes of unused definitions
    while True:
        newly = {node for _, node in defs if node not in dead
                 and not any(node not in enclosing and dead.isdisjoint(enclosing)
                             for enclosing in uses.get(node.name, ()))}
        if not newly:
            return sorted(q for q, node in defs if node in dead)
        dead |= newly


def _is_private(qualified: str) -> bool:
    return qualified.rpartition(".")[2].startswith("_")


def test_every_public_name_has_a_caller():
    assert [q for q in unused_names() if not _is_private(q)] == []


def test_every_private_name_has_a_caller():
    assert [q for q in unused_names() if _is_private(q)] == []
