"""Every function, class and method of the program has a caller outside
its own definition (no linter is installed).

A definition counts as called when its name is loaded anywhere else in
``src/ixbsp`` (outside ``__init__.py``, whose re-exports call nothing) or in
perfbench's non-test modules: as a name, an attribute, or a string constant
(perfbench looks up the functions it wraps by name).  Dunder methods are
called by Python itself and are not checked.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ixbsp"

# The paper's theory, which the tests reproduce and nothing in the program
# calls: the objective-error bounds and the sqrt-J distance's zeta variable.
THEORY = (
    "bounds.empirical_bound_check",
    "bounds.fit_lambda",
    "bounds.objective_bound_analytic",
    "bounds.objective_bound_sampled",
    "bounds.reward_bound",
    "distances.ZetaDistribution.zeta_of",
)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each top-level function and class and of
    each method, dunders left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defs = []
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m) for m in node.body
                     if isinstance(m, kinds[:2])]
    return [(q, n) for q, n in defs if not _is_dunder(n.name)]


def _loads(node: ast.AST) -> Counter[str]:
    """Names ``node`` loads: identifiers, attributes and identifier strings."""
    loads: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            loads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            loads[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            loads[sub.value] += 1
    return loads


def uncalled(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.qualname`` of each definition in ``modules`` whose name is
    loaded nowhere but inside itself; ``callers`` are more sources to search."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    loads: Counter[str] = Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        loads += _loads(tree)
    return sorted(
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if loads[node.name] == _loads(node)[node.name])


def test_detector_flags_definitions_only_they_themselves_load():
    module = (
        "class Tree:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
        "    def size(self):\n"
        "        return len(self)\n"
        "    def copy(self) -> 'Tree':\n"
        "        return Tree()\n"
        "def build():\n"
        "    return Tree().size()\n"
        "def orphan():\n"
        "    return build()\n"
        "def wrapped():\n"
        "    return 0\n"
    )
    caller = "from m import build\nbuild()\nWRAP = ('m', 'wrapped')\n"
    assert uncalled({"m": module}, [caller]) == ["m.Tree.copy", "m.Tree.walk",
                                                 "m.orphan"]
    assert uncalled({"m": module}, []) == ["m.Tree.copy", "m.Tree.walk",
                                           "m.orphan", "m.wrapped"]
    # a class named only inside its own methods is uncalled too
    node = "class Node:\n    def clone(self) -> 'Node':\n        return Node()\n"
    assert uncalled({"n": node}, []) == ["n.Node", "n.Node.clone"]


def test_every_definition_has_a_caller():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    callers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")]
    # equality also keeps the allowlist from naming a called definition
    assert uncalled(modules, callers) == list(THEORY)
