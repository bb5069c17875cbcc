"""Every function, class and method of the program has a caller outside
its own definition (no linter is installed).

A definition counts as called when its name is loaded anywhere else in
``src/ixbsp`` (outside ``__init__.py``, whose re-exports call nothing) or in
perfbench's non-test modules: as a name, an attribute, or a string constant
(perfbench looks up the functions it wraps by name).  The strings of an
``__all__`` list call nothing: they only name what a star import takes.
Dunder methods are called by Python itself and are not checked.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ixbsp"

# The paper's theory, which the tests reproduce and nothing in the program
# calls: the objective-error bounds, the sqrt-J incremental-distance algebra,
# and the KL divergence the tests compare ``d_sqrt_j`` against.
THEORY = (
    "bounds.empirical_bound_check",
    "bounds.fit_lambda",
    "bounds.objective_bound_analytic",
    "bounds.objective_bound_sampled",
    "bounds.reward_bound",
    "distances.ZetaDistribution.zeta_of",
    "distances.check_chi_squared_conditions",
    "distances.delta_quadratic",
    "distances.kl_gaussian",
    "distances.zeta_distribution",
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


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _loads(node: ast.AST) -> Counter[str]:
    """Names ``node`` loads: identifiers, attributes and identifier strings
    outside ``__all__`` assignments."""
    loads: Counter[str] = Counter()
    stack = [node]
    while stack:
        sub = stack.pop()
        if _is_all(sub):
            continue
        stack.extend(ast.iter_child_nodes(sub))
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
        "__all__ = ['orphan']\n"
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
