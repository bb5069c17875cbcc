"""Every config field is read by the program, not only checked and copied."""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from ixbsp.config import RewardConfig, ScenarioConfig, WorldConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "ixbsp"
CONFIGS = {"ScenarioConfig", "WorldConfig", "RewardConfig"}
NESTED = {"world", "reward"}  # config fields that hold configs
# methods that only check, serialize or copy a config; a read there does
# not make a field do anything
PLUMBING = {"validate", "to_json_dict", "from_json_dict"}


def _is_config_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    text = annotation.value if isinstance(annotation, ast.Constant) \
        else ast.unparse(annotation)
    return any(name in str(text) for name in CONFIGS)


class _ConfigReads(ast.NodeVisitor):
    """Field names read from config objects outside the ``PLUMBING`` methods.

    A config object is a parameter annotated with a config class, ``self``
    in a config class's method, or the ``world``/``reward`` field of one.
    Other objects may have fields of the same name (a run manifest's
    ``seeds``), so reads from them do not count.
    """

    def __init__(self) -> None:
        self.reads: set[str] = set()
        self.scopes: list[set[str]] = [set()]
        self.classes: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name in PLUMBING:
            return
        args = node.args.args + node.args.kwonlyargs
        typed = {a.arg for a in args if _is_config_annotation(a.annotation)}
        if args and self.classes and self.classes[-1] in CONFIGS:
            typed.add(args[0].arg)
        self.scopes.append(self.scopes[-1] | typed)
        self.generic_visit(node)
        self.scopes.pop()

    def _is_config(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.scopes[-1]
        return (isinstance(node, ast.Attribute) and node.attr in NESTED
                and self._is_config(node.value))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and self._is_config(node.value):
            self.reads.add(node.attr)
        self.generic_visit(node)


def unread_fields(sources: list[str], names: list[str]) -> list[str]:
    visitor = _ConfigReads()
    for source in sources:
        visitor.visit(ast.parse(source))
    return [n for n in names if n not in visitor.reads]


def test_detector_counts_only_config_reads_outside_plumbing():
    source = (
        "class WorldConfig:\n"
        "    def validate(self):\n"
        "        return self.checked\n"
        "    def area(self):\n"
        "        return self.extent\n"
        "def plan(cfg: ScenarioConfig, manifest):\n"
        "    cfg.written = 1\n"
        "    return cfg.horizon, cfg.world.n_goals, manifest.seeds\n"
    )
    names = ["checked", "extent", "written", "horizon", "n_goals", "seeds"]
    assert unread_fields([source], names) == ["checked", "written", "seeds"]


@pytest.mark.parametrize("cls", [ScenarioConfig, WorldConfig, RewardConfig],
                         ids=lambda c: c.__name__)
def test_every_config_field_is_read(cls):
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_fields(sources, [f.name for f in fields(cls)]) == []
