"""Every module uses every name it imports (no linter is installed), and a
rollout imports no more than it needs.

The one exception would be an import that a module keeps only so that
``perfbench/spans.py`` can wrap it: spans.py looks each binding it wraps up
by name in the module that calls it (``owner.__dict__[attr]``), so such an
import must stay even when the module stops calling it.  Each one needs an
entry in ``PERFBENCH_ONLY`` with a comment saying which span wraps it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from _util import run_python

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "ixbsp").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=lambda p: str(p.relative_to(ROOT)),
)

# "<module path>": names imported only for perfbench to wrap.
PERFBENCH_ONLY: dict[str, tuple[str, ...]] = {
    # planner.build_tree makes every level and planner.objective scores every
    # session, so incremental no longer calls these; spans.py still wraps
    # incremental's bindings of them
    "src/ixbsp/incremental.py": (
        "mis_objective",  # planner.objective
        "most_likely_measurement",  # sampling.draw
        "propagate",  # beliefs.propagate
        "sample_future_measurements",  # sampling.draw
    ),
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import except ``from __future__``."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations and
    ``__all__``."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for attr in ("annotation", "returns"):
            ann = getattr(node, attr, None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((name, line) for name, line in _imported(tree).items()
                  if name not in used)


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import pi, tau\n"
        "x: 'Path | None' = None\n"
        "from pathlib import Path\n"
        "print(system.argv, pi)\n"
    )
    assert unused_imports(source) == [("os", 2), ("tau", 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = [name for name, _ in unused_imports(path.read_text())]
    # equality also keeps the allowlist from naming a used import
    assert unused == sorted(PERFBENCH_ONLY.get(str(path.relative_to(ROOT)), ()))


def span_targets(source: str) -> set[tuple[str, str]]:
    """``(module, attr)`` of each ``(module, "attr", ...)`` tuple in the
    ``targets`` list of ``perfbench/spans.py``; class owners are skipped."""
    found: set[tuple[str, str]] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "targets"
                for t in node.targets):
            for elt in node.value.elts:
                owner, attr = elt.elts[:2]
                if isinstance(owner, ast.Name):
                    found.add((owner.id, attr.value))
    return found


def test_perfbench_only_names_are_span_targets():
    targets = span_targets((ROOT / "perfbench" / "spans.py").read_text())
    for path, names in PERFBENCH_ONLY.items():
        module = Path(path).stem
        for name in names:
            assert (module, name) in targets, (path, name)


def test_rollout_leaves_scipy_linalg_unimported():
    """``_gaussian`` loads only the compiled LAPACK module: the
    ``scipy.linalg`` package is most of the cold start when imported."""
    out = run_python(
        "import sys\n"
        "from ixbsp.simulation import run_rollout, world_from_config\n"
        "from _util import tiny_cfg\n"
        "cfg = tiny_cfg()\n"
        "run_rollout(world_from_config(cfg.world, seed=0), 'ixbsp', cfg, 0,\n"
        "            shadow_kinds=('imlbsp',))\n"
        "print('scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)\n")
    assert out.split() == ["False", "True"]
