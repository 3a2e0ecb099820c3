"""Every name a module imports at top level is used in that module, and the
pipeline modules do not import the oracles in `verification`.

No linter ships with the package, so this walks the syntax trees itself.
`src/mlclab/__init__.py` is skipped: its imports are the package's
re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "mlclab").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tools").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression
    reads (an attribute chain counts as a read of its root name)."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom x import a, b as c\n"
              "def f(v: a) -> None:\n    return os.path.join(v)\n")
    assert unused_imports(source) == ["j", "c"]



# the modules a train-and-evaluate run executes; cli may import verification
PIPELINE = ("datamodel", "numerics", "losses", "training", "evaluation", "experiments")


def import_parts(source: str) -> set[str]:
    """Every dotted part of every module an import statement, at any depth,
    names or imports from."""
    parts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                parts.update(alias.name.split("."))
    return parts


def test_pipeline_modules_do_not_import_verification():
    src = ROOT / "src" / "mlclab"
    for name in PIPELINE:
        assert "verification" not in import_parts((src / f"{name}.py").read_text("utf-8")), name
    # the detector sees the one module allowed to import it
    assert "verification" in import_parts((src / "cli.py").read_text("utf-8"))


def label_rule_copies(source: str) -> list[int]:
    """The lines of source with an expression that compares one operand with
    both 0 and 1 by ==: a hand-written copy of the label rule."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.expr):
            continue
        compared = {}
        for cmp in ast.walk(node):
            if (isinstance(cmp, ast.Compare) and len(cmp.ops) == 1
                    and isinstance(cmp.ops[0], ast.Eq)):
                for side, other in ((cmp.left, cmp.comparators[0]), (cmp.comparators[0], cmp.left)):
                    if isinstance(other, ast.Constant) and other.value in (0, 1):
                        compared.setdefault(ast.dump(side), set()).add(other.value)
        if any(values == {0, 1} for values in compared.values()):
            found.add(node.lineno)
    return sorted(found)


def test_only_datamodel_states_the_label_rule():
    # datamodel.check_labels is the one label rule; every other module calls it
    for path in MODULES:
        if path.name != "datamodel.py":
            assert label_rule_copies(path.read_text(encoding="utf-8")) == [], path.name


def test_label_rule_detector_sees_a_copy():
    source = "a, b = p == 1, t == 0\nok = ((y == 0) | (1 == y)).all()\nc = x == 1.5\n"
    assert label_rule_copies(source) == [2]
